import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import g2forms
from g2forms.linalg import (Basis, _echelon, adjugate, charpoly, cleared, det,
                            identity, inertia, inverse, kernel,
                            leading_principal_minors, mat, mat_mul, nullspace,
                            poly_gcd, rank, root_multiplicities, rref, solve,
                            sparse_vector, transpose)
from references import _leibniz_det

rationals = st.fractions(min_value=-5, max_value=5,
                         max_denominator=6).map(Fraction)


def square(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n)


def test_rref_identity():
    r, pivots = rref(identity(3))
    assert r == identity(3)
    assert pivots == [0, 1, 2]


def _dense_rref(a):
    """Reference: dense Gauss-Jordan over Fractions, pivots by position."""
    m = mat(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _dense_kernel(ref_r, ref_pivots, cols):
    """The null space basis read off a reference RREF: one vector per free
    column fc, 1 at fc and -R[i][fc] at the i-th pivot column."""
    basis = []
    for fc in (c for c in range(cols) if c not in ref_pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(ref_pivots):
            v[pc] = -ref_r[i][fc]
        basis.append(v)
    return basis


def _sparse_int_rows(a, keep_zeros):
    """Each row of a cleared to integers, as a sparse row {col: v}; with
    keep_zeros its zero entries are stored too."""
    out = []
    for row in a:
        ints, _ = cleared([[Fraction(x) for x in row]])
        out.append({c: v for c, v in enumerate(ints[0]) if v or keep_zeros})
    return out


def _assert_rref_matches_the_dense_reference(a):
    before = [list(row) for row in a]
    r, pivots = rref(a)
    ref_r, ref_pivots = _dense_rref(a)
    assert pivots == ref_pivots
    assert len(r) == len(ref_r) == len(a)
    assert r == ref_r
    assert all(type(x) is Fraction for row in r for x in row)
    cols = len(a[0]) if a else 0
    ref_kernel = _dense_kernel(ref_r, ref_pivots, cols)
    assert nullspace(a) == (ref_kernel if a else [])
    assert rank(a) == len(ref_pivots)
    for keep_zeros in (False, True):
        rows = _sparse_int_rows(a, keep_zeros)
        got = kernel(rows, cols)
        assert got == ref_kernel
        assert all(type(x) is Fraction for v in got for x in v)
        echelon = _echelon(rows)
        assert [c for c, _ in echelon] == ref_pivots
        assert all(math.gcd(*row.values()) == 1 and all(row.values())
                   and not any(k in row for k in ref_pivots if k != c)
                   for c, row in echelon)
    assert [list(row) for row in a] == before


def _seeded_entry(rng, kind):
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return rng.randint(-9, 9)
    den = rng.choice((1, 2, 7, 10 ** 6, 10 ** 15, rng.randint(1, 10 ** 15)))
    return Fraction(rng.randint(-10 ** 3, 10 ** 3), den)


def _seeded_matrix(rng, rows, cols, rnk, kind):
    """A rows x cols matrix of rank rnk (left * right), zeros sprinkled in
    the factors, with int, Fraction or mixed entries."""
    def factor(n, m):
        return [[_seeded_entry(rng, kind) if rng.random() < 0.6 else 0
                 for _ in range(m)] for _ in range(n)]

    if not rnk:
        return [[0] * cols for _ in range(rows)]
    left, right = factor(rows, rnk), factor(rnk, cols)
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
           for row in left]
    if kind == "mixed":
        # an integral Fraction may come back as an int
        out = [[int(x) if x.denominator == 1 and rng.random() < 0.5 else x
                for x in row] for row in out]
    return out


@pytest.mark.parametrize("a", [
    [], [[]], [[], []], [[0]], [[Fraction(0)]], [[5]],
    [[Fraction(-3, 10 ** 15)]],
    [[0, 0, 0]], [[0, 3, Fraction(1, 2), 0]], [[0], [0], [0]],
    [[0], [Fraction(2, 3)], [-4]], [[Fraction(0)] * 4] * 3,
    [[1, 2], [-1, -2], [1, 2]], [[0, 1], [1, 0]],
], ids=lambda a: f"{len(a)}x{len(a[0]) if a else 0}")
def test_rref_matches_the_dense_reference_on_edge_cases(a):
    _assert_rref_matches_the_dense_reference(a)


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
@pytest.mark.parametrize("seed", range(3))
def test_rref_matches_the_dense_reference_on_seeded_matrices(seed, kind):
    import random

    rng = random.Random(seed)
    seen = set()
    for rows, cols in [(1, 6), (6, 1), (3, 3), (5, 5), (8, 3), (3, 8),
                       (9, 6), (6, 9), (12, 12)]:
        for rnk in sorted({0, 1, min(rows, cols) // 2, min(rows, cols)}):
            a = _seeded_matrix(rng, rows, cols, rnk, kind)
            _assert_rref_matches_the_dense_reference(a)
            seen.add("full" if rnk == min(rows, cols) else "deficient")
            # duplicated and negated rows, shuffled in
            more = a + [list(row) for row in rng.sample(a, len(a) // 2 + 1)] \
                + [[-x for x in row] for row in rng.sample(a, len(a) // 2 + 1)]
            rng.shuffle(more)
            _assert_rref_matches_the_dense_reference(more)
    assert seen == {"full", "deficient"}


@given(st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(st.one_of(rationals, st.integers(-5, 5)), min_size=cols,
             max_size=cols), min_size=1, max_size=7)))
@settings(max_examples=150, deadline=None)
def test_rref_matches_the_dense_reference_on_random_rationals(a):
    _assert_rref_matches_the_dense_reference(a)


@pytest.mark.parametrize("n", range(5))
def test_kernel_of_no_rows_is_the_identity_basis(n):
    assert kernel([], n) == identity(n)
    assert kernel([{}, {0: 0}] if n else [{}], n) == identity(n)


def test_nullspace_known():
    a = mat([[1, 2, 3], [2, 4, 6]])
    ns = nullspace(a)
    assert len(ns) == 2
    for v in ns:
        assert all(sum(row[j] * v[j] for j in range(3)) == 0 for row in a)


def test_solve_inconsistent():
    assert solve(mat([[1, 1], [1, 1]]), [[1, 2]]) is None


def test_solve_refuses_a_right_hand_side_of_another_length():
    # one entry per row of a: a third entry was silently dropped
    with pytest.raises(ValueError, match="needs 2 entries, one per row"):
        solve(mat([[1, 2], [3, 4]]), [[1, 2, 3]])


def _solve_one(a, b):
    """Reference: reduce [a | b] for a single right-hand side."""
    cols = len(a[0])
    r, pivots = rref([row + [Fraction(x)] for row, x in zip(a, b)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for i, pc in enumerate(pivots):
        x[pc] = r[i][cols]
    return x


def _random_system(rng, rows, cols, rnk):
    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    left = [[entry() for _ in range(rnk)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(rnk)]
    return mat_mul(left, right) if rnk else mat([[0] * cols] * rows)


@pytest.mark.parametrize("seed", range(4))
def test_batched_solve_matches_a_per_vector_loop(seed):
    import random

    rng = random.Random(seed)
    seen = set()
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        rnk = rng.randint(0, min(rows, cols))
        a = _random_system(rng, rows, cols, rnk)
        # consistent right-hand sides a x, then arbitrary ones, which are
        # inconsistent whenever they leave the column space
        consistent = [[sum(row[j] * x[j] for j in range(cols)) for row in a]
                      for x in ([rng.randint(-3, 3) for _ in range(cols)]
                                for _ in range(rng.randint(1, 4)))]
        arbitrary = [[rng.randint(-3, 3) for _ in range(rows)]
                     for _ in range(rng.randint(1, 3))]
        assert _solve_one(a, consistent[0]) is not None
        for bs in (consistent, arbitrary, consistent + arbitrary):
            expected = [_solve_one(a, b) for b in bs]
            got = solve(a, bs)
            if any(x is None for x in expected):
                seen.add("inconsistent")
                assert got is None
            else:
                seen.add("singular" if rnk < cols else "unique")
                assert got == expected
                assert all(type(v) is Fraction for x in got for v in x)
        assert solve(a, []) == []
    assert seen == {"inconsistent", "singular", "unique"}


@pytest.mark.parametrize("seed", range(3))
def test_solve_gives_the_same_fractions_for_int_and_fraction_sides(seed):
    # int right-hand sides go into the elimination as they are
    import random

    rng = random.Random(seed)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        xs = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(2)]
        bs = [[sum(r * x for r, x in zip(row, xv)) for row in a] for xv in xs]
        bs += [[rng.randint(-6, 6) for _ in range(rows)]]
        for sides in (bs[:2], bs):
            want = solve(mat(a), [[Fraction(x) for x in b] for b in sides])
            for left in (a, mat(a)):
                got = solve(left, sides)
                assert got == want
                if got is not None:
                    assert all(type(v) is Fraction for x in got for v in x)


def _keyed(v):
    """The nonzero entries of v on the keys (c % 3, c), whose sorted order
    is not the column order."""
    return {(c % 3, c): x for c, x in enumerate(v) if x}


@pytest.mark.parametrize("seed", range(3))
def test_basis_reads_the_solve_coordinates_or_none(seed):
    # seeded sparse integer rows: dependent rows have no reader; in the
    # span of independent ones y / d are the `solve` coordinates, and read
    # is None exactly when solve finds none
    import random

    rng = random.Random(seed)
    seen = set()
    for _ in range(30):
        k, n = rng.randint(1, 4), rng.randint(1, 6)
        rows = [[rng.choice([0, 0, rng.randint(-4, 4)]) for _ in range(n)]
                for _ in range(k)]
        basis = Basis.from_echelon(map(_keyed, rows))
        if rank(rows) < k:
            seen.add("dependent")
            assert basis is None
            continue
        coeffs = [rng.randint(-3, 3) for _ in rows]
        inside = [sum(c * b[j] for c, b in zip(coeffs, rows))
                  for j in range(n)]
        for x in (inside, [rng.randint(-2, 2) for _ in range(n)]):
            want = solve(transpose(rows), [x])
            y = basis.read(_keyed(x))
            if want is None:
                seen.add("off")
                assert y is None
            else:
                seen.add("on")
                assert [Fraction(v, basis.d) for v in y] == want[0]
        y = basis.read(_keyed(inside))
        assert [Fraction(v, basis.d) for v in y] == coeffs
    assert seen == {"dependent", "on", "off"}


def test_basis_from_echelon_refuses_dependent_rows():
    assert Basis.from_echelon([{0: 1, 2: 2}, {0: -2, 2: -4}]) is None
    assert Basis.from_echelon([{0: 1}, {}]) is None
    # no rows span the zero vector alone
    empty = Basis.from_echelon([])
    assert empty.read({}) == [] and empty.read({0: 1}) is None


def test_a_kernel_basis_is_read_at_its_last_keys_and_no_other_is_read():
    rows = [sparse_vector(v) for v in kernel([{0: 1, 1: 2, 3: -1},
                                              {2: 3, 3: 1}], 5)]
    basis = Basis.from_kernel(rows)
    assert basis.d == 1 and basis.pivots == (1, 3, 4)
    x = {c: 2 * rows[0].get(c, 0) - rows[1].get(c, 0) for c in range(5)}
    assert basis.read({c: v for c, v in x.items() if v}) == [2, -1, 0]
    assert basis.read({0: Fraction(1)}) is None
    # 2 at a row's last key, a last key that two rows share, a row nonzero
    # at another's last key, a zero row
    doubled = [{**rows[0], 1: 2}] + rows[1:]
    shared = rows[:2] + [{0: 3, 1: 1}]
    crossing = rows[:1] + [{**rows[1], 1: 1}] + rows[2:]
    for bad in (doubled, shared, crossing, rows + [{}]):
        with pytest.raises(ValueError, match="not a kernel basis"):
            Basis.from_kernel(bad)


def test_inverse_refuses_a_non_square_matrix():
    # a 1 x 2 matrix has no inverse, though [[1], [0]] is a right inverse
    with pytest.raises(ValueError, match="not square"):
        inverse(mat([[1, 2]]))


def test_inverse_raises_on_a_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        inverse(mat([[1, 2], [2, 4]]))
    with pytest.raises(ValueError, match="singular"):
        inverse(mat([[0, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_det_known():
    assert det(mat([[2, 1], [1, 2]])) == 3
    assert det(mat([[0, 1], [1, 0]])) == -1
    assert det(identity(5)) == 1


@settings(max_examples=30, deadline=None)
@given(square(3))
def test_det_multiplicative(rows):
    a = mat(rows)
    b = mat([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    assert det(mat_mul(a, b)) == det(a) * det(b)


@settings(max_examples=25, deadline=None)
@given(square(3))
def test_inverse_roundtrip(rows):
    a = mat(rows)
    if det(a) == 0:
        with pytest.raises(ValueError):
            inverse(a)
        return
    assert mat_mul(a, inverse(a)) == identity(3)


@settings(max_examples=25, deadline=None)
@given(square(4))
def test_charpoly_evaluates_to_zero(rows):
    # Cayley-Hamilton: p(A) = 0
    a = mat(rows)
    cs = charpoly(a)
    acc = [[Fraction(0)] * 4 for _ in range(4)]
    power = identity(4)
    for c in cs:
        if c != 0:
            acc = [[x + c * p for x, p in zip(ra, rp)]
                   for ra, rp in zip(acc, power)]
        power = mat_mul(power, a)
    assert all(x == 0 for row in acc for x in row)


@pytest.mark.parametrize("seed", range(4))
def test_integer_charpoly_is_the_fraction_charpoly_in_ints(seed):
    import random

    rng = random.Random(seed)
    singular = 0
    for n in range(1, 8):
        for _ in range(8):
            rows = [[rng.choice((0, 0, 1, -1, 2, -3, 7, -12, -10 ** 9))
                     for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                rows[-1] = [-2 * x for x in rows[0]]
            cs = charpoly(rows)
            assert all(type(c) is int for c in cs)
            ref = charpoly(mat(rows))
            assert all(type(c) is Fraction for c in ref)
            assert cs == ref
            assert cs[0] == (-1) ** n * det(rows)
            singular += cs[0] == 0
    assert singular > 0
    assert charpoly([[2, 1], [1, 2]]) == [3, -4, 1]
    assert charpoly([[-5]]) == [5, 1]


def _seeded_int_matrix(rng, n):
    """An n x n int matrix of 2- to 400-bit entries, some of them zero,
    with some rows and some columns zeroed."""
    bits = rng.choice((2, 30, 400))
    rows = [[rng.choice((0, rng.randint(-2 ** bits, 2 ** bits)))
             for _ in range(n)] for _ in range(n)]
    for i in rng.sample(range(n), rng.randint(0, n // 2)):
        rows[i] = [0] * n
    for j in rng.sample(range(n), rng.randint(0, n // 2)):
        for row in rows:
            row[j] = 0
    return rows


@pytest.mark.parametrize("seed", range(3))
def test_charpoly_matches_the_berkowitz_reference(seed):
    # the reference sums generators over every Toeplitz entry, on the
    # entries as they are: the int result must agree on int matrices, and
    # the rescaled Fractions on Fraction matrices that the reference never
    # clears to integers
    import random

    from references import reference_charpoly

    rng = random.Random(seed)
    for n in range(9):
        for _ in range(6):
            rows = _seeded_int_matrix(rng, n)
            cs = charpoly(rows)
            assert all(type(c) is int for c in cs)
            assert cs == reference_charpoly(rows)
            fracs = [[Fraction(x, rng.choice((1, 3, 10 ** 6))) for x in row]
                     for row in rows]
            cs = charpoly(fracs)
            # the empty matrix is all-int, whatever it was meant to hold
            assert n == 0 or all(type(c) is Fraction for c in cs)
            assert cs == reference_charpoly(fracs)


def test_charpoly_det_consistency():
    a = mat([[1, 2], [3, 4]])
    cs = charpoly(a)
    # constant term is (-1)^n det
    assert cs[0] == det(a)


@pytest.mark.parametrize("diag,expected", [
    ((1, 1, 1), (3, 0)),
    ((-1, -1, -1), (0, 3)),
    ((2, -3, 5), (2, 1)),
    ((0, 1, -1), (1, 1)),
    # zero diagonals, given as whole matrices: only the congruence step
    # row_i += row_j, col_i += col_j finds a pivot
    ([[0, 1], [1, 0]], (1, 1)),
    ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], (1, 1)),  # rank 2
])
def test_signature_diagonal(diag, expected):
    if isinstance(diag, list):
        m = mat(diag)
    else:
        m = [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(3)]
             for i in range(3)]
    assert inertia(m)[:2] == expected


def _congruence_inputs():
    """(S, diag D): 3 x 3 S with D = diag(1, -1, 1), or 7 x 7 S with a D
    of entries in {-1, 0, 1} and at least one 0, so S^T D S is
    rank-deficient."""
    diag7 = st.lists(st.sampled_from((-1, 0, 1)), min_size=7,
                     max_size=7).filter(lambda d: 0 in d)
    return st.one_of(square(3).map(lambda rows: (rows, [1, -1, 1])),
                     st.tuples(square(7), diag7))


@settings(max_examples=25, deadline=None)
@given(_congruence_inputs())
def test_signature_congruence_invariant(case):
    # S^T D S has the signature of D for every invertible S
    rows, diag = case
    s = mat(rows)
    if det(s) == 0:
        return
    n = len(s)
    d = mat([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
    congruent = mat_mul(transpose(s), mat_mul(d, s))
    assert inertia(congruent)[:2] == inertia(d)[:2] == (
        diag.count(1), diag.count(-1))


def _descartes_signature(b):
    """(p, q) by Descartes' rule of signs on charpoly(b), exact because a
    symmetric matrix has only real eigenvalues: p counts the sign changes
    of the coefficients, q those of the coefficients of charpoly(-x)."""
    def changes(seq):
        signs = [x > 0 for x in seq if x != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    cs = charpoly(b)
    return changes(cs), changes([-c if k % 2 else c for k, c in enumerate(cs)])


@pytest.mark.parametrize("seed", range(4))
def test_inertia_matches_descartes_and_det(seed):
    # S = C^T D C of rank <= r, about a third of them with the diagonal
    # zeroed; int matrices give an int det, rational ones a Fraction
    import random

    rng = random.Random(seed)
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 7)
        r = rng.randint(0, n)
        c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        dg = [rng.choice((-2, -1, 1, 5)) for _ in range(r)]
        s = [[sum(c[k][i] * dg[k] * c[k][j] for k in range(r))
              for j in range(n)] for i in range(n)]
        if rng.random() < 1 / 3:
            for i in range(n):
                s[i][i] = 0
        if rng.random() < 0.5:
            den = rng.choice((3, 10 ** 6))
            s = [[Fraction(x, den) for x in row] for row in s]
        frozen = [list(row) for row in s]
        p, q, d = inertia(s)
        assert s == frozen
        assert (p, q) == _descartes_signature(s)
        assert d == det(s) and type(d) is type(det(s))
        seen.add((p + q < n, any(s[i][i] for i in range(n))))
    assert len(seen) == 4
    assert inertia([]) == (0, 0, 1)


def test_leading_minors_bareiss_int():
    m = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    assert leading_principal_minors(m) == [2, 3, 4]


def test_leading_minors_keep_the_input_type_and_stop_at_a_zero_pivot():
    m = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    assert [type(x) for x in leading_principal_minors(m)] == [int] * 3
    fr = leading_principal_minors(mat(m))
    assert fr == [2, 3, 4] and all(type(x) is Fraction for x in fr)
    # a zero leading minor before the last one: None, not a row swap
    assert leading_principal_minors([[0, 1], [1, 0]]) is None
    assert leading_principal_minors([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) is None
    # a vanishing last minor is returned
    assert leading_principal_minors([[1, 1], [1, 1]]) == [1, 0]
    assert leading_principal_minors([]) == []


def test_rank_rectangular():
    assert rank(mat([[1, 0, 1], [0, 1, 1]])) == 2
    assert rank([[Fraction(0)] * 3]) == 0


@pytest.mark.parametrize("rows", [
    [[2, 1], [1, 2]],
    [[0, 1, 2], [3, 4, 5], [6, 7, 9]],  # zero first pivot: row swap
    [[1, 2, 3], [2, 4, 7], [1, 5, 2]],  # zero pivot after one step: swap
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],  # singular
    [[0, 0, 1], [0, 2, 3], [0, 4, 5]],  # singular, zero column
    [[-7]],
])
def test_det_of_integer_matrices_is_an_exact_int(rows):
    d = det(rows)
    assert type(d) is int
    assert d == det(mat(rows))
    assert isinstance(det(mat(rows)), Fraction)


def test_integer_det_agrees_with_fraction_det_on_random_matrices():
    import random

    rng = random.Random(5)
    for n in range(1, 8):
        for _ in range(20):
            rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 9)) for _ in range(n)]
                    for _ in range(n)]
            d = det(rows)
            assert type(d) is int and d == det(mat(rows))


@pytest.mark.parametrize("seed", range(6))
def test_rational_input_is_the_rescaled_integer_recursion(seed):
    # a = B / L with B integer: det a = det B / L^n, d_k(a) = d_k(B) / L^k
    # and c_k(a) = c_k(B) / L^(n - k); each B quantity from the permutation
    # expansion, each result a Fraction
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 5)
    big = [[rng.randint(-9, 9) + 40 * (i == j) * rng.choice((1, -1))
            for j in range(n)] for i in range(n)]
    den = rng.choice((2, 6, 35, 10 ** 6))
    a = [[Fraction(x, den) for x in row] for row in big]
    d = det(a)
    assert type(d) is Fraction and d == Fraction(_leibniz_det(big), den ** n)
    minors = leading_principal_minors(a)
    assert all(type(x) is Fraction for x in minors)
    assert minors == [Fraction(_leibniz_det([row[:k] for row in big[:k]]),
                               den ** k) for k in range(1, n + 1)]
    cs = charpoly(a)
    assert all(type(c) is Fraction for c in cs)
    # det(t I - a) = det(t L I - B) / L^n at n + 1 points fixes the charpoly
    for t in range(n + 1):
        shifted = [[t * den * (i == j) - v for j, v in enumerate(row)]
                   for i, row in enumerate(big)]
        assert sum(c * t ** k for k, c in enumerate(cs)) == Fraction(
            _leibniz_det(shifted), den ** n)


def test_an_int_matrix_is_not_cleared_nor_written_and_gives_ints(
        monkeypatch):
    from g2forms import linalg

    def no_clearing(rows):
        raise AssertionError("an int matrix was cleared")

    monkeypatch.setattr(linalg, "cleared", no_clearing)
    rows = [[0, 1, 2], [3, 4, 5], [6, 7, 9]]  # zero first pivot: row swap
    frozen = [list(r) for r in rows]
    assert det(rows) == _leibniz_det(rows) == -3
    assert leading_principal_minors(rows) is None
    assert charpoly(rows)[0] == 3
    assert rows == frozen
    tuples = tuple(map(tuple, frozen))
    assert type(det(tuples)) is int and det(tuples) == -3


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("seed", range(12))
def test_root_multiplicities_of_seeded_products(seed):
    # prod (x - r_i)^(m_i) * (x^2 - 2)^k: distinct rational r_i, and the
    # irrational pair +-sqrt(2) counted with multiplicity k each
    import random

    rng = random.Random(seed)
    roots = {Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(rng.randint(0, 4))}
    mults = [rng.randint(1, 3) for _ in roots]
    k = rng.randint(0, 2)
    poly = [Fraction(rng.choice((-3, -1, 2, 5)))]
    for r, m in zip(roots, mults):
        for _ in range(m):
            poly = _poly_mul(poly, [-r, 1])
    for _ in range(k):
        poly = _poly_mul(poly, [-2, 0, 1])
    assert root_multiplicities(poly) == sorted(mults + [k, k] * (k > 0))


def test_root_multiplicities_edge_cases():
    assert root_multiplicities([5]) == []
    assert root_multiplicities([0, 0, 0, 1]) == [3]
    assert root_multiplicities([1, 0, 1]) == [1, 1]        # +-i
    assert root_multiplicities([1, 0, 2, 0, 1]) == [2, 2]  # (x^2 + 1)^2
    assert root_multiplicities(charpoly(identity(4))) == [4]


def test_poly_gcd_is_monic():
    # (x - 1)(x - 2) and 3 (x - 1)(x + 5)
    assert poly_gcd([2, -3, 1], [-15, 12, 3]) == [-1, 1]
    assert poly_gcd([2, -3, 1], [7]) == [1]



@pytest.mark.parametrize("rows", [
    [[2, 1], [1, 2]],
    [[0, 1, 2], [3, 4, 5], [6, 7, 9]],  # zero first pivot: row swap
    [[1, 2, 3], [2, 4, 7], [1, 5, 2]],  # zero pivot after one step: swap
    [[0, 1], [1, 0]],
    [[-7]],
])
def test_adjugate_is_det_times_inverse(rows):
    d, adj = adjugate(rows)
    assert type(d) is int and d == det(rows)
    assert all(type(x) is int for row in adj for x in row)
    assert adj == [[d * x for x in row] for row in inverse(mat(rows))]


@pytest.mark.parametrize("rows", [
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    [[0, 0, 1], [0, 2, 3], [0, 4, 5]],
    [[0]],
])
def test_adjugate_of_a_singular_matrix(rows):
    assert adjugate(rows) == (0, None)


def test_adjugate_agrees_with_det_and_inverse_on_random_matrices():
    import random

    rng = random.Random(11)
    for n in range(1, 8):
        for _ in range(20):
            rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 9, 10 ** 30))
                     for _ in range(n)] for _ in range(n)]
            d, adj = adjugate(rows)
            assert d == det(rows)
            if d:
                # a adj(a) = det(a) I, in exact integers
                assert mat_mul(rows, adj) == [[d * (i == j) for j in range(n)]
                                              for i in range(n)]
            else:
                assert adj is None


def _package_functions():
    """(module, qualified name, names referred to) of every top-level
    function and method of the package; nested functions count for the
    function that holds them."""
    for path in sorted(Path(g2forms.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                fns = [(f"{node.name}.{fn.name}", fn) for fn in node.body
                       if isinstance(fn, ast.FunctionDef)]
            else:
                fns = ([(node.name, node)]
                       if isinstance(node, ast.FunctionDef) else [])
            for name, fn in fns:
                yield path.stem, name, {
                    sub.id if isinstance(sub, ast.Name) else sub.attr
                    for sub in ast.walk(fn)
                    if isinstance(sub, (ast.Name, ast.Attribute))}


def test_echelon_has_three_readers_and_every_inverse_is_read_off_adjugate():
    functions = list(_package_functions())
    assert {(mod, name) for mod, name, names in functions
            if "_echelon" in names} == {
        ("linalg", "rank"), ("linalg", "kernel"),
        ("linalg", "Basis.from_echelon"), ("linalg", "rref")}
    linalg = {name: names for mod, name, names in functions
              if mod == "linalg"}
    assert "kernel" in linalg["solve"] and "adjugate" in linalg["inverse"]
    # outside linalg an adjugate stays an integer matrix: no function that
    # takes one divides it into Fractions
    assert not [(mod, name) for mod, name, names in functions
                if mod != "linalg" and {"adjugate", "Fraction"} <= names]
