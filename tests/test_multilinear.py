import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from g2forms.linalg import identity, mat_mul, mat_vec, transpose
from g2forms.multilinear import (KForm, algebra_action, basis_vector,
                                 complement, form_from_json, form_to_json,
                                 interior, lambda_k_action_matrix,
                                 lambda_k_pullback_matrix, minors, pullback,
                                 sort_index, wedge)
from references import _leibniz_det, reference_action

w = KForm.basis


def sparse_form(dim, degree, seed, terms=3, lo=-4, hi=4):
    rng = random.Random(seed)
    items = []
    for _ in range(terms):
        idx = tuple(rng.sample(range(1, dim + 1), degree))
        items.append((idx, Fraction(rng.randint(lo, hi), rng.randint(1, 3))))
    return KForm.make(dim, degree, items)


def rand_matrix(n, seed, lo=-3, hi=3):
    rng = random.Random(seed)
    return [[Fraction(rng.randint(lo, hi)) for _ in range(n)]
            for _ in range(n)]


def test_basis_wedge():
    assert wedge(w(7, 1), w(7, 2)) == w(7, 1, 2)
    assert wedge(w(7, 1, 2, 3), w(7, 4, 5, 6, 7)) == w(7, 1, 2, 3, 4, 5, 6, 7)
    assert wedge(w(7, 2), w(7, 1)) == -1 * w(7, 1, 2)
    assert wedge(w(7, 1), w(7, 1)).is_zero()


def test_wedge_dim_mismatch():
    with pytest.raises(ValueError):
        wedge(w(7, 1), w(6, 2))


@pytest.mark.parametrize("seed", range(10))
def test_wedge_graded_commutative(seed):
    for da, db in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
        a = sparse_form(7, da, seed)
        b = sparse_form(7, db, seed + 100)
        sign = (-1) ** (da * db)
        assert wedge(a, b) == sign * wedge(b, a)


@pytest.mark.parametrize("seed", range(6))
def test_wedge_associative(seed):
    a = sparse_form(7, 1, seed)
    b = sparse_form(7, 2, seed + 50)
    c = sparse_form(7, 2, seed + 90)
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_interior_examples():
    e = lambda i: basis_vector(7, i)
    assert interior(e(1), w(7, 1, 2, 3)) == w(7, 2, 3)
    assert interior(e(4), w(7, 1, 2, 3)).is_zero()
    assert interior(e(2), w(7, 1, 2, 3)) == -1 * w(7, 1, 3)
    with pytest.raises(ValueError):
        interior(e(1), KForm.make(7, 0, [((), 1)]))


@pytest.mark.parametrize("seed", range(6))
def test_interior_antiderivation(seed):
    rng = random.Random(seed)
    v = [Fraction(rng.randint(-3, 3)) for _ in range(7)]
    a = sparse_form(7, 2, seed + 7)
    b = sparse_form(7, 2, seed + 11)
    lhs = interior(v, wedge(a, b))
    rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b))
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(6))
def test_interior_squares_to_zero(seed):
    rng = random.Random(seed)
    v = [Fraction(rng.randint(-3, 3)) for _ in range(7)]
    a = sparse_form(7, 3, seed)
    assert interior(v, interior(v, a)).is_zero()


def test_pullback_identity_and_det():
    from g2forms.stable_forms import PHI

    assert pullback(identity(7), PHI) == PHI
    two = [[Fraction(2) if i == j else Fraction(0) for j in range(7)]
           for i in range(7)]
    assert pullback(two, w(7, 1, 2, 3, 4, 5, 6, 7)) == \
        128 * w(7, 1, 2, 3, 4, 5, 6, 7)


def test_pullback_d7_preserves_reference():
    from g2forms.stable_forms import PHI

    d7 = [[Fraction(-1 if i == j and i % 2 == 0 else (1 if i == j else 0))
           for j in range(7)] for i in range(7)]
    assert pullback(d7, PHI) == PHI


@pytest.mark.parametrize("seed", range(8))
def test_pullback_contravariant_functorial(seed):
    a = sparse_form(7, 3, seed, terms=4)
    m = rand_matrix(7, seed + 3)
    n = rand_matrix(7, seed + 5)
    assert pullback(mat_mul(m, n), a) == pullback(n, pullback(m, a))


def test_algebra_action_euler_degree():
    assert algebra_action(identity(7), w(7, 1, 2, 3)) == -3 * w(7, 1, 2, 3)
    zero = KForm.make(7, 0, [((), 5)])
    assert algebra_action(rand_matrix(7, 1), zero).is_zero()


@pytest.mark.parametrize("seed", range(5))
def test_algebra_action_is_pullback_derivative(seed):
    # pullback(I - tA, a) - a - t * action(A, a) vanishes to second order:
    # interpolate the coefficient polynomials at three points exactly
    a = sparse_form(7, 3, seed, terms=4)
    m = rand_matrix(7, seed + 17)
    act = algebra_action(m, a)

    def remainder(t):
        mt = [[Fraction(1 if i == j else 0) - t * m[i][j] for j in range(7)]
              for i in range(7)]
        return pullback(mt, a) - a - t * act

    r1, r2, r3 = (remainder(Fraction(t)) for t in (1, 2, 3))
    # degree <= 3 polynomial with no constant term; c1 from Vandermonde
    c1 = Fraction(3) * r1 - Fraction(3, 2) * r2 + Fraction(1, 3) * r3
    assert c1.is_zero()


@pytest.mark.parametrize("seed", range(5))
def test_algebra_action_derivation_over_wedge(seed):
    a = sparse_form(7, 2, seed)
    b = sparse_form(7, 1, seed + 23)
    m = rand_matrix(7, seed + 29)
    lhs = algebra_action(m, wedge(a, b))
    rhs = wedge(algebra_action(m, a), b) + wedge(a, algebra_action(m, b))
    assert lhs == rhs


def test_form_json_roundtrip():
    a = KForm.make(7, 3, [((1, 2, 3), Fraction(5, 3)), ((2, 4, 6), -2)])
    assert form_from_json(form_to_json(a)) == a
    with pytest.raises(ValueError):
        form_from_json({"dim": 7, "terms": []})


def test_form_from_json_refuses_a_wrong_length_idx_before_sorting(
        monkeypatch):
    from g2forms import multilinear

    def fail(idx):
        raise AssertionError("sorted an idx")

    monkeypatch.setattr(multilinear, "sort_index", fail)
    for idx in ([3, 2], [4, 3, 2, 1], list(range(2000, 0, -1))):
        obj = {"dim": 2000, "degree": 3, "terms": [{"idx": idx, "c": "1"}]}
        with pytest.raises(ValueError, match=f"holds {len(idx)} indices"):
            form_from_json(obj)


def test_form_from_json_names_the_term_not_the_index_list():
    first = {"idx": [1, 2, 3], "c": "1"}
    for idx, match in (
            ([2, 4, 8], "term 2: index 3 of idx is 8, outside 1..7"),
            ([0, 2, 3], "term 2: index 1 of idx is 0, outside 1..7"),
            ([3, 2, 1], "terms 1 and 2 have the same index set")):
        obj = {"dim": 7, "degree": 3,
               "terms": [first, {"idx": idx, "c": "1"}]}
        with pytest.raises(ValueError, match=match):
            form_from_json(obj)


def test_form_from_json_names_the_json_type_of_a_refused_value():
    for edit, message in (
            ({"idx": "1" * 50_000},
             "idx must be a JSON list, got a string of 50000 characters"),
            ({"c": 1.5}, "c must be a string n or p/q or a JSON integer, "
             "got a number"),
            ({"idx": [1, 2, None]}, "index 3 of idx is null, not a JSON "
             "integer"),
            ({"idx": [1, 2, 10 ** 30]}, "index 3 of idx is an integer of 31 "
             "digits, outside 1..7"),
            ({"c": "-" + "1" * 5_000}, "c has too many digits, got a string "
             "of 5001 characters")):
        obj = {"dim": 7, "degree": 3,
               "terms": [{"idx": [1, 2, 3], "c": "1", **edit}]}
        with pytest.raises(ValueError) as exc:
            form_from_json(obj)
        assert str(exc.value) == f"malformed form object: term 1: {message}"


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 2000])
def test_form_from_json_reads_a_reversed_idx_with_its_sign(length):
    # the reversal of L indices is L(L - 1)/2 transpositions
    obj = {"dim": length, "degree": length,
           "terms": [{"idx": list(range(length, 0, -1)), "c": "3"}]}
    form = form_from_json(obj)
    sign = (-1) ** (length * (length - 1) // 2)
    assert form.terms == {tuple(range(1, length + 1)): 3 * sign}


def test_sort_index_sign_is_the_parity_of_the_inversions():
    rng = random.Random(35)
    for _ in range(200):
        length = rng.randint(0, 7)
        idx = [rng.randint(1, 7) for _ in range(length)]
        inversions = sum(a > b for a, b in combinations(idx, 2))
        sign = 0 if len(set(idx)) < length else (-1) ** inversions
        assert sort_index(idx) == (tuple(sorted(idx)), sign)
        obj = {"dim": 7, "degree": length,
               "terms": [{"idx": idx, "c": "1"}]}
        expected = {tuple(sorted(idx)): sign} if sign else {}
        assert form_from_json(obj).terms == expected


def test_make_normalizes_order_and_sign():
    a = KForm.make(7, 3, [((3, 1, 2), 1)])
    assert a == w(7, 1, 2, 3)
    b = KForm.make(7, 3, [((1, 1, 2), 1)])
    assert b.is_zero()


def test_forms_are_hashable_values():
    a = KForm.make(7, 3, [((3, 1, 2), 2), ((4, 5, 6), Fraction(1, 3))])
    b = KForm.make(7, 3, [((4, 5, 6), Fraction(1, 3)), ((1, 2, 3), 2)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, 2 * w(7, 1, 2, 3)}) == 2
    assert hash(KForm.make(7, 3, [((1, 2, 3), 1)])) == hash(w(7, 1, 2, 3))
    with pytest.raises(TypeError):
        a.terms[(1, 2, 3)] = 0
    import pickle

    assert pickle.loads(pickle.dumps(a)) == a


def test_the_constructor_drops_zero_coefficients():
    a = KForm(7, 3, {(1, 2, 3): Fraction(0), (1, 2, 4): 1})
    assert dict(a.terms) == {(1, 2, 4): 1}
    zero = KForm(7, 3, {(1, 2, 3): Fraction(0), (4, 5, 6): 0})
    assert zero.is_zero() and zero == KForm.zero(7, 3)
    assert hash(zero) == hash(KForm.zero(7, 3))


def _cancelling_form(rng, dim, degree):
    """A form of +-1 terms over few index sets, given in any order, so that
    `make` cancels some of them."""
    return KForm.make(dim, degree, [
        (tuple(rng.sample(range(1, degree + 3), degree)), rng.choice((-1, 1)))
        for _ in range(8)])


def _stores_no_zero(*forms):
    return all(0 not in f.terms.values() for f in forms)


@pytest.mark.parametrize("seed", range(8))
def test_no_form_producer_stores_a_zero(seed):
    from g2forms.homogeneous import bare_complex, ce_differential
    from g2forms.liealg import build_algebra
    from g2forms.stable_forms import star_euclidean

    rng = random.Random(seed)
    a, b = (_cancelling_form(rng, 7, 2) for _ in range(2))
    c = _cancelling_form(rng, 7, 3)
    v = [rng.randint(-1, 1) for _ in range(7)]
    m = [[rng.randint(-1, 1) for _ in range(7)] for _ in range(7)]
    assert _stores_no_zero(a, b, c, a + b, a - b, a - a, 0 * a, wedge(a, b),
                           wedge(a, c), interior(v, c), algebra_action(m, c),
                           pullback(m, c), star_euclidean(c))
    assert (a - a).is_zero() and (0 * a).is_zero()
    su3 = bare_complex(build_algebra("su(3)"))
    e = _cancelling_form(rng, 8, 2)
    assert _stores_no_zero(e, ce_differential(su3, e))
    assert ce_differential(su3, ce_differential(su3, e)).is_zero()


def test_cancelling_terms_leave_the_zero_form():
    assert KForm.make(7, 3, [((1, 2, 3), 1), ((2, 1, 3), 1)]).is_zero()
    assert wedge(w(7, 1, 2) + w(7, 3, 4), w(7, 3, 4) - w(7, 1, 2)).is_zero()
    assert interior([1, 1, 0, 0, 0, 0, 0], w(7, 1, 3) - w(7, 2, 3)).is_zero()
    diag = [[0] * 7 for _ in range(7)]
    diag[0][0], diag[1][1] = 1, -1
    assert algebra_action(diag, w(7, 1, 2)).is_zero()


def test_complement_is_the_sorted_rest_with_the_sign_of_the_wedge():
    top = w(7, *range(1, 8))
    for k in range(8):
        for idx in combinations(range(1, 8), k):
            rest, sign = complement(idx, 7)
            assert list(rest) == sorted(rest)
            assert sorted(idx + rest) == list(range(1, 8))
            assert wedge(w(7, *idx), w(7, *rest)) == sign * top


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_wedge_commutativity_hypothesis(s1, s2):
    a = sparse_form(7, 2, s1)
    b = sparse_form(7, 3, s2)
    assert wedge(a, b) == wedge(b, a)  # (-1)^(2*3) = 1


def _pullback_reference(m, a):
    """The Fraction-minor pullback: a Leibniz k x k minor of m for every
    source and target index set, accumulated in Fractions."""
    from itertools import combinations, permutations

    out = {}
    for jdx in combinations(range(1, a.dim + 1), a.degree):
        total = Fraction(0)
        for idx, c in a.terms.items():
            minor = Fraction(0)
            for perm in permutations(range(a.degree)):
                _, sign = sort_index(perm)
                prod = Fraction(sign)
                for i, p in zip(idx, perm):
                    prod *= Fraction(m[i - 1][jdx[p] - 1])
                minor += prod
            total += c * minor
        if total:
            out[jdx] = total
    return KForm(a.dim, a.degree, out)


def _seeded_map(rng, kind):
    n = 7
    if kind == "int":
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    else:
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 7))
              for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.4:
        # singular: one row a combination of two others, or a zero column
        i, j, k = rng.sample(range(n), 3)
        if rng.random() < 0.5:
            m[i] = [x - 2 * y for x, y in zip(m[j], m[k])]
        else:
            for row in m:
                row[i] = 0
    return m


@pytest.mark.parametrize("seed", range(12))
def test_pullback_matches_the_fraction_minor_reference(seed):
    rng = random.Random(seed)
    for degree in (1, 2, 3, 4):
        a = sparse_form(7, degree, rng.randint(0, 10 ** 6),
                        terms=rng.randint(1, 8))
        for kind in ("int", "fraction"):
            m = _seeded_map(rng, kind)
            got = pullback(m, a)
            assert got == _pullback_reference(m, a), (seed, degree, kind)
            assert all(type(c) is Fraction for c in got.terms.values())


def test_pullback_of_an_integer_coefficient_form():
    # KForm may hold plain ints; the integer boundary clears them as well
    a = KForm(7, 3, {(1, 2, 3): 2, (1, 4, 5): -3})
    m = _seeded_map(random.Random(1), "fraction")
    assert pullback(m, a) == _pullback_reference(m, a)


def _per_form_matrix(op, m, k, dim):
    """The Lambda^k matrix of op(m, .) column by column: one KForm per basis
    k-form, read back as its coefficient vector."""
    return transpose([op(m, w(dim, *idx)).coefficient_vector()
                      for idx in combinations(range(1, dim + 1), k)])


def _seeded_square(rng, dim, kind, density):
    """A dim x dim matrix with about `density` of its entries nonzero: ints
    in [-4, 4], or Fractions with denominators up to 6."""
    def entry():
        if rng.random() > density:
            return 0 if kind == "int" else Fraction(0)
        if kind == "int":
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    return [[entry() for _ in range(dim)] for _ in range(dim)]


@pytest.mark.parametrize("dim", range(3, 9))
def test_lambda_k_action_matrix_matches_the_per_form_action(dim):
    rng = random.Random(100 + dim)
    for k in range(dim + 1):
        for kind in ("int", "fraction"):
            for density in (0.3, 1.0):
                a = _seeded_square(rng, dim, kind, density)
                got = lambda_k_action_matrix(a, k)
                dense = [[row.get(c, 0) for c in range(len(got))]
                         for row in got]
                assert dense == _per_form_matrix(reference_action, a, k,
                                                 dim), (dim, k, kind, density)
                entries = [x for row in got for x in row.values()]
                assert all(entries)
                assert all(type(x) is (int if kind == "int" else Fraction)
                           for x in entries)


@pytest.mark.parametrize("dim", range(3, 9))
def test_lambda_k_pullback_matrix_matches_the_per_form_pullback(dim):
    rng = random.Random(200 + dim)
    for k in range(dim + 1):
        for kind in ("int", "fraction"):
            f = _seeded_square(rng, dim, kind, 0.5 if dim == 8 else 0.8)
            got = lambda_k_pullback_matrix(f, k)
            assert got == _per_form_matrix(pullback, f, k, dim), (
                dim, k, kind)
            if kind == "int":
                assert all(type(x) is int for row in got for x in row)


def test_minors_match_leibniz_and_pullback_is_the_lambda_k_matrix():
    # two integer maps, the second singular, and one Fraction map; the row
    # sets of k >= 4 are sampled, to keep the permutation sums small, and
    # those of k <= 3 are all taken, so many share a tail
    rng = random.Random(37)
    maps = [_seeded_square(rng, 7, kind, 0.8)
            for kind in ("int", "int", "fraction")]
    maps[1][4] = [x - 2 * y for x, y in zip(maps[1][0], maps[1][2])]
    for m in maps:
        for k in range(8):
            subsets = list(combinations(range(7), k))
            rows = (subsets if k <= 3 else
                    sorted(rng.sample(subsets, min(len(subsets), 2 - k // 6))))
            ref = {I: [_leibniz_det([[m[i][j] for j in J] for i in I])
                       for J in subsets] for I in rows}
            for I in rows:
                assert minors(m, {I: 1}, k) == ref[I], (k, I)
            weights = {I: rng.randint(-3, 3) for I in rows}
            assert minors(m, weights, k) == [
                sum(w * ref[I][p] for I, w in weights.items())
                for p in range(len(subsets))], k
            a = sparse_form(7, k, rng.randint(0, 10 ** 6))
            assert mat_vec(lambda_k_pullback_matrix(m, k),
                           a.coefficient_vector()) == \
                pullback(m, a).coefficient_vector(), k
    assert minors(maps[1], {tuple(range(7)): 1}, 7) == [0]
