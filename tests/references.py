"""Independent references the tests compare the package against.

`reference_action`: the package derives every index move of gl(R^n) on
k-forms once, in `multilinear._moves`; the tests of `algebra_action`, the
sparse rows of `lambda_k_action_matrix` and `annihilator_of_form` compare
against this per-term loop instead, which sorts each replaced index tuple
on its own.

`_hitchin_table`: the contraction table B_ij = sum sign t_I t_J t_K over
2,940 triples, which `reference_hitchin_matrix` and
`reference_family_hitchin_map` walk; the package runs the three steps
e_i ⌟ t, (e_j ⌟ t) ^ t and the pairing against e^{1..7} once, on the 35
unit coefficients, into one cubic (`stable_forms._hitchin_cubic`), and
reads every point and every family off it.

`stabilizer_class`: the class of a 3-form from its stabilizer algebra, of
dimension 14 exactly when the form is stable, and the signature of that
algebra's trace form, (0, 14) for compact g2 and (8, 6) for split g2.
`annihilator_of_form` reads the index moves of `multilinear._moves`, so
this route shares no B, no Hitchin cubic and no family map with the
package's, only `kernel` and `inertia`.

`_scan_samples` and `_sample_vec`: the sample order of a family scan (the
rays of `scan._ray_grid`, then the seeded draws) and the coefficient
vector of a sample, for the tests of the scan and of the family map.
`_family` and `_monomial_matrices`: the family Hitchin map of a module's
invariant 3-forms, and its dense integer matrices M_abc in monomial order,
for the tests of the scan's kernel and isotropic certificates.

`metric_from_4form`: the exact covector metric of a 4-form, gdual(p) as
the Hitchin matrix of star_euclidean(p).  `section5.example_429_report`
reads the metric of its 4-form family off one family Hitchin map instead;
the tests evaluate this at points against the bivector formula and the
report's display.

`reference_charpoly`: Berkowitz's recursion with generator sums over every
Toeplitz entry, on the entries as they are, ints or Fractions.
`linalg.charpoly` takes C-level dot products, skips the zero Toeplitz
entries and clears a rational matrix to integers once.

`_leibniz_det`: the determinant as the sum over permutations, for
`linalg.det` and its leading minors and for the `multilinear.minors`
recursion.

`sign_charpoly`: the characteristic polynomial a generator with spectrum
[-1] * a + [1] * b must have, to check `catalog._sign_spectrum` by a route
that takes no kernel.

`dense_d1` and `dense_kernel_dim`: d1 and the isotropy kernel as the
length of a Fraction null space basis, `intersect_nullspaces` of the
action matrices and the F - 1, and the `nullspace` of the transposed
flattened action.  The package reads both as a dimension less a `rank`.

`_kform_reference`: the invariant k-forms of a module from Fraction
systems built one basis k-form at a time with `reference_action` and
`pullback`, against `isotropy.invariant_kforms`.
`_conjugated_generators(n)`: rational rotations and a signed swap
conjugated by a rational triangular P, generators with denominators in
every entry, for that reference and for the invariant symmetric forms.

`reference_diffs`: the differentials of an invariant complex by
elimination, one `solve` per degree of d of every basis form
(`ce_differential`, which checks the form's invariance) against the
transposed basis of the next degree.  `homogeneous.build_complex` reads
each column off the free columns of that basis instead
(`isotropy.basis_coordinates`).

`dual_coefficients`: the adjugate route of the exact dual, Q =
star_euclidean(pullback(adj B, x)) read off the 3 x 3 minors of the
integer adjugate.  By Jacobi's theorem it is (det B)^2 times the
package's dual `stable_forms.dual_minors`, the 4 x 4 minors of B weighed
by star x, of which the record and the pencil read only the latter.
`cofactor_adjugate` is adj B by its 6 x 6 cofactors, also for a singular
B, where `linalg.adjugate` gives None.

`_two_form_of_matrix`: the 2-form alpha(u, v) = <A u, v> of a matrix A
under the identity metric, the metric image of the annihilator algebra of
PHI that `stable_forms.decompose2` must read as all 14-part; the package
reads that part as what is left after the orthogonal projection onto the
7-part.

`classify3`: the orbit class of a 3-form by `classify_coeffs` on its
coefficient vector; the package reads a form's class off its one record,
`hitchin_bilinear(t).orbit`, beside the record's dual.

`SO_FORM_ACTIONS`: (label, action, gram) triples of so(n) acting on R^n
by a rational definite form `_rational_form(n)`, scaled and summed, for
the tests of the invariant symmetric forms, the inner product and the
irreducible split.

The rest are the plain definitions the tests hold the package to, which no
command needs: the dense matrix `mat_sub`, `trace` and `commutator`, an
echelonized `span_basis`, the `bracket` and the Jacobi identity
(`check_jacobi`) read off a Lie algebra's structure constants, the
`cartan_3form` <X, [Y, Z]> of a module, and `coeff`, a k-form's value on
an unsorted index tuple.
"""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import prod

from g2forms.catalog import orthogonal_algebra_of_form
from g2forms.homogeneous import ce_differential
from g2forms.isotropy import invariant_3forms, invariant_kforms
from g2forms.linalg import (ZERO, adjugate, cleared, det, identity, inertia,
                            intersect_nullspaces, inverse, mat, mat_mul,
                            mat_vec, nullspace, rref, solve, transpose)
from g2forms.multilinear import (KForm, annihilator_of_form, complement,
                                 minors, pullback, sort_index)
from g2forms.scan import _ray_grid
from g2forms.stable_forms import (DIM, IDX3, FamilyHitchinMap, Orbit3Class,
                                  classify_coeffs, family_hitchin_map,
                                  hitchin_matrix, primitive_int_vector,
                                  primitive_ray, star_euclidean)

IDX3_POS = {idx: p for p, idx in enumerate(IDX3)}


@cache
def _hitchin_table():
    """Contraction table for B_ij = sum sign * t_I t_J t_K over triples.

    For each i <= j, the terms with i in I, j in J and K the complement of
    (I\\i) u (J\\j), grouped by their first factor: a tuple of
    (posI, ((posJ, posK, sign), ...)), 15 groups per cell, so
    B_ij = sum t_I (sum sign t_J t_K).  Built once, reused for every
    evaluation (the classification scans hit this hard).
    """
    table = {}
    full = set(range(1, 8))
    for i in range(1, 8):
        for j in range(i, 8):
            entries = []
            for I in IDX3:
                if i not in I:
                    continue
                pi = I.index(i)
                I2 = I[:pi] + I[pi + 1:]
                si = 1 if pi % 2 == 0 else -1
                seti2 = set(I2)
                group = []
                for J in IDX3:
                    if j not in J:
                        continue
                    pj = J.index(j)
                    J2 = J[:pj] + J[pj + 1:]
                    if seti2 & set(J2):
                        continue
                    sj = 1 if pj % 2 == 0 else -1
                    rest = full - seti2 - set(J2)
                    if len(rest) != 3:
                        continue
                    K = tuple(sorted(rest))
                    s = sort_index(I2 + J2 + K)[1]
                    if s == 0:
                        continue
                    group.append((IDX3_POS[J], IDX3_POS[K], si * sj * s))
                entries.append((IDX3_POS[I], tuple(group)))
            table[(i, j)] = tuple(entries)
    return table


def reference_hitchin_matrix(coeffs):
    """B of a dense 35-vector by the contraction table: each cell sums t_I
    times its group's sum of sign t_J t_K."""
    b = [[0] * 7 for _ in range(7)]
    for (i, j), groups in _hitchin_table().items():
        acc = 0
        for pi, rest in groups:
            ci = coeffs[pi]
            if ci == 0:
                continue
            inner = 0
            for pj, pk, s in rest:
                cj = coeffs[pj]
                if cj == 0:
                    continue
                ck = coeffs[pk]
                if ck == 0:
                    continue
                inner += s * cj * ck
            acc += ci * inner
        b[i - 1][j - 1] = acc
        b[j - 1][i - 1] = acc
    return b


def reference_family_hitchin_map(bvecs):
    """The family Hitchin map of integer 35-vectors, by walking the
    contraction table over their nonzero entries."""
    table = _hitchin_table()
    support = [[(a, bv[p]) for a, bv in enumerate(bvecs) if bv[p]]
               for p in range(len(IDX3))]
    cubics = {}
    for e, groups in enumerate(table.values()):
        for pi, rest in groups:
            for a, ca in support[pi]:
                for pj, pk, s in rest:
                    for b, cb in support[pj]:
                        for c, cc in support[pk]:
                            terms = cubics.setdefault(
                                tuple(sorted((a, b, c))), {})
                            terms[e] = terms.get(e, 0) + s * ca * cb * cc
    monomials = []
    for (a, b, c), terms in sorted(cubics.items()):
        terms = tuple((e, v) for e, v in terms.items() if v)
        if terms:
            monomials.append((a, b, c, terms))
    return FamilyHitchinMap(monomials=tuple(monomials),
                            cells=tuple((i - 1, j - 1) for i, j in table))


def _scan_samples(d, config):
    """The sample order of invariant_form_types."""
    rng = random.Random(config.seed)
    return list(_ray_grid(d, config.grid)) + [
        tuple(rng.randint(-9, 9) for _ in range(d))
        for _ in range(config.random)]


def _sample_vec(coeffs, bvecs):
    return [sum(c * bv[k] for c, bv in zip(coeffs, bvecs)) for k in range(35)]


def _monomial_matrices(hitchin):
    """The dense integer matrices M_abc of a family map, in monomial order."""
    out = []
    for *_, terms in hitchin.monomials:
        m = [[0] * 7 for _ in range(7)]
        for e, coef in terms:
            i, j = hitchin.cells[e]
            m[i][j] = m[j][i] = coef
        out.append(m)
    return out


def _family(mod):
    return family_hitchin_map([primitive_int_vector(f.coefficient_vector())
                               for f in invariant_3forms(mod)])


def metric_from_4form(p: KForm) -> list:
    """Exact covector bilinear form of a 4-form on R^7: 7x7 Fractions.

    gdual(X*, Y*) = <P_X ^ P_Y, p> where P_X is the bivector with
    iota_{P_X} vol = X* ^ p; the value sits in (Lambda^7)^2, trivialized by
    (w^{1..7})^2.  Cubic in p; stability is det(gdual) != 0.

    gdual is the Hitchin matrix of the Euclidean dual t = star_euclidean(p):
    gdual(p) = hitchin_matrix(t).  With p = *t, X* ^ *t is the star of
    X ⌟ t up to a sign fixed by the degrees, so P_X is X ⌟ t read as a
    bivector and <P_X ^ P_Y, *t> = (X ⌟ t) ^ (Y ⌟ t) ^ t.  Both sides
    contract three copies of the coefficients with the permutation symbol
    and star_euclidean is a signed permutation of coordinates, so this is
    an identity of cubic polynomials in the 35 coefficients, not only of
    their values on stable forms (the tests compare the coefficients).  The
    matrix is built on the primitive integer ray of t, t = scale * x, and
    rescaled by scale^3.
    """
    if p.dim != DIM or p.degree != 4:
        raise ValueError("expected a 4-form on R^7")
    x, scale = primitive_ray(star_euclidean(p).coefficient_vector())
    s3 = scale ** 3
    return [[s3 * v for v in row] for row in hitchin_matrix(x)]


def reference_action(m, a):
    """(m . a)(v...) = -sum_i a(v1, ..., m v_i, ..., vk), term by term."""
    n = a.dim
    out = {}
    for idx, c in a.terms.items():
        for p, i in enumerate(idx):
            for j in range(1, n + 1):
                mij = m[i - 1][j - 1]
                if mij == 0:
                    continue
                key, sign = sort_index(idx[:p] + (j,) + idx[p + 1:])
                if sign == 0:
                    continue
                acc = out.get(key, Fraction(0)) - c * Fraction(mij) * sign
                if acc == 0:
                    out.pop(key, None)
                else:
                    out[key] = acc
    return KForm(n, a.degree, out)


def reference_charpoly(a):
    """Coefficients [c_0, ..., c_n] of det(xI - a), lowest degree first.

    Berkowitz: bordering the leading r x r block A by the row R, the column
    C and the corner a_rr multiplies its characteristic polynomial by the
    lower-triangular Toeplitz matrix with first column 1, -a_rr, -R C,
    -R A C, ..., -R A^(r-1) C.
    """
    n = len(a)
    poly = [1]  # of the leading r x r block, highest degree first
    for r in range(n):
        block = [row[:r] for row in a[:r]]
        border = a[r][:r]
        col = [row[r] for row in a[:r]]
        toeplitz = [1, -a[r][r]]
        for k in range(r):
            if k:
                col = mat_vec(block, col)
            toeplitz.append(-sum(x * y for x, y in zip(border, col)))
        poly = [sum(toeplitz[i - j] * poly[j] for j in range(min(i, r) + 1))
                for i in range(r + 2)]
    return poly[::-1]


def sign_charpoly(a, b):
    """Coefficients of (x + 1)^a (x - 1)^b, lowest degree first, as
    `linalg.charpoly` lists them."""
    poly = [1]
    for root in (-1,) * a + (1,) * b:
        poly = [x - root * y for x, y in zip([0] + poly, poly + [0])]
    return poly


def _leibniz_det(rows):
    """det by the permutation expansion: an independent integer reference."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def commutator(a, b):
    """[a, b] = ab - ba of two dense matrices."""
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def span_basis(vectors):
    """Echelonized basis of the span of the given vectors."""
    if not vectors:
        return []
    r, pivots = rref(mat(vectors))
    return r[:len(pivots)]


def bracket(alg, x, y):
    """Coordinates of [x, y] for x, y given in the coordinates of `alg`:
    sum over i, j of x_i y_j c_ij, on the Fraction structure constants."""
    struct = alg.structure_constants()
    out = [ZERO] * alg.dim
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in ys:
            s = xi * yj
            for k, c in enumerate(struct[i][j]):
                if c:
                    out[k] += s * c
    return out


def check_jacobi(alg, struct=None):
    """Exact Jacobi identity of the structure constants on all triples.

    Every matrix commutator satisfies Jacobi, so the check is made on the
    extracted constants, where it tests the coordinate extraction.
    `struct` is the table checked, alg's own by default.
    """
    if struct is None:
        struct = alg.structure_constants()

    def ad(x, k):
        # [x, b_k] on the table that structure_constants() returns
        out = [0] * alg.dim
        for i, xi in enumerate(x):
            if xi:
                for l, c in enumerate(struct[i][k]):
                    out[l] += xi * c
        return out

    for i, j, k in combinations(range(alg.dim), 3):
        s = [a + b + c for a, b, c in zip(ad(struct[i][j], k),
                                          ad(struct[j][k], i),
                                          ad(struct[k][i], j))]
        if any(s):
            raise AssertionError(
                f"{alg.name}: Jacobi fails on triple {i},{j},{k}")
    return True


def cartan_3form(m):
    """The 3-form <X, [Y, Z]> on V, in the V-basis of the module m.

    On a bare complex this is the Cartan 3-form of the algebra; on a
    reductive complement it is the restriction of the ambient one, where only
    the V-part of [Y, Z] pairs with X because V is orthogonal to h.
    """
    n = m.dimV
    items = []
    for i, j, k in combinations(range(n), 3):
        c = m.brackets[(j, k)]
        v = sum((m.gram[i][l] * c[l] for l in range(n) if c[l]), Fraction(0))
        if v != 0:
            items.append(((i + 1, j + 1, k + 1), v))
    return KForm.make(n, 3, items)


def coeff(a, *idx):
    """a(e_i1, ..., e_ik) for an index tuple in any order."""
    key, sign = sort_index(idx)
    if sign == 0:
        return ZERO
    return sign * a.terms.get(key, ZERO)


def dense_d1(m):
    """dim of the vectors fixed by the module's action and generators: the
    joint null space of every action matrix A and every F - 1."""
    kill = list(m.action)
    for _, f in m.generators:
        kill.append(mat_sub(mat(f), identity(m.dimV)))
    return len(intersect_nullspaces(kill)) if kill else m.dimV


def dense_kernel_dim(m):
    """dim of {X in h : ad(X)|V = 0}, the null space of the flattened
    action matrices taken as columns."""
    if not m.action:
        return 0
    cols = [[x for row in a for x in row] for a in m.action]
    return len(nullspace(transpose(mat(cols))))


def _conjugated_generators(n):
    """Rational rotations (3/5, 4/5) in two coordinate planes and a signed
    swap, conjugated by a rational triangular P: denominators in every
    generator, and a nonzero fixed space."""
    p = [[Fraction(1) if i == j else Fraction(1, 2 + i + j) if i < j
          else Fraction(0) for j in range(n)] for i in range(n)]
    pinv = inverse(p)
    rot = identity(n)
    rot[0][0] = rot[1][1] = Fraction(3, 5)
    rot[0][1], rot[1][0] = Fraction(-4, 5), Fraction(4, 5)
    swap = identity(n)
    swap[n - 2][n - 2] = swap[n - 1][n - 1] = Fraction(0)
    swap[n - 2][n - 1], swap[n - 1][n - 2] = Fraction(1), Fraction(-1)
    return [mat_mul(mat_mul(p, f), pinv) for f in (rot, swap)], p, pinv


def _kform_reference(m, k):
    """The invariant k-forms from Fraction systems built one basis k-form
    at a time with `reference_action` and `pullback`."""
    n = m.dimV
    if k == 0:
        return [KForm.make(n, 0, [((), 1)])]
    idxs = list(combinations(range(1, n + 1), k))

    def matrix(op, f):
        return transpose([op(f, KForm.basis(n, *idx)).coefficient_vector()
                          for idx in idxs])

    mats = [matrix(reference_action, a) for a in m.action]
    mats += [mat_sub(matrix(pullback, f), identity(len(idxs)))
             for _, f in m.generators]
    if not mats:
        return [KForm.basis(n, *idx) for idx in idxs]
    return [KForm.from_coefficient_vector(n, k, v)
            for v in intersect_nullspaces(mats)]


def reference_diffs(m):
    """diffs[k], the matrix of d from the invariant k-forms of m to the
    (k+1)-forms, by one `solve` per degree; an AssertionError when d of a
    basis form has no coordinates there."""
    n = m.dimV
    bases = [invariant_kforms(m, k) for k in range(n + 1)]
    diffs = []
    for k, src in enumerate(bases):
        tgt = bases[k + 1] if k < n else []
        images = [ce_differential(m, f).coefficient_vector() for f in src]
        if not tgt:
            assert not any(x for v in images for x in v)
            diffs.append([])
            continue
        cols = solve(transpose(mat([f.coefficient_vector() for f in tgt])),
                     images)
        assert cols is not None
        diffs.append([[col[i] for col in cols] for i in range(len(tgt))])
    return diffs


def dual_coefficients(b, x):
    """(det b, adj b, Q) for the integer Hitchin matrix b of the integer
    3-form x; (0, None, None) when b is singular.

    adj b is one integer `adjugate`, and Q = star_euclidean(pullback(adj b,
    x)) as an integer 35-vector: the pullback has coefficient
    sum_I x_I det adj[I, J] on e^J, the `minors` of adj b weighed by x, and
    the star puts it, times the sign of (J, comp J), on e^(comp J), which
    sits at position 34 - pos J: complementing reverses the lexicographic
    order.
    """
    detb, adj = adjugate(b)
    if detb == 0:
        return 0, None, None
    weights = {I: xi for I, xi in zip(combinations(range(DIM), 3), x) if xi}
    signs = [complement(J, DIM)[1] for J in IDX3]
    return detb, adj, [s * t for s, t in
                       zip(signs, minors(adj, weights, 3))][::-1]


def cofactor_adjugate(b):
    """adj b = ((-1)^(i+j) det b without row j and column i)_ij, singular b
    included."""
    n = len(b)
    return [[(-1) ** (i + j) * det([[v for c, v in enumerate(row) if c != i]
                                     for r, row in enumerate(b) if r != j])
             for j in range(n)] for i in range(n)]


def _two_form_of_matrix(a):
    """2-form alpha(u, v) = <A u, v> for the identity metric."""
    items = []
    for i in range(1, 8):
        for j in range(i + 1, 8):
            c = a[j - 1][i - 1]  # alpha(e_i, e_j) = (A e_i)_j
            if c != 0:
                items.append(((i, j), c))
    return KForm.make(7, 2, items)


def classify3(t: KForm) -> Orbit3Class:
    """Orbit class of a 3-form on R^7 (exact)."""
    if t.dim != DIM or t.degree != 3:
        raise ValueError("expected a 3-form on R^7")
    return classify_coeffs(t.coefficient_vector())


def stabilizer_class(t: KForm) -> Orbit3Class:
    """Orbit class of a 3-form on R^7 read off its stabilizer, not off B.

    t is stable exactly when its GL(7) orbit is open, that is when its
    stabilizer algebra {A : A . t = 0} has dimension 49 - 35 = 14; it is
    then compact g2 (the definite class) or split g2 (the indefinite one),
    told apart by the signature of the trace form tr(XY) on R^7: (0, 14)
    for compact g2, (8, 6) for split g2, negative on its su(2) + su(2).
    """
    basis = annihilator_of_form(t)
    assert len(basis) >= 14, "an orbit of dimension above 35"
    if len(basis) > 14:
        return Orbit3Class.DEGENERATE
    # each X cleared to integers by a positive factor, which keeps the
    # signature; tr(XY) = sum X_ij Y_ji over the nonzero X_ij
    mats = [cleared(x)[0] for x in basis]
    entries = [[(i, j, v) for i, row in enumerate(x) for j, v in enumerate(row)
                if v] for x in mats]
    gram = [[sum(v * y[j][i] for i, j, v in xe) for y in mats]
            for xe in entries]
    return {(0, 14): Orbit3Class.DEFINITE,
            (8, 6): Orbit3Class.INDEFINITE}[inertia(gram)[:2]]


def _rational_form(n):
    """A definite rational form with denominators everywhere."""
    return [[Fraction(i + 2) if i == j else Fraction(1, i + j + 2)
             for j in range(n)] for i in range(n)]


def _block_sum(a, b):
    n, m = len(a), len(b)
    return ([list(row) + [Fraction(0)] * m for row in a]
            + [[Fraction(0)] * n + list(row) for row in b])


def _so_form_actions():
    """(label, action, gram): the so(n; D) realization on R^n for a
    rational D, scaled copies, and reducible sums with commutants of
    dimension > 1."""
    out = []
    for n in (3, 4, 5):
        d = _rational_form(n)
        basis = orthogonal_algebra_of_form(d).basis
        out.append((f"so({n};form)", basis, d))
        scales = [Fraction(3 * k + 2, 7 - k % 5) for k in range(len(basis))]
        out.append((f"so({n};form) scaled",
                    [[[c * x for x in row] for row in a]
                     for c, a in zip(scales, basis)],
                    [[Fraction(5, 3) * x for x in row] for row in d]))
    d = _rational_form(3)
    basis = orthogonal_algebra_of_form(d).basis
    zero = [[Fraction(0)] * 2 for _ in range(2)]
    out.append(("3+3", [_block_sum(a, a) for a in basis],
                _block_sum(d, [[2 * x for x in row] for row in d])))
    out.append(("3+1+1", [_block_sum(a, zero) for a in basis],
                _block_sum(d, [[Fraction(1, 2), Fraction(1, 3)],
                               [Fraction(1, 3), Fraction(1)]])))
    return out


SO_FORM_ACTIONS = _so_form_actions()
