import random
from fractions import Fraction
from itertools import combinations

import pytest

from g2forms.linalg import (charpoly, det, inverse, mat, mat_mul, nullspace,
                            rank, transpose)
from g2forms.multilinear import (KForm, _moves, algebra_action, basis_vector,
                                 interior, pullback, sort_index, wedge)
from g2forms.stable_forms import (PHI, PHITILDE, PSI4, Orbit3Class,
                                  annihilator_g2, annihilator_of_form,
                                  classification_report,
                                  classify3,
                                  decompose2, decompose3, dual_ray,
                                  hitchin_bilinear, hitchin_matrix,
                                  hodge_star, metric_from_3form,
                                  primitive_int_vector, star_euclidean,
                                  traceless_to_27)
from g2forms.scan import family_hitchin_map
from references import (coeff, metric_from_4form, reference_action,
                        reference_hitchin_matrix)

w = KForm.basis


def rand_invertible(seed):
    rng = random.Random(seed)
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(7)]
             for _ in range(7)]
        if det(mat(m)) != 0:
            return m


# --- reference data ---------------------------------------------------------

def test_reference_relation():
    assert PHI + PHITILDE == 2 * w(7, 1, 2, 3)


def test_hitchin_reference_values():
    d = hitchin_bilinear(PHI)
    assert d.B == [[Fraction(6) if i == j else Fraction(0) for j in range(7)]
                   for i in range(7)]
    assert d.detB == Fraction(6 ** 7)
    assert d.signature == (7, 0)
    dt = hitchin_bilinear(PHITILDE)
    diag = [6, 6, 6, -6, -6, -6, -6]
    assert dt.B == [[Fraction(diag[i]) if i == j else Fraction(0)
                     for j in range(7)] for i in range(7)]
    assert dt.signature == (3, 4)


def test_hitchin_independent_oracle():
    # brute-force B through wedge products, independent of the table path
    for t in (PHI, PHITILDE):
        data = hitchin_bilinear(t)
        for i in range(1, 8):
            for j in range(i, 8):
                prod = wedge(wedge(interior(basis_vector(7, i), t),
                                   interior(basis_vector(7, j), t)), t)
                c = prod.terms.get((1, 2, 3, 4, 5, 6, 7), Fraction(0))
                assert data.B[i - 1][j - 1] == c


def test_hitchin_matrix_matches_the_contraction_table():
    # the three-step evaluation against the old 2,940-term table, on the
    # zero vector, every single term, 7-term sparse and ~500-bit dense
    rng = random.Random(31)
    vecs = [[0] * 35]
    for p in range(35):
        v = [0] * 35
        v[p] = rng.choice((-3, -1, 1, 2))
        vecs.append(v)
    for _ in range(20):
        v = [0] * 35
        for p in rng.sample(range(35), 7):
            v[p] = rng.choice((-1, 1)) * rng.randint(1, 9)
        vecs.append(v)
    vecs += [[rng.getrandbits(500) - (1 << 499) for _ in range(35)]
             for _ in range(10)]
    for v in vecs:
        b = hitchin_matrix(v)
        assert b == reference_hitchin_matrix(v)
        assert all(type(x) is int for row in b for x in row)


def test_hitchin_zero_and_shapes():
    assert all(x == 0 for row in hitchin_bilinear(w(7, 1, 2, 3)).B
               for x in row)
    with pytest.raises(ValueError):
        hitchin_bilinear(w(7, 1, 2))


def test_hitchin_covariance():
    # B(M* t) = det(M) M^T B(t) M, tested rather than assumed
    t = PHI
    for seed in range(5):
        m = rand_invertible(seed)
        lhs = hitchin_bilinear(pullback(m, t)).B
        d = det(mat(m))
        rhs = mat_mul(transpose(mat(m)), mat_mul(hitchin_bilinear(t).B, mat(m)))
        rhs = [[d * x for x in row] for row in rhs]
        assert lhs == rhs


def test_classification_of_references():
    assert classify3(PHI) is Orbit3Class.DEFINITE
    assert classify3(PHITILDE) is Orbit3Class.INDEFINITE
    assert classify3(PHI + PHITILDE) is Orbit3Class.DEGENERATE
    assert classify3(KForm.zero(7, 3)) is Orbit3Class.DEGENERATE


@pytest.mark.parametrize("seed", range(25))
def test_classification_orbit_invariance(seed):
    m = rand_invertible(seed)
    for t, cls in ((PHI, Orbit3Class.DEFINITE),
                   (PHITILDE, Orbit3Class.INDEFINITE),
                   (2 * w(7, 1, 2, 3), Orbit3Class.DEGENERATE)):
        assert classify3(pullback(m, t)) is cls


def test_classification_negation_invariance():
    for t in (PHI, PHITILDE):
        assert classify3(-1 * t) is classify3(t)


# --- metric and star ---------------------------------------------------------

def test_metric_of_definite_reference():
    g, vol = metric_from_3form(PHI)
    for i in range(7):
        for j in range(7):
            assert abs(g[i][j] - (1.0 if i == j else 0.0)) < 1e-12
    assert abs(vol - 1.0) < 1e-12


def test_metric_of_indefinite_reference():
    g, vol = metric_from_3form(PHITILDE)
    expected = [1, 1, 1, -1, -1, -1, -1]
    for i in range(7):
        for j in range(7):
            want = float(expected[i]) if i == j else 0.0
            assert abs(g[i][j] - want) < 1e-10
    assert abs(vol - 1.0) < 1e-10


@pytest.mark.parametrize("s", [4, 9])
def test_metric_scaling(s):
    g, _ = metric_from_3form(s * PHI)
    expect = float(s) ** (2.0 / 3.0)
    for i in range(7):
        assert abs(g[i][i] - expect) < 1e-9 * expect


def _unimodular(rng):
    # a GL(7, Z) element: random elementary row operations and sign flips
    m = [[1 if i == j else 0 for j in range(7)] for i in range(7)]
    for _ in range(8):
        i, j = rng.sample(range(7), 2)
        c = rng.choice((-1, 1))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    k = rng.randrange(7)
    m[k] = [-x for x in m[k]]
    return m


def _descartes_signature(b):
    """(p, q) by Descartes' rule of signs on charpoly(b): a reference for
    the signature apart from the elimination under `hitchin_bilinear`."""
    def changes(seq):
        signs = [x > 0 for x in seq if x != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    cs = charpoly(b)
    return changes(cs), changes([-c if k % 2 else c for k, c in enumerate(cs)])


def test_det_sign_matches_the_descartes_signature():
    # the metric takes its sign from det B; Descartes' rule is the reference
    rng = random.Random(11)
    checked = set()
    for ref in (PHI, -1 * PHI, PHITILDE, -1 * PHITILDE):
        forms = [ref] + [pullback(_unimodular(rng), ref) for _ in range(50)]
        for t in forms:
            # a positive rescaling to integers keeps det B's sign and B's
            # signature
            b = hitchin_matrix(primitive_int_vector(t.coefficient_vector()))
            detb, signature = det(b), _descartes_signature(b)
            assert detb != 0
            assert (detb < 0) == (signature in ((0, 7), (4, 3)))
            checked.add(signature)
    assert checked == {(7, 0), (0, 7), (4, 3), (3, 4)}


def test_metric_degenerate_raises():
    with pytest.raises(ValueError):
        metric_from_3form(w(7, 1, 2, 3))


def test_star_unit_and_involution():
    one = KForm.make(7, 0, [((), 1)])
    s = hodge_star(one, PHI)
    assert abs(s[0] - 1.0) < 1e-12  # the only 7-subset is (1, ..., 7)
    a = w(7, 1, 2)
    back = _star_float(hodge_star(a, PHI), 5, PHI)
    want = a.coefficient_vector()
    assert max(abs(float(x) - float(y)) for x, y in zip(back, want)) < 1e-9


def _star_float(f, degree, t):
    # star of a float form: rebuild through the same public entry point by
    # rounding coefficients to exact rationals (safe well inside the orbit)
    coeffs = [Fraction(round(c * 10 ** 12), 10 ** 12) for c in f]
    return hodge_star(KForm.from_coefficient_vector(7, degree, coeffs), t)


def test_star_of_reference_matches_exact_dual():
    st = hodge_star(PHI, PHI)
    exact = star_euclidean(PHI)
    for pos, idx in enumerate(combinations(range(1, 8), 4)):
        got = st[pos]
        want = float(exact.terms.get(idx, Fraction(0)))
        assert abs(got - want) < 1e-9


def test_star_matches_the_minor_by_minor_formula():
    # reference: star(e^I) = vol sum_J det(ginv[I, J]) eps(J, J^c) e^{J^c},
    # one determinant per minor, accumulated in a dict
    import numpy as np

    rng = random.Random(5)
    for t in (pullback(rand_invertible(1), PHI),
              pullback(rand_invertible(2), PHITILDE)):
        g, vol = metric_from_3form(t)
        ginv = np.linalg.inv(g)
        for k in range(8):
            a = KForm.make(7, k, [(idx, rng.randint(-3, 3))
                                  for idx in combinations(range(1, 8), k)])
            want = {}
            for idx, c in a.terms.items():
                for jdx in combinations(range(1, 8), k):
                    rows, cols = [i - 1 for i in idx], [j - 1 for j in jdx]
                    minor = np.linalg.det(ginv[np.ix_(rows, cols)]) if k else 1.0
                    comp = tuple(sorted(set(range(1, 8)) - set(jdx)))
                    _, s = sort_index(jdx + comp)
                    want[comp] = want.get(comp, 0.0) + float(c) * minor * s * vol
            got = hodge_star(a, t)
            scale = max([1.0] + [abs(v) for v in want.values()])
            for pos, comp in enumerate(combinations(range(1, 8), 7 - k)):
                assert abs(got[pos] - want.get(comp, 0.0)) < 1e-12 * scale


@pytest.mark.parametrize("ref", [PHI, PHITILDE])
def test_dual_ray_is_a_positive_multiple_of_the_float_star(ref):
    import numpy as np

    rng = random.Random(17)
    for _ in range(5):
        t = pullback(_unimodular(rng), ref)
        for c in (1, Fraction(-3, 7), Fraction(10 ** 15 + 1, 10 ** 15),
                  Fraction(-2, 10 ** 15 - 1)):
            ct = c * t
            dual = np.array(dual_ray(ct).coefficient_vector(), dtype=float)
            st = hodge_star(ct, ct)
            lam = dual @ st / (dual @ dual)
            assert lam > 0
            assert np.linalg.norm(st - lam * dual) <= 1e-9 * np.linalg.norm(st)


def test_dual_ray_matches_the_kform_route():
    # Q = star_euclidean(pullback(M, t)), M the primitive integer matrix on
    # the ray of adj B, with the KForm pullback kept here as the reference
    rng = random.Random(23)
    forms = [PHI, PHITILDE, Fraction(-2, 7) * PHITILDE]
    while len(forms) < 12:
        forms.append(KForm.make(7, 3, [
            (tuple(rng.sample(range(1, 8), 3)),
             Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            for _ in range(rng.randint(10, 25))]))
    stable = 0
    for t in forms:
        b = mat(hitchin_matrix(t.coefficient_vector()))
        if det(b) == 0:
            assert dual_ray(t) is None
            continue
        stable += 1
        content = primitive_int_vector(sum(inverse(b), []))
        m = [content[i:i + 7] for i in range(0, 49, 7)]
        if det(b) < 0:
            m = [[-x for x in row] for row in m]
        assert dual_ray(t) == star_euclidean(pullback(m, t))
    assert stable >= 8


def test_dual_ray_of_a_degenerate_form_is_none():
    assert dual_ray(w(7, 1, 2, 3)) is None
    assert dual_ray(KForm.zero(7, 3)) is None
    assert dual_ray(w(7, 1, 2, 3) + w(7, 1, 4, 5) + w(7, 1, 6, 7)) is None


def test_exact_dual_reference_value():
    # brute-force complement-and-sign star; the annihilator fixes the result
    expected = KForm.make(7, 4, [
        ((4, 5, 6, 7), 1), ((2, 3, 6, 7), 1), ((2, 3, 4, 5), 1),
        ((1, 3, 5, 7), 1), ((1, 3, 4, 6), -1), ((1, 2, 5, 6), -1),
        ((1, 2, 4, 7), -1)])
    assert PSI4 == expected
    for a in annihilator_g2():
        assert algebra_action(a, PSI4).is_zero()


def test_star_euclidean_is_involution_on_basis():
    # ** = (-1)^(k (7 - k)) = 1 on k-forms in dimension 7: all 128 basis forms
    for k in range(8):
        for idx in combinations(range(1, 8), k):
            f = w(7, *idx)
            assert star_euclidean(star_euclidean(f)) == f


# --- 4-form metric -----------------------------------------------------------

def test_metric_from_4form_top_block_degenerate():
    g = metric_from_4form(w(7, 4, 5, 6, 7))
    assert all(x == 0 for row in g for x in row)
    with pytest.raises(ValueError):
        metric_from_4form(w(7, 1, 2, 3))


def test_metric_from_4form_dual_reference():
    g = metric_from_4form(PSI4)
    assert g == [[Fraction(6) if i == j else Fraction(0)
                  for j in range(7)] for i in range(7)]
    assert det(g) == Fraction(6 ** 7)


@pytest.mark.parametrize("s", [2, Fraction(1, 3)])
def test_metric_from_4form_cubic_homogeneity(s):
    p = PSI4 + Fraction(1, 2) * w(7, 4, 5, 6, 7)
    a = metric_from_4form(p)
    b = metric_from_4form(Fraction(s) * p)
    assert b == [[Fraction(s) ** 3 * x for x in row] for row in a]
    assert det(b) == Fraction(s) ** 21 * det(a)


def _bivector_metric_cubics():
    """gdual(p) by the bivector formula, as integer cubics in p.

    gdual(X*, Y*) = <P_X ^ P_Y, p> with iota_{P_X} vol = X* ^ p: the term
    p_L e^L of p puts sign(i L) sign(K, T) p_L on the bivector index K, the
    complement of T = sort(i L), of P_{e_i}.  Returns (i, j) ->
    {sorted triple of 4-indices: coefficient}, for i <= j, 0-based.
    """
    full = set(range(1, 8))
    bivectors = []
    for i in range(1, 8):
        biv = {}
        for L in combinations(range(1, 8), 4):
            T, s1 = sort_index((i,) + L)
            if s1:
                K = tuple(sorted(full - set(T)))
                biv[K] = (L, s1 * sort_index(K + T)[1])
        bivectors.append(biv)
    table = {}
    for i in range(7):
        for j in range(i, 7):
            cell = {}
            for K, (L, c) in bivectors[i].items():
                for K2, (L2, c2) in bivectors[j].items():
                    key, s = sort_index(K + K2)
                    if s:
                        mono = tuple(sorted((L, L2, key)))
                        cell[mono] = cell.get(mono, 0) + c * c2 * s
            table[i, j] = {m: v for m, v in cell.items() if v}
    return table


def test_metric_from_4form_is_the_hitchin_matrix_of_the_dual():
    # gdual(p) = hitchin_matrix(star_euclidean(p)) as polynomials: the
    # Hitchin cubics (the family map of the 35 unit vectors), read through
    # the signed permutation t_I = sign p_(comp I) of star_euclidean, have
    # the bivector formula's cubic coefficients in every cell
    dual = []
    for I in combinations(range(1, 8), 3):
        L = tuple(sorted(set(range(1, 8)) - set(I)))
        (sign,) = star_euclidean(w(7, *L)).terms.values()
        assert star_euclidean(w(7, *L)).terms == {I: sign}
        dual.append((L, sign))
    reference = _bivector_metric_cubics()
    hitchin = family_hitchin_map([[int(a == b) for b in range(35)]
                                  for a in range(35)])
    assert len(hitchin.cells) == 28
    cells = {}
    for a, b, c, terms in hitchin.monomials:
        (la, sa), (lb, sb), (lc, sc) = dual[a], dual[b], dual[c]
        mono = tuple(sorted((la, lb, lc)))
        for e, v in terms:
            cell = cells.setdefault(hitchin.cells[e], {})
            cell[mono] = cell.get(mono, 0) + v * sa * sb * sc
    for ij, cubic in reference.items():
        assert {m: v for m, v in cells.get(ij, {}).items() if v} == cubic
    assert set(cells) <= set(reference)
    assert sum(map(len, reference.values())) > 0
    # and `metric_from_4form` evaluates those cubics, on rational forms too
    rng = random.Random(29)
    for p in (PSI4, Fraction(5, 3) * PSI4 - w(7, 4, 5, 6, 7),
              *(KForm.make(7, 4, [(L, Fraction(rng.randint(-9, 9),
                                               rng.randint(1, 5)))
                                  for L in combinations(range(1, 8), 4)])
                for _ in range(2))):
        got = metric_from_4form(p)
        for (i, j), cubic in reference.items():
            want = sum(c * coeff(p, *a) * coeff(p, *b) * coeff(p, *d)
                       for (a, b, d), c in cubic.items())
            assert got[i][j] == got[j][i] == want


# --- module decompositions ---------------------------------------------------

def test_annihilator_dimension_and_ambient():
    g2 = annihilator_g2()
    assert len(g2) == 14
    for a in g2:
        assert all(a[i][j] == -a[j][i] for i in range(7) for j in range(7))
        assert algebra_action(a, PHI).is_zero()


def _annihilator_reference(*forms):
    """The annihilator by `reference_action` on the n^2 unit matrices."""
    n = forms[0].dim
    rows = []
    for t in forms:
        cols = []
        for r in range(n):
            for c in range(n):
                unit = [[Fraction(int((i, j) == (r, c))) for j in range(n)]
                        for i in range(n)]
                cols.append(reference_action(unit, t).coefficient_vector())
        rows.extend(transpose(cols))
    return [[[v[n * r + c] for c in range(n)] for r in range(n)]
            for v in nullspace(rows)]


def _seeded_3form(seed):
    rng = random.Random(seed)
    return KForm.make(7, 3, [(idx, Fraction(rng.randint(-9, 9),
                                            rng.randint(1, 6)))
                             for idx in rng.sample(
                                 list(combinations(range(1, 8), 3)), 12)])


@pytest.mark.parametrize("forms,dim", [
    ((PHI,), 14), ((PHITILDE,), 14), ((PHI, PHITILDE), 6),
    ((_seeded_3form(23),), 15)], ids=["PHI", "PHITILDE", "pair", "seeded"])
def test_annihilator_matches_the_algebra_action_reference(forms, dim):
    basis = annihilator_of_form(*forms)
    assert basis == _annihilator_reference(*forms)
    assert all(type(x) is Fraction for a in basis for row in a for x in row)
    assert len(basis) == dim
    for a in basis:
        assert all(algebra_action(a, t).is_zero() for t in forms)


def test_constant_tables_are_built_once():
    from g2forms import stable_forms

    for build in (stable_forms._hitchin_tables, annihilator_g2,
                  stable_forms._decomp2_setup, stable_forms._decomp3_setup,
                  lambda: _moves(7, 3)):
        assert build() is build()


def test_decompose2_dims_and_projector():
    zero2 = KForm.zero(7, 2)
    assert decompose2(zero2) == (zero2, zero2)
    seen14, seen7 = [], []
    for i in range(1, 8):
        for j in range(i + 1, 8):
            p14, p7 = decompose2(w(7, i, j))
            assert p14 + p7 == w(7, i, j)
            seen14.append(p14.coefficient_vector())
            seen7.append(p7.coefficient_vector())
    assert rank(seen14) == 14
    assert rank(seen7) == 7
    # idempotence: decomposing a part returns itself
    p14, p7 = decompose2(w(7, 1, 2))
    again14, zero = decompose2(p14)
    assert again14 == p14 and zero.is_zero()


def test_decompose2_vector_contractions_are_pure_7():
    for i in range(1, 8):
        p14, p7 = decompose2(interior(basis_vector(7, i), PHI))
        assert p14.is_zero()
        assert p7 == interior(basis_vector(7, i), PHI)


def test_decompose2_equivariance():
    a = annihilator_g2()[3]
    f = w(7, 2, 5)
    p14, p7 = decompose2(f)
    q14, q7 = decompose2(algebra_action(a, f))
    assert q14 == algebra_action(a, p14)
    assert q7 == algebra_action(a, p7)


def test_decompose3_dims_and_reference():
    p1, p7, p27 = decompose3(PHI)
    assert p1 == PHI and p7.is_zero() and p27.is_zero()
    seen1, seen7, seen27 = [], [], []
    for idx in combinations(range(1, 8), 3):
        a, b, c = decompose3(w(7, *idx))
        assert a + b + c == w(7, *idx)
        seen1.append(a.coefficient_vector())
        seen7.append(b.coefficient_vector())
        seen27.append(c.coefficient_vector())
    assert rank(seen1) == 1
    assert rank(seen7) == 7
    assert rank(seen27) == 27


def test_decompose3_equivariance_and_idempotence():
    a = annihilator_g2()[5]
    f = w(7, 1, 4, 6)
    p1, p7, p27 = decompose3(f)
    q1, q7, q27 = decompose3(algebra_action(a, f))
    assert q1 == algebra_action(a, p1)
    assert q7 == algebra_action(a, p7)
    assert q27 == algebra_action(a, p27)
    r1, r7, r27 = decompose3(p27)
    assert r1.is_zero() and r7.is_zero() and r27 == p27


def test_traceless_symmetric_lands_in_27():
    rng = random.Random(0)
    for _ in range(6):
        s = [[Fraction(rng.randint(-3, 3)) for _ in range(7)]
             for _ in range(7)]
        for i in range(7):
            for j in range(i + 1, 7):
                s[j][i] = s[i][j]
        tr = sum(s[i][i] for i in range(7))
        s[6][6] -= tr
        f = traceless_to_27(s)
        p1, p7, p27 = decompose3(f)
        assert p1.is_zero() and p7.is_zero() and p27 == f


def test_traceless_symmetric_map_injective_on_basis():
    # a full basis of traceless symmetric matrices maps to a rank-27 image
    basis = []
    for i in range(7):
        for j in range(i + 1, 7):
            s = [[Fraction(0)] * 7 for _ in range(7)]
            s[i][j] = s[j][i] = Fraction(1)
            basis.append(s)
    for i in range(6):
        s = [[Fraction(0)] * 7 for _ in range(7)]
        s[i][i] = Fraction(1)
        s[i + 1][i + 1] = Fraction(-1)
        basis.append(s)
    assert len(basis) == 27
    images = [traceless_to_27(s).coefficient_vector() for s in basis]
    assert rank(images) == 27


def test_det_gdual_degree_21_scaling():
    p = PSI4 + 2 * w(7, 4, 5, 6, 7)
    base = det(metric_from_4form(p))
    for s in (Fraction(2), Fraction(3, 2)):
        assert det(metric_from_4form(s * p)) == s ** 21 * base


@pytest.mark.parametrize("seed", range(40))
def test_fast_classifier_agrees_with_signature_route(seed):
    # the class from the one `inertia` elimination must match the class of
    # a Descartes count on charpoly(B) and Bareiss det B (`_fraction_hitchin`),
    # which run no elimination of `inertia`
    rng = random.Random(seed)
    t = KForm.make(7, 3, [(tuple(rng.sample(range(1, 8), 3)),
                           Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                          for _ in range(rng.randint(1, 8))])
    _, detb, signature, expected = _fraction_hitchin(t)
    assert (detb == 0) == (sum(signature) < 7)
    # a stable form has one of the four signatures of the two open orbits
    assert detb == 0 or signature in ((7, 0), (0, 7), (4, 3), (3, 4))
    assert classify3(t) is expected
    assert hitchin_bilinear(t).signature == signature


def test_hitchin_data_builds_b_only_when_read():
    t = Fraction(-2, 7) * PHITILDE + w(7, 1, 2, 4)
    data = hitchin_bilinear(t)
    classification_report(t)
    assert "B" not in vars(data)
    assert data.B == [[data.scale ** 3 * x for x in row] for row in data.Bx]
    assert data.B is data.B


# --- the integer Hitchin path against a Fraction reference ------------------

def _fraction_hitchin(t):
    """B from the raw Fraction coefficients, its Fraction det, the Descartes
    signature of the Fraction matrix, and the class they imply."""
    b = mat(hitchin_matrix(t.coefficient_vector()))
    detb, signature = det(b), _descartes_signature(b)
    if detb == 0:
        cls = Orbit3Class.DEGENERATE
    elif signature in ((7, 0), (0, 7)):
        cls = Orbit3Class.DEFINITE
    else:
        cls = Orbit3Class.INDEFINITE
    return b, detb, signature, cls


def _fraction_metric(t):
    """metric_from_3form's float formula applied to the Fraction-built B."""
    import math

    import numpy as np

    b = hitchin_matrix(t.coefficient_vector())
    detb = det(mat(b))
    scale = 6.0 ** (2.0 / 9.0) * float(abs(detb)) ** (1.0 / 9.0)
    g = np.array(b, dtype=float) / scale
    if detb < 0:
        g = -g
    return g, math.sqrt(abs(np.linalg.det(g)))


def _truncated_phi(k):
    # the first k terms of PHI; k = 1, 3, 5, 6 give degenerate forms whose
    # B has rank 0, 1, 2 and 4
    return KForm.make(7, 3, sorted(PHI.terms.items())[:k])


def _equivalence_forms(seed):
    """Integer, large-denominator, negative and degenerate 3-forms."""
    rng = random.Random(seed)
    forms = [KForm.zero(7, 3), w(7, 1, 2, 3)]
    for ref in (PHI, PHITILDE, *(_truncated_phi(k) for k in (1, 3, 5, 6))):
        t = pullback(_unimodular(rng), ref)
        forms.append(t)
        for den in (1, 7, 10 ** 6, 10 ** 15):
            c = Fraction(rng.randint(1, 10 ** 9), rng.randint(1, den))
            forms.append(c * t)
            forms.append(-c * t)
    for den in (1, 10 ** 6, 10 ** 15):
        for _ in range(4):
            terms = [(idx, Fraction(rng.randint(-10 ** 8, 10 ** 8),
                                    rng.randint(1, den)))
                     for idx in rng.sample(list(combinations(range(1, 8), 3)),
                                           rng.choice((4, 9, 20, 35)))]
            forms.append(KForm.make(7, 3, terms))
    return forms


@pytest.mark.parametrize("seed", range(2))
def test_hitchin_data_and_report_match_a_fraction_reference(seed):
    classes, degenerate_ranks = set(), set()
    for t in _equivalence_forms(seed):
        b, detb, signature, cls = _fraction_hitchin(t)
        data = hitchin_bilinear(t)
        assert data.B == b
        assert all(type(x) is Fraction for row in data.B for x in row)
        assert data.detB == detb and type(data.detB) is Fraction
        assert data.signature == signature
        assert all(type(x) is int for row in data.Bx for x in row)
        assert classification_report(t) == {
            "class": cls.value, "detB": str(detb),
            "signature": list(signature)}
        classes.add(cls)
        if cls is Orbit3Class.DEGENERATE:
            degenerate_ranks.add(rank(b))
    assert classes == set(Orbit3Class)
    assert degenerate_ranks == {0, 1, 2, 4}


def test_classification_report_runs_one_elimination(monkeypatch):
    # the class, det B and the signature all come from the one `inertia`
    # elimination, and the one charpoly of Bx only confirms the signature:
    # with det and the leading-minor chain made to raise wherever a g2forms
    # module holds them, and charpoly counted, the reports are unchanged
    import sys

    from g2forms import linalg, stable_forms

    rng = random.Random(3)
    forms = [PHI, PHITILDE, _truncated_phi(5),
             Fraction(-2, 7) * pullback(_unimodular(rng), PHITILDE)]
    reports = [classification_report(t) for t in forms]
    assert reports[:3] == [
        {"class": "definite", "detB": "279936", "signature": [7, 0]},
        {"class": "indefinite", "detB": "279936", "signature": [3, 4]},
        {"class": "degenerate", "detB": "0", "signature": [2, 0]}]
    assert reports[3]["class"] == "indefinite"

    def refused(*args):
        raise AssertionError("a second elimination ran")

    calls = []

    def counted(b):
        calls.append(b)
        return originals["charpoly"](b)

    originals = {name: getattr(linalg, name)
                 for name in ("charpoly", "det", "leading_principal_minors")}
    patched = set()
    for key, module in list(sys.modules.items()):
        if key != "g2forms" and not key.startswith("g2forms."):
            continue
        for name, original in originals.items():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name,
                                    counted if name == "charpoly" else refused)
                patched.add((key, name))
    assert ("g2forms.stable_forms", "charpoly") in patched
    # stable_forms holds no det at all, so the report cannot run one
    assert "det" not in vars(stable_forms)
    assert ("g2forms.linalg", "leading_principal_minors") in patched
    assert [classification_report(t) for t in forms] == reports
    assert len(calls) == len(forms)


def test_classification_report_raises_when_descartes_disagrees(monkeypatch):
    # the charpoly of -Bx swaps p and q, so the confirmation must fail
    from g2forms import stable_forms

    monkeypatch.setattr(stable_forms, "charpoly",
                        lambda b: charpoly([[-x for x in row] for row in b]))
    for t in (PHI, PHITILDE, _truncated_phi(5)):
        with pytest.raises(ArithmeticError):
            classification_report(t)


@pytest.mark.parametrize("den", [10 ** 6, 10 ** 15])
def test_integer_metric_is_bit_identical_to_the_fraction_metric(den):
    import math

    import numpy as np

    rng = random.Random(den)
    f1 = pullback(_unimodular(rng), PHI)
    f2 = pullback(_unimodular(rng), PHITILDE)
    checked = 0
    for k in range(24):
        th = math.pi * k / 24
        fa = Fraction(round(math.cos(th) * den), den)
        fb = Fraction(round(math.sin(th) * den), den)
        for t in (fa * f1 + fb * f2, fa * PHI + fb * f1, -fa * f2 + fb * PHI):
            if classify3(t) is Orbit3Class.DEGENERATE:
                continue
            g, vol = metric_from_3form(t)
            g_ref, vol_ref = _fraction_metric(t)
            assert np.array_equal(g, g_ref)
            assert vol == vol_ref
            checked += 1
    assert checked >= 60
