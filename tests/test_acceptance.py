"""Acceptance suite: one numbered criterion per test, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Everything asserts at the stated tolerance: zero for the exact-arithmetic
criteria, 1e-9 relative for the Hodge-star-dependent ones.

Criterion 7 carries published values (chain 3/5/16/21/14, family 19) that
the exact computation refutes; `test_criterion_07_published_values` asserts
them as stated and is marked as an expected failure with the analysis in its
reason string, while `test_criterion_07_rank_chain` verifies the exact chain
(3/9/12/17/18, family 23) against the independent product-cohomology oracle.
"""

import random
from fractions import Fraction

import pytest

from g2forms import section5
from g2forms.catalog import (_sign_spectrum, build_entry, candidate_module,
                             compute_su3_in_g2,
                             generator_compatibility_report, load_catalog,
                             verify_entry)
from g2forms.homogeneous import (bare_complex, build_complex,
                                 nearly_parallel_check, nearly_parallel_rays,
                                 pencil_certificate)
from g2forms.isotropy import invariant_3forms, invariant_dims, irreducible_dims
from g2forms.linalg import charpoly, det, identity, mat, mat_mul, rank
from g2forms.multilinear import (KForm, algebra_action, interior,
                                 pullback, wedge)
from g2forms.octonion import (UnitQuaternion, chi_embedding, is_automorphism,
                              octonion_algebra)
from g2forms.stable_forms import (PHI, PHITILDE, Orbit3Class,
                                  annihilator_g2, annihilator_of_form,
                                  classify3, decompose2, decompose3)
from g2forms.scan import ScanConfig
from references import check_jacobi, sign_charpoly

w = KForm.basis
DEFAULT_SCAN = ScanConfig()


def report(num, ok, text):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_reference_classification():
    ok = (classify3(PHI) is Orbit3Class.DEFINITE
          and classify3(PHITILDE) is Orbit3Class.INDEFINITE
          and classify3(PHI + PHITILDE) is Orbit3Class.DEGENERATE
          and PHI + PHITILDE == 2 * w(7, 1, 2, 3))
    report(1, ok, "reference forms classify definite/indefinite/degenerate "
                  "(exact)")


def test_criterion_02_stabilizer_dimensions():
    g2 = annihilator_g2()
    g2t = annihilator_of_form(PHITILDE)
    in_so7 = all(a[i][j] == -a[j][i] for a in g2
                 for i in range(7) for j in range(7))
    su3 = compute_su3_in_g2()
    ok = len(g2) == 14 and len(g2t) == 14 and in_so7 and len(su3) == 8
    report(2, ok, f"stabilizer dims 14/14, annihilator inside so(7), "
                  f"block intersection dim {len(su3)} (exact)")


def test_criterion_03_module_decompositions():
    from itertools import combinations

    two = [decompose2(w(7, i, j))
           for i in range(1, 8) for j in range(i + 1, 8)]
    d14 = rank([p14.coefficient_vector() for p14, _ in two])
    d7 = rank([p7.coefficient_vector() for _, p7 in two])
    three = [decompose3(w(7, *idx)) for idx in combinations(range(1, 8), 3)]
    r1 = rank([a.coefficient_vector() for a, _, _ in three])
    r7 = rank([b.coefficient_vector() for _, b, _ in three])
    r27 = rank([c.coefficient_vector() for _, _, c in three])
    idem = True
    equiv = True
    gens = annihilator_g2()[:4]
    rng = random.Random(0)
    for _ in range(6):
        f2 = KForm.make(7, 2, [(tuple(rng.sample(range(1, 8), 2)),
                                Fraction(rng.randint(-3, 3))) for _ in range(4)])
        p14, p7 = decompose2(f2)
        q14, q7 = decompose2(p14)
        idem &= (q14 == p14 and q7.is_zero())
        a = gens[rng.randrange(4)]
        s14, s7 = decompose2(algebra_action(a, f2))
        equiv &= (s14 == algebra_action(a, p14) and s7 == algebra_action(a, p7))
        f3 = KForm.make(7, 3, [(tuple(rng.sample(range(1, 8), 3)),
                                Fraction(rng.randint(-3, 3))) for _ in range(4)])
        p1, p7b, p27 = decompose3(f3)
        t1, t7b, t27 = decompose3(algebra_action(a, f3))
        equiv &= (t1 == algebra_action(a, p1)
                  and t7b == algebra_action(a, p7b)
                  and t27 == algebra_action(a, p27))
        u1, u7, u27 = decompose3(p27)
        idem &= (u1.is_zero() and u7.is_zero() and u27 == p27)
    ok = (d14, d7, r1, r7, r27) == (14, 7, 1, 7, 27) and idem and equiv
    report(3, ok, "2-form split 14 + 7 and 3-form split 1 + 7 + 27 with "
                  "idempotent equivariant projectors (exact)")


def test_criterion_04_octonion_embedding():
    split = octonion_algebra("split")
    rng = random.Random(1)
    ok = True
    blocks = True
    for _ in range(100):
        q1 = UnitQuaternion.from_integers(*_nonzero_quad(rng))
        q2 = UnitQuaternion.from_integers(*_nonzero_quad(rng))
        c = chi_embedding(q1, q2)
        ok &= is_automorphism(split, c)
        ok &= pullback(c, PHITILDE) == PHITILDE
        blocks &= all(c[i][j] == 0 and c[j][i] == 0
                      for i in range(3) for j in range(3, 7))
    # the image is the full compact block stabilizer: blocks irreducible
    mod = section5._so4_module()
    dims = irreducible_dims(mod)
    ok = ok and blocks and dims == [3, 4]
    report(4, ok, "100 exact pairs give split-octonion automorphisms fixing "
                  "the indefinite reference; invariant blocks 3 + 4 (exact)")


def _nonzero_quad(rng):
    while True:
        q = tuple(rng.randint(-6, 6) for _ in range(4))
        if any(q):
            return q


@pytest.fixture(scope="module")
def catalog_modules():
    """Every catalog entry with its module, built once for the whole suite."""
    return [(e, build_entry(e["case"], tuple(e.get("params", ()))))
            for e in load_catalog()]


@pytest.fixture(scope="module")
def sweep_reports(catalog_modules):
    return [(e, verify_entry(e, DEFAULT_SCAN, module=mod))
            for e, mod in catalog_modules]


def test_criterion_05_table_sweep(sweep_reports):
    bad = [(r.case, r.params, [c for c in r.checks if not c["pass"]])
           for _, r in sweep_reports if not r.passed]
    pinned = {"2d": 1, "7": 1, "8-su4": 3, "8-g2xR": 3}
    d3s = {e["case"]: e["expected"]["d3"] for e, _ in sweep_reports}
    pins = all(d3s[c] == v for c, v in pinned.items())
    ok = not bad and pins
    report(5, ok, f"full table sweep at default scan resolution "
                  f"({len(sweep_reports)} entries), pinned d3 values for the "
                  f"definite-only rows" + (f"; failures: {bad}" if bad else ""))


def test_criterion_06_rigidity_extremes(catalog_modules):
    ok = True
    for _, mod in catalog_modules:
        full = invariant_dims(mod).d3 == 35
        trivial = mod.h_dim == 0 and not mod.generators
        ok &= (full == trivial)
    modules = {e["case"]: mod for e, mod in catalog_modules}
    for case in ("1", "3aiii"):
        ok &= invariant_dims(modules[case]).d3 == 2
    report(6, ok, "d3 = 35 exactly for trivial isotropy with no component "
                  "generators; d3 = 2 for the two rigid rows (exact)")


@pytest.fixture(scope="module")
def rank_chain():
    return section5.rank_chain_report()


def test_criterion_07_rank_chain(rank_chain):
    claims = {c["name"]: c for c in rank_chain["claims"]}
    exact_ok = all(c["pass"] for c in rank_chain["claims"]
                   if not c.get("published"))
    published_ok = all(c["pass"] for c in rank_chain["claims"]
                       if c.get("published"))
    line = ("exact chain (3, 9, 12, 17, 18), family 23, identical under "
            "both bracket conventions, product-formula oracle green; "
            "published values 5/14/19 do not reproduce (documented)")
    print(f"[criterion  7] {'PASS' if exact_ok else 'FAIL'}  {line}")
    if not published_ok:
        print("[criterion  7] FAIL  as-published values (5, 14, 19); see "
              "test_criterion_07_published_values for the faithful assertion")
    assert exact_ok
    assert claims["identical ranks under both su(2) conventions"]["pass"]


@pytest.mark.xfail(strict=True, reason=(
    "published chain (ker d|O^2, dim dO^3, family) = (5, 14, 19) is "
    "internally inconsistent: its own step 'ker d|O^2 = 2 + dim dO^1' uses "
    "a second Betti number of 2 where the product formula forces 6; the "
    "exact ranks are 9, 18, 23 and the full cohomology (1,4,6,5,5,6,4,1) "
    "matches the product of a 3-sphere and a 4-torus in every degree"))
def test_criterion_07_published_values(rank_chain):
    chain = rank_chain["chain"]
    assert chain[1] == 5
    assert chain[4] == 14
    assert rank_chain["kernels"][4] == 19


def test_criterion_08_nearly_parallel(catalog_modules):
    modules = {e["case"]: mod for e, mod in catalog_modules}
    ok = True
    for case in ("2d", "7"):
        mod = modules[case]
        res = nearly_parallel_check(mod, invariant_3forms(mod)[0])
        ok &= res.is_nearly_parallel and abs(res.lam) > 1e-9 \
            and res.residual <= 1e-9
    rays = nearly_parallel_rays(modules["1"])
    unique = len(rays) == 1 and rays[0]["residual"] <= 1e-9 \
        and abs(rays[0]["lambda"]) > 1e-9
    coclosed = all(pencil_certificate(modules[c]).coclosed
                   for c in ("1", "2ci", "3aiii"))
    ok = ok and unique and coclosed
    report(8, ok, "rigid rows satisfy the defining equation with nonzero "
                  "constant (residual <= 1e-9); one nearly parallel ray in "
                  "the two-parameter family; every stable ray coclosed "
                  "(exact pencil identity)")


def test_criterion_09_explicit_4form_family():
    rep = section5.example_429_report(seed=0)
    ok = all(c["pass"] for c in rep["claims"] if not c.get("published"))
    report(9, ok, "the two-parameter metric display, under the resolved "
                  "role assignment, as an exact identity of cubics in "
                  "(a/3, b); det locus exactly a(2a+3b) = 0"
           + ("" if ok else f"; claims: {rep['claims']}"))


def test_criterion_10_finite_generator_shadows():
    mod2ai = build_entry("2ai")
    d14_ok = any(name == "D14" for name, _ in mod2ai.generators)
    rep2ai = verify_entry(load_catalog()[1], ScanConfig(grid=400, random=100))
    d14_ok &= rep2ai.passed
    mod4i = build_entry("4i")
    _, vmat = mod4i.generators[0]
    triple_ok = (mat_mul(vmat, vmat) == identity(7)
                 and _sign_spectrum(vmat)
                 == [Fraction(-1)] * 4 + [Fraction(1)] * 3
                 and charpoly(vmat) == sign_charpoly(4, 3))
    mod4ii = build_entry("4ii", (0, 0))
    name, fmat, _ = mod4ii.pending_generators[0]
    cand4ii = candidate_module(mod4ii, name, fmat)
    crep = generator_compatibility_report(cand4ii,
                                          ScanConfig(grid=2000, random=500))
    swap_vmat = cand4ii.generators[-1][1]
    swap_ok = (not crep["has_indefinite"]
               and _sign_spectrum(swap_vmat)
               == [Fraction(-1)] * 3 + [Fraction(1)] * 4
               and charpoly(swap_vmat) == sign_charpoly(3, 4))
    mod8 = build_entry("8-g2xR")
    name8, fmat8, _ = mod8.pending_generators[0]
    cand8 = candidate_module(mod8, name8, fmat8)
    det_ok = det(cand8.generators[-1][1]) < 0
    ok = d14_ok and triple_ok and swap_ok and det_ok
    report(10, ok, "component-generator shadows: compatibility of the "
                   "order-two reflection, the coordinate-triple involution "
                   "pattern, swap rejection, negative determinant (exact)")


def test_criterion_11_property_suites(catalog_modules):
    # d^2 = 0 on every catalog complex plus the bare variants
    for _, mod in catalog_modules:
        build_complex(mod)
    build_complex(bare_complex(section5.su2_t4_printed_constants()))
    # closure and Jacobi on every distinct ambient algebra
    seen = {}
    for _, mod in catalog_modules:
        alg = mod.ambient
        if alg is not None and alg.name not in seen:
            seen[alg.name] = alg
    for alg in seen.values():
        alg.structure_constants()
        check_jacobi(alg)
    # orbit invariance of the classification, 200 samples per reference
    rng = random.Random(7)
    ok = True
    for t, cls in ((PHI, Orbit3Class.DEFINITE),
                   (PHITILDE, Orbit3Class.INDEFINITE),
                   (2 * w(7, 1, 2, 3), Orbit3Class.DEGENERATE)):
        for _ in range(200):
            m = _random_invertible(rng)
            ok &= classify3(pullback(m, t)) is cls
    # algebraic laws on random inputs
    for seed in range(20):
        rng2 = random.Random(seed)
        a = _sparse(rng2, 2)
        b = _sparse(rng2, 3)
        ok &= wedge(a, b) == wedge(b, a)
        c = _sparse(rng2, 2)
        v = [Fraction(rng2.randint(-3, 3)) for _ in range(7)]
        ok &= interior(v, wedge(a, c)) == \
            wedge(interior(v, a), c) + wedge(a, interior(v, c))
    report(11, ok, "d^2 = 0 on all complexes, Jacobi/closure exact on all "
                   "ambient algebras, classification constant on 200 orbit "
                   "samples per reference, exterior-algebra laws hold")


def _random_invertible(rng):
    while True:
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(7)]
             for _ in range(7)]
        if det(mat(m)) != 0:
            return m


def _sparse(rng, degree):
    return KForm.make(7, degree,
                      [(tuple(rng.sample(range(1, 8), degree)),
                        Fraction(rng.randint(-4, 4))) for _ in range(4)])
