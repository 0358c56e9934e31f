import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from g2forms import homogeneous, section5
from g2forms.catalog import build_entry
from g2forms.homogeneous import (bare_complex, build_complex,
                                 ce_differential, coclosed_if_stable,
                                 complex_ranks, closed_stable_scan,
                                 exact_primitive, invariant_kforms,
                                 nearly_parallel_check, nearly_parallel_rays)
from g2forms.isotropy import IsotropyModule, invariant_3forms
from g2forms.liealg import build_algebra
from g2forms.linalg import (adjugate, cleared, identity, inverse, nullspace,
                            rank)
from g2forms.multilinear import KForm, pullback
from g2forms.scan import (ScanConfig, _ray_grid, family_hitchin_map,
                          isotropic_exclusion, scan_family)
from g2forms.stable_forms import (PHI, PHITILDE, Orbit3Class, classify3,
                                  classify_coeffs, hitchin_bilinear,
                                  hitchin_matrix, hodge_star, star_euclidean)
from references import cartan_3form, coeff, commutator, trace

w = KForm.basis


@pytest.fixture(scope="module")
def su2t4():
    return build_complex(bare_complex(build_algebra("su(2)+t(4)")))


@pytest.fixture(scope="module")
def t7():
    return build_complex(bare_complex(build_algebra("t(7)")))


def test_torus_complex_is_flat(t7):
    assert all(r == 0 for _, r, _ in complex_ranks(t7))
    assert t7.dims == [1, 7, 21, 35, 35, 21, 7, 1]


def test_top_degree_differential_vanishes(su2t4):
    top = su2t4.bases[7][0]
    assert ce_differential(su2t4.module, top).is_zero()


def test_closed_one_forms(su2t4):
    m = su2t4.module
    for i in range(4, 8):
        assert ce_differential(m, w(7, i)).is_zero()
    ranks = complex_ranks(su2t4)
    assert ranks[1] == (7, 3, 4)


def test_cartan_3form_closed_and_alternating():
    for name in ("su(2)", "su(3)"):
        alg = build_algebra(name)
        mod = bare_complex(alg)
        om = cartan_3form(mod)
        assert not om.is_zero()
        comp = build_complex(bare_complex(alg)) if alg.dim <= 8 else None
        assert ce_differential(mod, om).is_zero()
    t4 = build_algebra("t(4)")
    assert cartan_3form(bare_complex(t4)).is_zero()


def test_su2_cartan_is_volume_multiple():
    om = cartan_3form(bare_complex(build_algebra("su(2)")))
    assert list(om.terms) == [(1, 2, 3)]


def test_case1_cartan_restriction_nonzero():
    mod = build_entry("1")
    assert not cartan_3form(mod).is_zero()


def test_cartan_3form_is_the_ambient_trace_form():
    # <X, [Y, Z]> = -tr(X [Y, Z]) on the ambient matrices spanning V
    from g2forms.linalg import mat_mul

    mod = build_entry("1")
    g = mod.ambient
    vs = [[[sum(c * b[r][s] for c, b in zip(v, g.basis))
            for s in range(g.size)] for r in range(g.size)]
          for v in mod.V_coords]
    om = cartan_3form(mod)
    for i, j, k in combinations(range(mod.dimV), 3):
        assert coeff(om, i + 1, j + 1, k + 1) == \
            -trace(mat_mul(vs[i], commutator(vs[j], vs[k])))


def test_rank_chain_exact(su2t4):
    ranks = complex_ranks(su2t4)
    chain = (ranks[1][1], ranks[2][2], ranks[2][1], ranks[3][2], ranks[3][1])
    assert chain == (3, 9, 12, 17, 18)
    # rank-nullity audit in every degree
    for dim, r, ker in ranks:
        assert r + ker == dim


def test_rank_chain_published_values():
    # the published chain asserts ker d|O^2 = 5, dim d(O^3) = 14, family 19;
    # exact ranks give 9, 18, 23, and the Kunneth cross-check (oracle)
    # confirms the exact values in every degree
    report = section5.rank_chain_report()
    claims = {c["name"]: c for c in report["claims"]}
    assert claims["cohomology matches the product formula"]["pass"]
    assert claims["exact chain"]["pass"]
    assert not claims["published dim ker d|Omega^2"]["pass"]
    assert claims["published dim ker d|Omega^2"]["computed"] == 9
    assert not claims["published coclosed family dimension"]["pass"]
    assert claims["published coclosed family dimension"]["computed"] == 23


def test_identical_ranks_for_printed_bracket_convention():
    split = build_complex(bare_complex(section5.su2_t4_printed_constants()))
    compact = build_complex(bare_complex(build_algebra("su(2)+t(4)")))
    assert complex_ranks(split) == complex_ranks(compact)


def test_coclosed_family_dims(su2t4, t7):
    phim = PHI - 2 * w(7, 1, 2, 3)
    assert coclosed_if_stable(su2t4.module, PHI) is True
    assert coclosed_if_stable(su2t4.module, phim) is True
    assert coclosed_if_stable(su2t4.module, w(7, 1, 2, 3)) is None
    # the family dimension is dim ker d on invariant 4-forms
    assert complex_ranks(su2t4)[4][2] == 23
    assert complex_ranks(t7)[4][2] == 35


def _float_coclosed(m, t):
    """Reference: the differential of the float star is 0 to 1e-9."""
    import numpy as np

    st = hodge_star(t, t)
    terms = {idx: c for idx, c in zip(combinations(range(1, 8), 4), st) if c}
    dst = list(homogeneous._diff_terms(terms, m.d_one_forms).values())
    return bool(np.linalg.norm(dst) <= 1e-9 * max(1.0, np.linalg.norm(st)))


def _coclosed_against_float_star(m, t):
    """`coclosed_if_stable`, asserted equal to the float reference."""
    exact = homogeneous.coclosed_if_stable(m, t)
    if classify3(t) is Orbit3Class.DEGENERATE:
        assert exact is None
    else:
        assert type(exact) is bool and exact == _float_coclosed(m, t)
    return exact


@pytest.mark.parametrize("algebra", ["su2+t4", "2su2+u1"])
def test_coclosed_check_agrees_with_float_star(algebra):
    m = bare_complex(build_algebra(section5.NAMED_ALGEBRAS[algebra]))
    rng = random.Random(23)
    phim = PHI - 2 * w(7, 1, 2, 3)
    forms = [PHI, -1 * PHI, phim, PHITILDE, w(7, 1, 2, 3) + w(7, 4, 5, 6)]
    for _ in range(5):
        # an automorphism of su(2) + t(4): GL(4, Z) on the torus block
        f = [[int(i == j) for j in range(7)] for i in range(7)]
        for _ in range(6):
            i, j = rng.sample(range(3, 7), 2)
            f[i] = [x + rng.choice((-1, 1)) * y for x, y in zip(f[i], f[j])]
        forms += [pullback(f, PHI), pullback(f, phim)]
    forms += [KForm.make(7, 3, [(idx, rng.randint(-3, 3))
                                for idx in combinations(range(1, 8), 3)
                                if rng.random() < 0.4]) for _ in range(10)]
    answers = [_coclosed_against_float_star(m, t) for t in forms]
    if algebra == "su2+t4":
        assert answers[:5] == [True, True, True, True, None]
        assert answers[5:15] == [True] * 10
    else:
        assert answers[:5] == [False, False, False, False, None]
    assert False in answers[15:]


def test_coclosed_grid_agrees_with_float_star_on_2ci():
    mod = build_entry("2ci")
    f1, f2 = invariant_3forms(mod)
    answers = []
    for k in range(200):
        th = math.pi * k / 200
        t = (Fraction(round(math.cos(th) * 10 ** 6), 10 ** 6) * f1
             + Fraction(round(math.sin(th) * 10 ** 6), 10 ** 6) * f2)
        answers.append(_coclosed_against_float_star(mod, t))
    assert (answers.count(True), answers.count(None)) == (198, 2)


def test_star_duals_of_references_are_closed_exactly(su2t4):
    m = su2t4.module
    for t in (PHI, PHI - 2 * w(7, 1, 2, 3)):
        dual = star_euclidean(t)
        assert ce_differential(m, dual).is_zero()


def test_exact_primitive_of_dual(su2t4):
    target = star_euclidean(PHI) - w(7, 4, 5, 6, 7)
    prim = exact_primitive(su2t4, target)
    assert prim is not None
    assert ce_differential(su2t4.module, prim) == target
    # the corrected primitive: -(reference - w123)/2
    assert prim == Fraction(-1, 2) * (PHI - w(7, 1, 2, 3))


@pytest.fixture(scope="module")
def su2u1():
    return build_complex(bare_complex(build_algebra("su(2)+su(2)+u(1)")))


def _closed(comp):
    """The closed invariant 3-forms of comp, as Fraction 35-vectors."""
    basis = [f.coefficient_vector() for f in comp.bases[3]]
    return [[sum(co * bv[k] for co, bv in zip(cc, basis)) for k in range(35)]
            for cc in nullspace(comp.diffs[3])]


def _closed_map(comp):
    return family_hitchin_map(cleared(_closed(comp))[0])


SMALL_SCAN = ScanConfig(grid=400, random=100)


def test_closed_stable_scan(su2t4, t7):
    rep = closed_stable_scan(su2t4, ScanConfig(random=800))
    assert rep["closed_dim"] == 17
    assert not rep["stable_found"]
    rep7 = closed_stable_scan(t7, ScanConfig(random=50))
    assert rep7["closed_dim"] == 35
    assert rep7["stable_found"]
    # the whole space: the reference forms are the witnesses
    assert rep7["samples"] == 2 and rep7["certificate"] == {}


def _classify_coeffs_counts(closed, samples, seed):
    """A plain seeded sample loop, one classify_coeffs call a sample."""
    rng = random.Random(seed)
    counts = {k.value: 0 for k in Orbit3Class}
    for _ in range(samples):
        coeffs = [rng.randint(-9, 9) for _ in range(len(closed))]
        vec = [sum(co * cv[k] for co, cv in zip(coeffs, closed))
               for k in range(35)]
        counts[classify_coeffs(vec).value] += 1
    return counts


def _stop_rule_reference(closed, config, done):
    """The scan's samples and stop rule, one classify_coeffs call a sample
    on the rational closed vectors themselves; `done` holds the classes
    the scan's certificates exclude."""
    rng = random.Random(config.seed)
    samples = list(_ray_grid(len(closed), config.grid)) + [
        [rng.randint(-9, 9) for _ in closed] for _ in range(config.random)]
    done = set(done)
    ref = {"has_definite": False, "has_indefinite": False, "samples": 0,
           "definite_witness": None, "indefinite_witness": None}
    for coeffs in samples:
        if len(done) == 2:
            break
        if not any(coeffs):
            continue
        ref["samples"] += 1
        vec = [sum(co * cv[k] for co, cv in zip(coeffs, closed))
               for k in range(35)]
        cls = classify_coeffs(vec).value
        if cls != "degenerate" and cls not in done:
            done.add(cls)
            ref[f"has_{cls}"] = True
            ref[f"{cls}_witness"] = list(coeffs)
    return ref


@pytest.mark.parametrize("seed", [0, 1])
def test_closed_stable_scan_matches_a_classify_coeffs_loop(su2t4, su2u1,
                                                           seed):
    """The family-map scan finds the witnesses, after the same number of
    samples, that classify_coeffs finds on the rational closed forms."""
    config = ScanConfig(random=300, seed=seed)
    for comp in (su2t4, su2u1):
        rep = closed_stable_scan(comp, config)
        ref = _stop_rule_reference(_closed(comp), config, rep["certificate"])
        assert {k: rep[k] for k in ref} == ref
    assert rep["has_indefinite"] and rep["samples"] > 0


def test_closed_stable_scan_keeps_each_sample_on_its_ray():
    # closed vectors with different denominators: scaling each one to a
    # primitive integer vector on its own would move the samples' rays
    from types import SimpleNamespace

    basis = [Fraction(1, 2) * PHI, Fraction(-1, 3) * PHITILDE,
             KForm.make(7, 3, [((1, 2, 4), Fraction(5, 7))])]
    comp = SimpleNamespace(bases={3: basis}, diffs={3: []})
    closed = [f.coefficient_vector() for f in basis]
    config = ScanConfig(random=300, seed=0)
    rep = closed_stable_scan(comp, config)
    assert rep["certificate"] == {}
    assert {k: rep[k] for k in ("has_definite", "has_indefinite", "samples",
                                "definite_witness", "indefinite_witness")
            } == _stop_rule_reference(closed, config, ())
    assert rep["has_definite"] and rep["has_indefinite"]


def test_exploratory_scan_regression(su2u1):
    config = ScanConfig(random=500, seed=0)
    rep = closed_stable_scan(su2u1, config)
    # this closed family contains stable members, all of them indefinite:
    # e7 is isotropic for every member, and the scan stops at the first
    # indefinite witness, the first grid ray (-1, ..., -1, 1)
    assert rep["closed_dim"] == 17
    assert rep["stable_found"]
    assert rep["certificate"] == {"definite": {
        "kind": "isotropic subspace", "indices": [6], "monomials": 234}}
    ref = _stop_rule_reference(_closed(su2u1), config, {"definite"})
    assert {k: rep[k] for k in ref} == ref
    assert rep["has_indefinite"] and not rep["has_definite"]
    assert rep["samples"] == 1
    assert rep["indefinite_witness"] == [-1] * 16 + [1]


# ---------------------------------------------------------------------------
# the isotropic certificate on the closed families
# ---------------------------------------------------------------------------

def test_isotropic_certificate_on_the_closed_families(su2t4, su2u1, t7):
    e4_e7 = {"kind": "isotropic subspace", "indices": [3, 4, 5, 6],
             "monomials": 72}
    assert isotropic_exclusion(_closed_map(su2t4)) == e4_e7
    rep = closed_stable_scan(su2t4)
    assert rep["certificate"] == {"definite": e4_e7, "indefinite": e4_e7}
    assert rep["samples"] == 0 and not rep["stable_found"]
    assert isotropic_exclusion(_closed_map(su2u1)) == {
        "kind": "isotropic subspace", "indices": [6], "monomials": 234}
    # PHI and PHITILDE are in the t7 family, so no subspace is isotropic
    t7_map = _closed_map(t7)
    assert t7_map.isotropic_coordinates() == ()
    assert isotropic_exclusion(t7_map) is None


def test_the_indefinite_exclusion_is_asked_only_while_the_class_is_open(
        su2t4, su2u1):
    calls = []

    def given():
        calls.append(1)
        return {"kind": "given"}

    # e4..e7 is isotropic on su2+t4: both classes are excluded before it
    rep = scan_family(cleared(_closed(su2t4))[0], SMALL_SCAN,
                      exclude_indefinite=given)
    assert calls == [] and rep["certificate"]["indefinite"]["indices"] == [
        3, 4, 5, 6]
    # e7 alone on 2su2+u1 leaves the indefinite class open, once
    rep = scan_family(cleared(_closed(su2u1))[0], SMALL_SCAN,
                      exclude_indefinite=given)
    assert calls == [1]
    assert rep["certificate"]["indefinite"] == {"kind": "given"}
    assert rep["samples"] == 0


def test_a_corrupted_monomial_entry_on_w_loses_the_certificate(
        su2t4, monkeypatch):
    import dataclasses

    from g2forms import scan

    hitchin = _closed_map(su2t4)
    units = [[int(i == j) for j in range(7)] for i in range(7)]
    w = [units[i] for i in (3, 4, 5, 6)]
    assert hitchin.isotropic(w)
    # one more term on the cell (e4, e5) of the first monomial matrix
    a, b, c, terms = hitchin.monomials[0]
    e45 = hitchin.cells.index((3, 4))
    assert e45 not in dict(terms)
    bad = dataclasses.replace(hitchin, monomials=(
        (a, b, c, terms + ((e45, 1),)),) + hitchin.monomials[1:])
    assert not bad.isotropic(w)
    assert not bad.isotropic(w[:2])
    cert = isotropic_exclusion(bad)
    # a 3-dimensional subspace is left: it excludes definite members only
    assert cert is not None and len(cert["indices"]) == 3
    assert not {3, 4} <= set(cert["indices"])
    assert bad.isotropic([units[i] for i in cert["indices"]])
    monkeypatch.setattr(scan, "family_hitchin_map", lambda bvecs: bad)
    rep = scan_family(cleared(_closed(su2t4))[0], SMALL_SCAN)
    assert set(rep["certificate"]) == {"definite"}


def test_a_corrupted_isotropic_subspace_fails_the_exact_recheck(
        su2t4, monkeypatch):
    from g2forms import scan

    hitchin = _closed_map(su2t4)
    units = [[int(i == j) for j in range(7)] for i in range(7)]
    # B pairs s = span(e1..e3) with r = span(e4..e7) only: e3 and e4 are
    # each isotropic, their span is not, and no subspace holding it is
    assert hitchin.isotropic([units[2]]) and hitchin.isotropic([units[3]])
    assert not hitchin.isotropic([units[2], units[3]])
    monkeypatch.setattr(scan.FamilyHitchinMap,
                        "isotropic_coordinates",
                        lambda self: (2, 3, 4, 5, 6))
    assert isotropic_exclusion(hitchin) is None
    # the scan falls back to the uncertified scan, to its end
    rep = closed_stable_scan(su2t4, SMALL_SCAN)
    assert rep["certificate"] == {}
    rng = random.Random(SMALL_SCAN.seed)
    assert rep["samples"] == sum(1 for c in _ray_grid(17, SMALL_SCAN.grid)
                                 if any(c)) + sum(
        1 for _ in range(SMALL_SCAN.random)
        if any(rng.randint(-9, 9) for _ in range(17)))
    assert not rep["stable_found"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("algebra", ["su2+t4", "2su2+u1"])
def test_a_full_length_loop_finds_no_excluded_class(algebra, seed):
    # the classes the certificates exclude never show up in 10,000 plain
    # seeded draws, classified one by one through classify_coeffs
    comp = build_complex(
        bare_complex(build_algebra(section5.NAMED_ALGEBRAS[algebra])))
    excluded = set(closed_stable_scan(comp)["certificate"])
    assert excluded == ({"definite", "indefinite"} if algebra == "su2+t4"
                        else {"definite"})
    counts = _classify_coeffs_counts(
        cleared(_closed(comp))[0], 10_000, seed)
    assert all(counts[cls] == 0 for cls in excluded), counts
    assert sum(counts.values()) == 10_000


def test_nearly_parallel_d3_one_cases():
    for case in ("2d", "7"):
        mod = build_entry(case)
        ray = invariant_3forms(mod)[0]
        res = nearly_parallel_check(mod, ray)
        assert res.is_nearly_parallel
        assert abs(res.lam) > 1e-9
        assert res.residual <= 1e-9
        assert invariant_kforms(mod, 2) == []


def test_nearly_parallel_torus_is_torsion_free():
    mod = bare_complex(build_algebra("t(7)"))
    res = nearly_parallel_check(mod, PHI)
    assert res.torsion_free and not res.is_nearly_parallel
    with pytest.raises(ValueError):
        nearly_parallel_check(mod, w(7, 1, 2, 3))


def test_case1_unique_nearly_parallel_ray():
    rays = nearly_parallel_rays(build_entry("1"))
    assert len(rays) == 1
    assert abs(rays[0]["lambda"]) > 1e-9
    assert rays[0]["residual"] <= 1e-9
    # the ray is rational: proportional to (-5, 4) in the invariant basis
    a, b = rays[0]["coeffs"]
    assert abs(a / b + 1.25) < 1e-8


@pytest.mark.parametrize("case, ray", [("1", (-5, 4)), ("2ci", (-1, 5)),
                                       ("3aiii", (10, 9))])
def test_nearly_parallel_check_is_exact(case, ray):
    mod = build_entry(case)
    f1, f2 = invariant_3forms(mod)
    t = ray[0] * f1 + ray[1] * f2
    assert nearly_parallel_check(mod, t).is_nearly_parallel is True
    # dt != 0 is not parallel to star t, though the float residual is tiny
    off = nearly_parallel_check(mod, t + Fraction(1, 10 ** 12) * f1)
    assert not off.torsion_free and off.residual < 1e-9
    assert off.is_nearly_parallel is False


def test_invariant_2form_analysis_cases():
    # the dimension of the invariant 2-forms, every one of them closed
    for mod, dim in ((build_entry("1"), 0), (build_entry("3aiii"), 1),
                     (bare_complex(build_algebra("t(7)")), 21)):
        basis = invariant_kforms(mod, 2)
        assert len(basis) == dim
        assert all(ce_differential(mod, f).is_zero() for f in basis)


def test_d_image_of_the_family_is_two_dimensional():
    # the published uniqueness argument asserts a 1-dimensional image; the
    # exact value is 2 on every d3 = 2 entry (the bi-invariant 3-form does
    # not restrict to a closed form of the quotient complex)
    mod = build_entry("1")
    basis = invariant_3forms(mod)
    assert rank([ce_differential(mod, f).coefficient_vector()
                 for f in basis]) == 2
    om = cartan_3form(mod)
    assert not ce_differential(mod, om).is_zero()


def test_ce_differential_rejects_noninvariant_input():
    mod = build_entry("7")
    with pytest.raises(ValueError):
        ce_differential(mod, w(7, 1, 2, 3))


def test_ce_differential_commutes_with_generator_pullback():
    # h-only module of the 2ai pair; the component generator acts on the
    # h-invariant complex and commutes with d
    from g2forms.catalog import _case_2ai
    from g2forms.liealg import reductive_complement, generator_v_matrix

    g, h, gens = _case_2ai()
    mod = reductive_complement(g, h)
    hmat = [g.coords(x) for x in h]
    vvecs = mod.V_coords
    fmat = generator_v_matrix(g, hmat, vvecs, gens[0][1])
    for f in invariant_kforms(mod, 2):
        lhs = ce_differential(mod, pullback(fmat, f))
        rhs = pullback(fmat, ce_differential(mod, f))
        assert lhs == rhs


def test_d_squared_zero_on_case_complexes():
    for case in ("1", "3aiii", "2d"):
        build_complex(build_entry(case))  # asserts d^2 = 0 internally


def test_the_plain_differential_map_drops_cancelled_terms():
    # coclosed_if_stable reads an empty map as d = 0; d^2 e^l = 0 on su(3)
    # only through cancelling terms
    de1 = bare_complex(build_algebra("su(3)")).d_one_forms
    for l in range(1, 9):
        d = homogeneous._diff_terms({(l,): 1}, de1)
        assert d and homogeneous._diff_terms(d, de1) == {}


def test_d_squared_check_raises_on_a_corrupted_differential(su2t4):
    diffs = su2t4.diffs
    homogeneous._assert_d_squared_zero(diffs)
    corrupted = 0
    for k in range(len(diffs) - 1):
        a = diffs[k + 1]
        hit = next(((i, j) for i, row in enumerate(a)
                    for j, x in enumerate(row) if x), None)
        if hit is None or not diffs[k] or not diffs[k][0]:
            continue
        # d_{k+1} d_k = 0 before; one more unit in row j of d_k puts the
        # nonzero column j of d_{k+1} into the product
        bad = [list(row) for row in diffs[k]]
        bad[hit[1]][0] += 1
        with pytest.raises(AssertionError, match=r"d\^2 != 0 between"):
            homogeneous._assert_d_squared_zero(
                diffs[:k] + (bad,) + diffs[k + 1:])
        # alone with d_{k+1} (empty differentials are skipped), the
        # corrupted d_k fails the pair of degrees k and k + 2
        with pytest.raises(AssertionError,
                           match=rf"d\^2 != 0 between degrees {k} and {k + 2}"):
            homogeneous._assert_d_squared_zero([[]] * k + [bad, a])
        corrupted += 1
    assert corrupted >= 4


def test_coclosed_grid_forms_build_b_once(monkeypatch):
    from g2forms import stable_forms

    mod = build_entry("2ci")
    f1, f2 = invariant_3forms(mod)
    calls = []
    real = stable_forms.hitchin_matrix
    monkeypatch.setattr(stable_forms, "hitchin_matrix",
                        lambda coeffs: calls.append(1) or real(coeffs))
    seen = set()
    su2t4_module = bare_complex(build_algebra("su(2)+t(4)"))
    cases = [(mod, a * f1 + b * f2) for a, b in (
        (1, 0), (0, 1), (Fraction(3, 5), Fraction(4, 5)),
        (Fraction(-1, 2), Fraction(7, 10 ** 6)))]
    for m, t in cases + [(su2t4_module, PHI)]:
        del calls[:]
        seen.add(homogeneous.coclosed_if_stable(m, t))
        assert len(calls) == 1
    assert seen == {None, True}


@pytest.mark.parametrize("case, ray", [("2d", (1,)), ("7", (1,)),
                                       ("2ci", (-1, 5)),
                                       ("1", (Fraction(3, 7), -2))])
def test_nearly_parallel_check_builds_b_once(case, ray, monkeypatch):
    # one Hitchin build feeds the class and the exact star; lambda^9 equals
    # a Fraction reference, and the float star's lambda agrees to 1e-12
    import numpy as np

    from g2forms import stable_forms

    mod = build_entry(case)
    t = KForm.zero(7, 3)
    for c, f in zip(ray, invariant_3forms(mod)):
        t = t + c * f
    dt = homogeneous.ce_differential(mod, t)
    lam9 = _lambda9_reference(t, dt)
    st = hodge_star(t, t)
    dtv = np.array(dt.coefficient_vector(), dtype=float)
    lam = float(dtv @ st / (st @ st))
    calls = []
    real = stable_forms.hitchin_matrix
    monkeypatch.setattr(stable_forms, "hitchin_matrix",
                        lambda coeffs: calls.append(1) or real(coeffs))
    res = nearly_parallel_check(mod, t)
    assert len(calls) == 1
    assert res.lam9 == lam9 and res.orbit == classify3(t).value
    assert res.lam == pytest.approx(lam, rel=1e-12)


@pytest.mark.parametrize("case, ray, lam9, lam", [
    ("2d", (1,), Fraction(782757789696, 125), 12.260950918296848),
    ("7", (1,), Fraction(6 ** 9), 6.0),
    ("2ci", (-1, 5), Fraction(-12, 5) ** 9, -2.4),
])
def test_nearly_parallel_lambda_is_exact(case, ray, lam9, lam):
    # lambda^9 is rational on a nearly parallel ray; the float lambda is its
    # real ninth root, exact where that root is rational (7 and 2ci)
    mod = build_entry(case)
    t = KForm.zero(7, 3)
    for c, f in zip(ray, invariant_3forms(mod)):
        t = t + c * f
    res = nearly_parallel_check(mod, t)
    assert res.is_nearly_parallel and res.residual == 0.0
    assert res.lam9 == lam9 and res.lam == lam


def _lambda9_reference(t, dt):
    """lambda^9 of the least-squares dt = lambda star t, from Fractions.

    With g = s B / (6^(2/9) |det B|^(1/9)), s = sign det B, the star is
    vol C(Lambda^3(g^-1) t) = k P for P = star_euclidean(pullback(s B^-1,
    t)) and k^9 = |det B|^4 / 6; B^-1 is the Fraction inverse of B itself,
    not of the matrix on t's primitive ray.
    """
    data = hitchin_bilinear(t)
    s = 1 if data.detB > 0 else -1
    p = star_euclidean(pullback([[s * x for x in row]
                                 for row in inverse(data.B)], t))
    return (dt.dot(p) / p.dot(p)) ** 9 * 6 / abs(data.detB) ** 4


PENCIL_SLOPES = {"1": Fraction(-4, 5), "2ci": Fraction(-5),
                 "3aiii": Fraction(9, 10)}


@pytest.fixture(scope="module")
def pencils():
    out = {}
    for case in PENCIL_SLOPES:
        mod = build_entry(case)
        out[case] = (mod, homogeneous.pencil_evaluations(mod))
    return out


@pytest.mark.parametrize("case", sorted(PENCIL_SLOPES))
def test_pencil_certificate_finds_the_exact_ray(pencils, case):
    mod, ev = pencils[case]
    cert = homogeneous.certify_pencil(mod, ev)
    assert cert.r == PENCIL_SLOPES[case]
    assert len(set(cert.slopes)) == homogeneous.PENCIL_SLOPES == 57
    assert cert.minors and all(c != 0 and m + 1 <= 56
                               for _, m, c in cert.minors)
    # s = 0 is degenerate; r is the one nearly parallel stable ray
    assert cert.special[0] == (0, "degenerate", False)
    assert cert.special[1] == (cert.r, "definite", True)
    assert cert.nearly_parallel_count() == 1
    assert cert.nearly_parallel_count("definite") == 1
    assert cert.coclosed is True
    (ray,) = cert.rays
    f1, f2 = invariant_3forms(mod)
    assert nearly_parallel_check(mod, f1 + cert.r * f2).is_nearly_parallel
    assert ray["slope"] == cert.r and ray["coeffs"][1] >= 0



def _kform_pencil_point(mod, ev, s):
    """q and dq at slope s by the KForm route: the integer adjugate of
    hitchin_matrix(t(s)), then star_euclidean(pullback(adj B(s), t(s)))
    and `_diff_terms`; None when det B(s) = 0."""
    (x1, x2), _ = cleared([f.coefficient_vector() for f in ev.basis])
    x = [a + s * b for a, b in zip(x1, x2)]
    detb, adj = adjugate(hitchin_matrix(x))
    if detb == 0:
        return None
    q = star_euclidean(pullback(adj, KForm.from_coefficient_vector(7, 3, x)))
    assert all(c.denominator == 1 for c in q.terms.values())
    return (tuple(c.numerator for c in q.coefficient_vector()),
            homogeneous._diff_terms(q.terms, mod.d_one_forms))


def _assert_pencil_matches_the_kform_route(mod, ev, picks):
    for j in picks:
        q, dq = _kform_pencil_point(mod, ev, ev.slopes[j])
        assert ev.q[j] == q and all(type(c) is int for c in ev.q[j])
        assert bool(ev.dq[j]) is bool(dq) and ev.dq[j] == dq
    for s in ev.singular:
        assert _kform_pencil_point(mod, ev, s) is None


@pytest.mark.parametrize("case", sorted(PENCIL_SLOPES))
def test_pencil_evaluations_match_the_kform_route(pencils, case):
    mod, ev = pencils[case]
    _assert_pencil_matches_the_kform_route(mod, ev, (0, 28, 56))


def test_pencil_dq_matches_the_kform_route_where_it_is_nonzero(monkeypatch):
    # su(2)+t(4) with its brackets divided by 3, so the matrix of d has a
    # denominator, and a family whose duals are not closed
    bare = bare_complex(build_algebra("su(2)+t(4)"))
    mod = IsotropyModule(
        label="su(2)+t(4) / 3", dimV=7, action=[], gram=identity(7),
        brackets={ij: [Fraction(c, 3) for c in v]
                  for ij, v in bare.brackets.items()})
    assert homogeneous._d4_matrix(mod)[1] == 3
    family = [PHI, PHITILDE + w(7, 1, 2, 4)]
    monkeypatch.setattr(homogeneous, "invariant_3forms", lambda m: family)
    ev = homogeneous.pencil_evaluations(mod)
    assert len(ev.slopes) == 57 and ev.singular == (1,)
    assert not ev.dq[0] and all(ev.dq[1:])
    _assert_pencil_matches_the_kform_route(mod, ev, (0, 1, 30, 56))


def test_pencil_of_degenerate_forms_has_no_rays(monkeypatch):
    # a e123 + b e124 = e12 ^ (a e3 + b e4) is decomposable: det B(s) = 0
    # at every slope, and the search must stop with no ray (on t(7) every
    # form is invariant)
    mod = bare_complex(build_algebra("t(7)"))
    family = [KForm(7, 3, {(1, 2, 3): Fraction(1)}),
              KForm(7, 3, {(1, 2, 4): Fraction(1)})]
    monkeypatch.setattr(homogeneous, "invariant_3forms", lambda m: family)
    ev = homogeneous.pencil_evaluations(mod)
    assert ev.slopes == ()
    assert len(set(ev.singular)) == homogeneous.DET_DEGREE + 1
    cert = homogeneous.certify_pencil(mod, ev)
    assert cert.rays == () and cert.nearly_parallel_count() == 0
    assert cert.to_json()["r"] is None
    assert homogeneous.nearly_parallel_rays(mod) == []

@pytest.mark.parametrize("case", sorted(PENCIL_SLOPES))
def test_pencil_certificate_refuses_a_corrupted_q(pencils, case):
    mod, ev = pencils[case]
    for j in (3, 40):
        for i in range(35):
            q = [list(v) for v in ev.q]
            q[j][i] += 1
            bad = ev._replace(q=tuple(map(tuple, q)))
            with pytest.raises(homogeneous.CertificateRefused):
                homogeneous.certify_pencil(mod, bad)
    # too few slopes for the degree bound
    short = ev._replace(slopes=ev.slopes[:56], q=ev.q[:56], dq=ev.dq[:56])
    with pytest.raises(homogeneous.CertificateRefused, match="56 distinct"):
        homogeneous.certify_pencil(mod, short)


@pytest.mark.parametrize("case", ["1", "3aiii"])
def test_pencil_certificate_refuses_minors_with_two_roots(pencils, case):
    # dt_i0 is a nonzero constant a on these families, and d vanishes on
    # 4-form coordinate i, so Q_i(s) = s - 3 makes the minor a (s - 3): of
    # the form c s^m (s - r) at every slope, with the root 3 != r
    mod, ev = pencils[case]
    i0 = next(i for i, (a, b) in enumerate(zip(ev.d1, ev.d2)) if a or b)
    assert ev.d1[i0] and not ev.d2[i0]
    i = next(i for i, (a, b) in enumerate(zip(ev.d1, ev.d2))
             if not a and not b)
    q = [list(v) for v in ev.q]
    for qs, s in zip(q, ev.slopes):
        qs[i] = s - 3
    bad = ev._replace(q=tuple(map(tuple, q)))
    with pytest.raises(homogeneous.CertificateRefused, match="not r = "):
        homogeneous.certify_pencil(mod, bad)


@pytest.mark.parametrize("case", sorted(PENCIL_SLOPES))
def test_pencil_certificate_reports_a_corrupted_dq(pencils, case,
                                                   monkeypatch):
    mod, ev = pencils[case]
    dq = list(ev.dq)
    dq[17] = {(1, 2, 3, 4, 5): Fraction(1)}
    bad = ev._replace(dq=tuple(dq))
    assert homogeneous.certify_pencil(mod, bad).coclosed is False
    monkeypatch.setattr(homogeneous, "pencil_evaluations", lambda m: bad)
    claims = {c["name"]: c for c in
              section5.nearly_parallel_report(case)["claims"]}
    for name in ("every stable ray is coclosed",
                 "all stable rays on a 200-point grid are coclosed"):
        assert claims[name]["computed"] is False
        assert claims[name]["pass"] is False


def test_nearly_parallel_claims_do_not_read_the_float_star(monkeypatch):
    # with the float metric and star raising in every module that holds
    # them, all five reports, lambda included, come out unchanged
    import sys

    cases = section5.NEARLY_PARALLEL_CASES
    assert set(cases) == {"2d", "7", "1", "2ci", "3aiii"}
    before = {case: section5.nearly_parallel_report(case) for case in cases}

    def refuse(*args, **kw):
        raise AssertionError("the float star was called")

    for name, module in list(sys.modules.items()):
        for fn in ("hodge_star", "metric_from_3form"):
            if name.startswith("g2forms") and hasattr(module, fn):
                monkeypatch.setattr(module, fn, refuse)
    assert {case: section5.nearly_parallel_report(case)
            for case in cases} == before
