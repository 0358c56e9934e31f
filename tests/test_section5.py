import dataclasses
import math
from fractions import Fraction

import pytest

from g2forms import section5
from g2forms.linalg import det
from g2forms.multilinear import KForm
from g2forms.stable_forms import (PHI, FamilyHitchinMap, Orbit3Class,
                                  family_hitchin_map, star_euclidean)
from references import metric_from_4form

#: the example-429 display and every claim read off it
DERIVED_429 = (
    "metric display holds at sample points (factor 2, roles swapped)",
    "metric display is an identity of cubics in (a/3, b)",
    "det vanishes exactly on a(2a+3b) = 0",
    "degenerate exactly on the two lines",
    "positive side is definite",
    "negative side has split signature {3, 4}",
)


@pytest.mark.parametrize("entry", [(0, 0), (2, 5), (6, 1)])
def test_example_429_refuses_one_corrupted_gdual_entry(monkeypatch, entry):
    # a diagonal cell gets one more unit of x1^3; an off-diagonal cell, which
    # the display leaves empty, gets one term: (2, 5) in x1^3, a monomial
    # the display has, and (1, 6) in x2^3, one it has not
    cell = tuple(sorted(entry))
    mono = (1, 1, 1) if entry == (6, 1) else (0, 0, 0)
    calls = []

    def corrupted(bvecs):
        calls.append(bvecs)
        gdual = family_hitchin_map(bvecs)
        e = gdual.cells.index(cell)
        monomials = {tuple(m): dict(terms) for *m, terms in gdual.monomials}
        terms = monomials.setdefault(mono, {})
        terms[e] = terms.get(e, 0) + 1
        return FamilyHitchinMap(
            monomials=tuple((*m, tuple(sorted(terms.items())))
                            for m, terms in sorted(monomials.items())),
            cells=gdual.cells)

    monkeypatch.setattr(section5, "family_hitchin_map", corrupted)
    passes = {c["name"]: c["pass"]
              for c in section5.example_429_report()["claims"]}
    # the display and every claim derived from it fail; the family claims
    # before them still pass
    assert not any(passes[name] for name in DERIVED_429)
    assert all(ok for name, ok in passes.items() if name not in DERIVED_429)
    assert len(calls) == 1


def test_example_429_det_formula_is_the_determinant_of_gdual():
    # the report reads det gdual = 2^7 81 a^18 (2a+3b)^3 off its display;
    # the elimination agrees, on and off the two lines, and the reference
    # metric is the display there
    psi1 = KForm.basis(7, 4, 5, 6, 7)
    big_psi2 = star_euclidean(PHI) + Fraction(-1, 3) * psi1
    for a, b in [(Fraction(a), Fraction(b)) for a, b in
                 [(1, 1), (1, -1), (2, -7), (3, -2), (0, 1)]]:
        g = metric_from_4form(a * big_psi2 + b * psi1)
        assert det(g) == 2 ** 7 * 81 * a ** 18 * (2 * a + 3 * b) ** 3
        diag = section5._display_429(a, b)
        assert g == [[diag[i] if i == j else 0 for j in range(7)]
                     for i in range(7)]


@pytest.mark.parametrize("case", ["1", "2ci", "3aiii"])
def test_pencil_ray_lambda_is_read_off_its_slope_and_lambda9(case):
    # lambda9 is that of t = f1 + s f2; at unit coefficients lambda picks up
    # (1 + s^2)^(1/6), since lambda scales as |t|^(-1/3)
    (ray,) = section5.nearly_parallel_report(case)["rays"]
    lam9 = Fraction(ray["lambda9"])
    root = math.copysign(float(abs(lam9)) ** (1 / 9), lam9)
    norm2 = 1 if ray["slope"] == "infinity" else \
        1 + Fraction(ray["slope"]) ** 2
    assert ray["lambda"] == pytest.approx(root * float(norm2) ** (1 / 6),
                                          rel=1e-12)
    assert ray["residual"] == 0.0


def test_coclosed_family_report_builds_one_dual_ray_per_form(monkeypatch):
    # phi+, phi- and the torus reference: one record each, and one rank
    # pass per complex, since the family dimension is read off the ranks
    from g2forms import homogeneous

    records, rank_passes = [], []
    hitchin_bilinear = homogeneous.hitchin_bilinear
    complex_ranks = section5.complex_ranks
    monkeypatch.setattr(homogeneous, "hitchin_bilinear",
                        lambda t: records.append(t) or hitchin_bilinear(t))
    monkeypatch.setattr(section5, "complex_ranks",
                        lambda c: rank_passes.append(c) or complex_ranks(c))
    report = section5.coclosed_family_report()
    assert (len(records), len(rank_passes)) == (3, 2)
    assert all(c["pass"] for c in report["claims"] if not c.get("published"))


@pytest.mark.parametrize("case, builds", [("1", 3), ("2ci", 4),
                                          ("3aiii", 3)])
def test_nearly_parallel_report_builds_each_record_once(case, builds,
                                                        monkeypatch):
    # one Hitchin build per special ray (f2 is degenerate on these rows, so
    # its coclosedness is not asked), and d of f1, f2 plus one per stable
    # special ray: the d-image rank reads the pencil's own d x1 and d x2
    from g2forms import homogeneous, stable_forms

    calls = {"hitchin_matrix": 0, "ce_differential": 0}
    for namespace, name in ((stable_forms, "hitchin_matrix"),
                            (homogeneous, "ce_differential"),
                            (section5, "ce_differential")):
        def counted(*args, name=name, real=getattr(namespace, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(namespace, name, counted)
    report = section5.nearly_parallel_report(case)
    assert calls == {"hitchin_matrix": builds, "ce_differential": builds}
    orbits = [r["orbit"] for r in report["certificate"]["special_rays"]]
    assert orbits[-1] == "degenerate"


def test_coclosed_family_report_classifies_every_entry(monkeypatch):
    # the torus entry's orbit is computed, as those of phi+ and phi- are,
    # and each entry's orbit and coclosedness come from the one reader
    read = section5.orbit_and_coclosed
    monkeypatch.setattr(section5, "orbit_and_coclosed",
                        lambda m, t: (Orbit3Class.DEGENERATE, read(m, t)[1]))
    families = section5.coclosed_family_report()["families"]
    assert list(families) == ["phi+", "phi-", "torus"]
    assert all(f["orbit"] == "degenerate" for f in families.values())
    assert all(f["coclosed"] is True for f in families.values())


def test_coclosed_family_report_builds_one_hitchin_matrix_per_form(
        monkeypatch):
    # phi+, phi- and the torus reference: the orbit and the dual of each
    # form are read off one record, so one B each
    from g2forms import stable_forms

    section5.named_complex("su2+t4"), section5.named_complex("t7")
    built, build = [], stable_forms.hitchin_matrix
    monkeypatch.setattr(stable_forms, "hitchin_matrix",
                        lambda x: built.append(x) or build(x))
    families = section5.coclosed_family_report()["families"]
    assert len(built) == 3
    assert [f["orbit"] for f in families.values()] == [
        "definite", "indefinite", "definite"]


def test_the_rigidity_reports_build_a_named_complex_once(monkeypatch):
    # rank-chain and coclosed-family share the su(2)+t(4) complex; the
    # printed-constants complex is built apart
    section5.named_complex.cache_clear()
    built, build = [], section5.build_complex
    monkeypatch.setattr(section5, "build_complex",
                        lambda m: built.append(m.label) or build(m))
    section5.rank_chain_report()
    section5.coclosed_family_report()
    assert built == ["su(2)+t(4)", "sl(2,R)+t(4)", "t(7)"]
    # shared, so immutable all the way down
    comp = section5.named_complex("su2+t4")
    with pytest.raises(dataclasses.FrozenInstanceError):
        comp.diffs = ()
    with pytest.raises(TypeError):
        comp.diffs[1][0][0] = 1
    with pytest.raises(AttributeError):
        comp.bases[1].append(comp.bases[1][0])
