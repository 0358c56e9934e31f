import math
from fractions import Fraction

import pytest

from g2forms import section5
from g2forms.linalg import det
from g2forms.multilinear import KForm
from g2forms.stable_forms import PHI, metric_from_4form, star_euclidean

#: the example-429 display and every claim read off it
DERIVED_429 = (
    "metric display holds at sample points (factor 2, roles swapped)",
    "det vanishes exactly on a(2a+3b) = 0",
    "degenerate exactly on the two lines",
    "positive side is definite",
    "negative side has split signature {3, 4}",
)


def _passes_429(**kwargs):
    return {c["name"]: c["pass"]
            for c in section5.example_429_report(**kwargs)["claims"]}


def _assert_display_unproved(passes):
    """The display and every claim derived from it fail; the family
    claims before them still pass."""
    assert not any(passes[name] for name in DERIVED_429)
    assert all(ok for name, ok in passes.items() if name not in DERIVED_429)


def _fractions(pairs):
    return [(Fraction(a), Fraction(b)) for a, b in pairs]


def test_example_429_with_three_samples_proves_nothing(monkeypatch):
    # at most 3 slopes b/a: a binary cubic is not fixed by its values there
    draw = section5._example_429_samples
    monkeypatch.setattr(section5, "_example_429_samples",
                        lambda seed: draw(seed)[:3])
    _assert_display_unproved(_passes_429(seed=0))


def test_example_429_counts_rays_not_samples(monkeypatch):
    # (1, 1) and (2, 2) lie on one ray: four samples, three slopes
    three_rays = _fractions([(1, 1), (2, 2), (1, -1), (1, 3)])
    monkeypatch.setattr(section5, "_example_429_samples",
                        lambda seed: three_rays)
    _assert_display_unproved(_passes_429())
    four_rays = three_rays + _fractions([(-2, 5)])
    monkeypatch.setattr(section5, "_example_429_samples",
                        lambda seed: four_rays)
    assert all(_passes_429().values())


@pytest.mark.parametrize("entry", [(0, 0), (2, 5), (6, 1)])
def test_example_429_refuses_one_corrupted_gdual_entry(monkeypatch, entry):
    calls = []

    def corrupted(p):
        calls.append(p)
        g = metric_from_4form(p)
        if len(calls) == 7:
            i, j = entry
            g[i][j] += 1
        return g

    monkeypatch.setattr(section5, "metric_from_4form", corrupted)
    _assert_display_unproved(_passes_429(seed=0))
    assert len(calls) == 20


def test_example_429_det_formula_is_the_determinant_of_gdual():
    # the report reads det gdual = 2^7 81 a^18 (2a+3b)^3 off its display;
    # the elimination agrees, on and off the two lines
    psi1 = KForm.basis(7, 4, 5, 6, 7)
    big_psi2 = star_euclidean(PHI) + Fraction(-1, 3) * psi1
    for a, b in _fractions([(1, 1), (1, -1), (2, -7), (3, -2), (0, 1)]):
        g = metric_from_4form(a * big_psi2 + b * psi1)
        assert det(g) == 2 ** 7 * 81 * a ** 18 * (2 * a + 3 * b) ** 3


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
    # phi+, phi- and the torus reference: one dual ray each, and one rank
    # pass per complex, since the family dimension is read off the ranks
    from g2forms import homogeneous

    dual_rays, rank_passes = [], []
    dual_ray, complex_ranks = homogeneous.dual_ray, section5.complex_ranks
    monkeypatch.setattr(homogeneous, "dual_ray",
                        lambda t: dual_rays.append(t) or dual_ray(t))
    monkeypatch.setattr(section5, "complex_ranks",
                        lambda c: rank_passes.append(c) or complex_ranks(c))
    report = section5.coclosed_family_report()
    assert (len(dual_rays), len(rank_passes)) == (3, 2)
    assert all(c["pass"] for c in report["claims"] if not c.get("published"))
