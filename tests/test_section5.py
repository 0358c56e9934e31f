import math
import subprocess
import sys
from fractions import Fraction

import pytest

from g2forms import section5
from g2forms.multilinear import KForm
from g2forms.stable_forms import (PHI, Metric4Data, metric_from_4form,
                                  star_euclidean)

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


def test_example_429_with_three_samples_proves_nothing():
    # at most 3 slopes b/a: a binary cubic is not fixed by its values there
    _assert_display_unproved(_passes_429(npoints=3, seed=0))


def test_example_429_counts_rays_not_samples(monkeypatch):
    # (1, 1) and (2, 2) lie on one ray: four samples, three slopes
    three_rays = _fractions([(1, 1), (2, 2), (1, -1), (1, 3)])
    monkeypatch.setattr(section5, "_example_429_samples",
                        lambda npoints, seed: three_rays)
    _assert_display_unproved(_passes_429())
    four_rays = three_rays + _fractions([(-2, 5)])
    monkeypatch.setattr(section5, "_example_429_samples",
                        lambda npoints, seed: four_rays)
    assert all(_passes_429().values())


@pytest.mark.parametrize("entry", [(0, 0), (2, 5), (6, 1)])
def test_example_429_refuses_one_corrupted_gdual_entry(monkeypatch, entry):
    calls = []

    def corrupted(p):
        calls.append(p)
        g = [list(row) for row in metric_from_4form(p).gdual]
        if len(calls) == 7:
            i, j = entry
            g[i][j] += 1
        return Metric4Data(gdual=g)

    monkeypatch.setattr(section5, "metric_from_4form", corrupted)
    _assert_display_unproved(_passes_429(seed=0))
    assert len(calls) == 20


def test_example_429_det_formula_is_the_determinant_of_gdual():
    # the report reads det gdual = 2^7 81 a^18 (2a+3b)^3 off its display;
    # the elimination agrees, on and off the two lines
    psi1 = KForm.basis(7, 4, 5, 6, 7)
    big_psi2 = star_euclidean(PHI) + Fraction(-1, 3) * psi1
    for a, b in _fractions([(1, 1), (1, -1), (2, -7), (3, -2), (0, 1)]):
        m = metric_from_4form(a * big_psi2 + b * psi1)
        assert m.det == 2 ** 7 * 81 * a ** 18 * (2 * a + 3 * b) ** 3


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


def test_example_429_refuses_more_points_than_distinct_pairs():
    # a from [-9, 9] \ {0} and b from +-[1, 9] give 18 * 18 = 324 pairs; a
    # draw of more could never end, so the refusal runs under a timeout in
    # its own process
    code = ("from g2forms import section5\n"
            "try:\n"
            "    section5.example_429_report(npoints=325)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "325" in proc.stdout
    with pytest.raises(ValueError):
        section5._example_429_samples(0, 0)
    samples = section5._example_429_samples(324, 0)
    assert len(set(samples)) == 324 and all(a != 0 for a, _ in samples)
