"""Tests of `g2forms.isotropy`: isotropy modules and their invariant theory."""

from g2forms.catalog import build_entry
from g2forms.isotropy import (invariant_3forms, invariant_dims,
                              invariant_form_types, invariant_kforms,
                              irreducible_dims, schur_exclusion)
from g2forms.linalg import inertia
from g2forms.scan import ScanConfig
from references import mat_sub

SMALL_SCAN = ScanConfig(grid=400, random=100)


def test_invariant_kforms_are_computed_once_per_module(monkeypatch):
    import dataclasses

    from g2forms import isotropy

    calls = []
    compute = isotropy.invariant_kform_basis

    def counting(action, generators, k, n):
        calls.append(k)
        return compute(action, generators, k, n)

    monkeypatch.setattr(isotropy, "invariant_kform_basis", counting)
    mod = build_entry("2d")
    first = invariant_kforms(mod, 3)
    expected = list(first)
    first.append(first[0])
    first.pop(0)
    second = invariant_kforms(mod, 3)
    assert second == expected and second is not first
    assert invariant_3forms(mod) == expected
    assert calls == [3]
    invariant_kforms(mod, 2)
    assert calls == [3, 2]
    # a copy is a new module with an empty cache
    assert invariant_kforms(dataclasses.replace(mod), 3) == expected
    assert calls == [3, 2, 3]


def test_schur_exclusion_does_not_fire_on_case1():
    mod = build_entry("1")
    assert irreducible_dims(mod) == [3, 4]
    assert schur_exclusion(mod) is None
    rep = invariant_form_types(mod, SMALL_SCAN)
    assert rep["certificate"] == {}
    assert rep["has_definite"] is True and rep["has_indefinite"] is True


def test_schur_exclusion_needs_a_definite_gram():
    import dataclasses

    # G and -G are both definite, with the one split and one certificate
    mod = build_entry("2d")
    flipped = dataclasses.replace(
        mod, gram=[[-x for x in row] for row in mod.gram])
    assert schur_exclusion(mod) is not None
    assert schur_exclusion(flipped) == schur_exclusion(mod)
    # on 8-g2xR, V = 6 + 1 and S_6 - S_1 is invariant but indefinite
    mod = build_entry("8-g2xR")
    s6, s1 = mod._action_symmetric_forms
    indefinite = dataclasses.replace(mod, gram=mat_sub(s6, s1))
    assert inertia(indefinite.gram)[:2] == (6, 1)
    assert schur_exclusion(indefinite) is None


def test_trivial_isotropy_dims():
    mod = build_entry("6i")
    dims = invariant_dims(mod)
    assert (dims.d1, dims.d2, dims.d3) == (7, 28, 35)
    assert len(invariant_3forms(mod)) == 35


def test_invariant_form_types_case1():
    rep = invariant_form_types(build_entry("1"), SMALL_SCAN)
    assert rep["has_definite"] is True and rep["has_indefinite"] is True


def test_invariant_form_types_definite_only():
    rep = invariant_form_types(build_entry("2d"), SMALL_SCAN)
    assert rep["has_definite"] is True and not rep["has_indefinite"]
