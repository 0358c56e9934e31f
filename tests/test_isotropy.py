"""Tests of `g2forms.isotropy`: isotropy modules and their invariant theory."""

from g2forms.catalog import build_entry
from g2forms.isotropy import invariant_3forms, invariant_kforms


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
