"""Tests of `g2forms.isotropy`: isotropy modules and their invariant theory."""

import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import pytest

from g2forms.catalog import build_entry
from g2forms.isotropy import (IsotropyModule, basis_coordinates,
                              invariant_3forms, invariant_dims,
                              invariant_form_types, invariant_inner_product,
                              invariant_kform_basis, invariant_kforms,
                              irreducible_dims, module_from_action,
                              schur_exclusion)
from g2forms.linalg import identity, inertia, inverse, mat_mul, transpose
from g2forms.multilinear import KForm
from g2forms.scan import ScanConfig
from g2forms.stable_forms import Orbit3Class
from references import (SO_FORM_ACTIONS, _conjugated_generators,
                        _kform_reference, _rational_form, _scan_samples,
                        classify3, dense_d1, dense_kernel_dim, mat_sub)

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


def _assert_free_column_shape(basis):
    """Each form has coefficient 1 at its last index, where no other form
    of the basis is nonzero."""
    for f in basis:
        lead = max(f.terms)
        assert f.terms[lead] == 1
        assert not any(g.terms.get(lead) for g in basis if g is not f)


def test_every_invariant_basis_has_the_free_column_shape(package_modules):
    # `basis_coordinates` reads a form's coordinates at these indices
    forms = 0
    for mod in package_modules:
        for k in range(mod.dimV + 1):
            basis = invariant_kforms(mod, k)
            _assert_free_column_shape(basis)
            forms += len(basis)
        if mod.generators:
            # the algebra-invariant family of the setwise check
            _assert_free_column_shape(
                invariant_kform_basis(mod.action, (), 3, mod.dimV))
    assert (len(package_modules), forms) == (27, 1108)


def test_basis_coordinates_are_exact_or_none():
    basis = invariant_3forms(build_entry("1"))
    f, g = basis
    assert basis_coordinates(basis, [(2 * f - g).terms, {}]) == [
        [2, -1], [0, 0]]
    # off the span, but equal to f at every free column: only the
    # recombination tells them apart
    leads = [max(h.terms) for h in basis]
    idx = next(i for i in combinations(range(1, 8), 3)
               if i not in leads and i not in f.terms)
    off = f + KForm.basis(7, *idx)
    assert basis_coordinates(basis, [off.terms]) is None
    assert basis_coordinates(basis, [f.terms, off.terms]) is None
    assert basis_coordinates(basis, [KForm.basis(7, 1, 2, 3).terms]) is None
    # an empty basis spans the zero form alone
    assert basis_coordinates([], [{}, {}]) == [[], []]
    assert basis_coordinates([], [f.terms]) is None


def test_basis_coordinates_refuse_a_basis_of_another_shape():
    # 2 at a form's last index, and two forms with the same last index: no
    # reading of either basis is a proof, so both are refused
    f, g = invariant_3forms(build_entry("1"))
    same_last = f + KForm.basis(7, *min(f.terms))
    assert max(same_last.terms) == max(f.terms) and same_last != f
    for bad in ([2 * f, g], [f, same_last]):
        with pytest.raises(ValueError, match="not a kernel basis"):
            basis_coordinates(bad, [f.terms])


def test_a_system_with_no_rows_has_the_unit_forms_as_its_kernel(monkeypatch):
    from g2forms import isotropy

    def fail(rows, ncols):
        raise AssertionError("ran an elimination")

    monkeypatch.setattr(isotropy, "kernel", fail)
    for k in range(8):
        basis = invariant_kform_basis((), (), k, 7)
        assert [tuple(f.terms.items()) for f in basis] == [
            ((idx, 1),) for idx in combinations(range(1, 8), k)]
    with pytest.raises(AssertionError, match="ran an elimination"):
        invariant_kform_basis(build_entry("1").action, (), 3, 7)


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


def test_irreducible_dims_raises_when_no_draw_certifies(monkeypatch):
    # a splitter that is always a scalar never splits W = 3 + 4 of case 1:
    # the split must fail loudly, not return the coarse [7]
    from g2forms import isotropy
    from g2forms.linalg import identity

    mod = build_entry("1")
    draws = []

    def scalar(forms, ginv, rng):
        draws.append(1)
        return identity(len(ginv))

    monkeypatch.setattr(isotropy, "_draw_splitter", scalar)
    with pytest.raises(AssertionError, match="no certified split"):
        irreducible_dims(mod)
    assert len(draws) == isotropy._SPLITTER_DRAWS


def test_irreducible_dims_of_an_irreducible_action_needs_no_draw(
        monkeypatch):
    # a one-dimensional self-adjoint commutant proves irreducibility
    from g2forms import isotropy

    def fail(forms, ginv, rng):
        raise AssertionError("drew a splitter")

    monkeypatch.setattr(isotropy, "_draw_splitter", fail)
    assert irreducible_dims(build_entry("2d")) == [7]


def test_irreducible_dims_are_computed_once_per_module(monkeypatch):
    import dataclasses

    from g2forms import isotropy

    calls = []
    compute = isotropy._irreducible_dims

    def counting(m):
        calls.append(m.label)
        return compute(m)

    monkeypatch.setattr(isotropy, "_irreducible_dims", counting)
    mod = build_entry("8-g2xR")
    first = irreducible_dims(mod)
    first.append(99)
    assert irreducible_dims(mod) == [1, 6]
    invariant_form_types(mod, SMALL_SCAN)
    assert calls == [mod.label]
    # a copy is a new module with an empty cache
    assert irreducible_dims(dataclasses.replace(mod)) == [1, 6]
    assert calls == [mod.label] * 2


def test_irreducible_dims_of_a_zero_action_are_all_ones(monkeypatch):
    # a zero action, or none at all (trivial isotropy), leaves every line
    # invariant: V splits into lines with no splitter draw
    from g2forms import isotropy

    def fail(forms, ginv, rng):
        raise AssertionError("drew a splitter")

    monkeypatch.setattr(isotropy, "_draw_splitter", fail)
    zero = [[Fraction(0)] * 4 for _ in range(4)]
    mod = module_from_action("zero", [zero], gram=_rational_form(4))
    assert irreducible_dims(mod) == [1, 1, 1, 1]
    assert irreducible_dims(build_entry("6i")) == [1] * 7


def test_irreducible_dims_refuse_a_gram_that_is_not_invariant():
    # so(3; D) preserves D, not the (definite) identity
    label, action, gram = SO_FORM_ACTIONS[0]
    assert label == "so(3;form)"
    mod = module_from_action("not invariant", action, gram=identity(3))
    with pytest.raises(AssertionError, match="gram is not invariant"):
        irreducible_dims(mod)


def test_irreducible_dims_need_a_positive_or_negative_definite_gram():
    import dataclasses

    # the boost preserves diag(1, -1) and is self-adjoint for it, yet R^2
    # splits into the invariant lines (1, 1) and (1, -1); the certificate
    # needs a definite gram, so [2] would be a wrong answer
    for gram in ([[1, 0], [0, -1]], [[-1, 0], [0, 1]]):
        mod = module_from_action("boost", [[[0, 1], [1, 0]]], gram=gram)
        with pytest.raises(AssertionError, match="gram is not definite"):
            irreducible_dims(mod)
    # C = G^-1 S is self-adjoint for -G as for G, so the split is the same
    mod = build_entry("2ci")
    flipped = dataclasses.replace(
        mod, gram=[[-x for x in row] for row in mod.gram])
    assert irreducible_dims(flipped) == irreducible_dims(mod) == [1, 1, 1, 4]


def test_invariant_3forms_case1_contains_decomposable_and_definite():
    mod = build_entry("1")
    basis = invariant_3forms(mod)
    assert len(basis) == 2
    # a decomposable member: t with t ^ t = 0 (the 3-block volume ray)
    from g2forms.multilinear import wedge

    found_decomposable = False
    found_definite = False
    for a in range(-6, 7):
        for b in range(-6, 7):
            if (a, b) == (0, 0):
                continue
            t = Fraction(a) * basis[0] + Fraction(b) * basis[1]
            if wedge(t, t).is_zero() and not t.is_zero():
                found_decomposable = True
            if classify3(t) is Orbit3Class.DEFINITE:
                found_definite = True
    assert found_decomposable and found_definite


def test_invariant_inner_product_is_the_positive_unique_form(monkeypatch):
    from g2forms import isotropy

    for label, action, gram in SO_FORM_ACTIONS:
        if label in ("3+3", "3+1+1"):
            with pytest.raises(ValueError, match="not unique"):
                invariant_inner_product(action)
            continue
        got = invariant_inner_product(action)
        scale = got[0][0] / gram[0][0]
        assert scale > 0
        assert got == [[scale * x for x in row] for row in gram]
    # a boost of R^(1,1) keeps only the indefinite diag(1, -1)
    boost = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    with pytest.raises(ValueError, match="not definite"):
        invariant_inner_product([boost])
    # a negative definite solution comes back negated
    d = _rational_form(3)
    monkeypatch.setattr(isotropy, "_invariant_symmetric_forms",
                        lambda action, generators: [
                            [[-x for x in row] for row in d]])
    assert invariant_inner_product([]) == d


def test_a_finer_split_gets_no_certificate_and_the_full_scan(monkeypatch):
    # with [1, 2, 4] a sub-multiset sums to 3, so the obstruction is gone
    # and the scan runs to its end
    from g2forms import isotropy

    monkeypatch.setattr(isotropy, "irreducible_dims", lambda m: [1, 2, 4])
    config = ScanConfig(seed=1)
    rep = invariant_form_types(build_entry("8-g2xR"), config)
    assert rep["certificate"] == {}
    # no certificate excludes the indefinite class, so the miss is undecided
    assert rep["has_definite"] is True
    assert rep["has_indefinite"] == "undecided"
    assert rep["samples"] == sum(
        1 for c in _scan_samples(rep["dim"], config) if any(c)) == 10_999


def test_d1_and_kernel_dim_match_the_dense_route_on_small_modules():
    # d1 of the rational rotation and signed swap alone: they fix e3..e5
    # after conjugation, while the empty action alone fixes all of R^7
    gens, _, _ = _conjugated_generators(7)
    mod = IsotropyModule(label="generators", dimV=7, action=[],
                         gram=identity(7),
                         generators=[("rot", gens[0]), ("swap", gens[1])])
    assert invariant_dims(mod).d1 == dense_d1(mod) == 3
    bare = IsotropyModule(label="bare", dimV=7, action=[], gram=identity(7))
    assert invariant_dims(bare).d1 == dense_d1(bare) == 7
    assert bare.kernel_dim() == dense_kernel_dim(bare) == 0
    # the action [A, 0, 2A] kills the 2-dimensional span of (0, 1, 0) and
    # (2, 0, -1) in h
    a = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
    mod = IsotropyModule(label="A, 0, 2A", dimV=2, gram=identity(2),
                         action=[a, [[0, 0], [0, 0]],
                                 [[2 * x for x in row] for row in a]])
    assert mod.kernel_dim() == dense_kernel_dim(mod) == 2
    assert invariant_dims(mod).d1 == dense_d1(mod) == 0


def test_invariant_kforms_under_rational_generators_match_the_reference():
    # one rotation generator of the (1, 2)-plane and rational rotations of
    # it and of the (6, 7)-plane, all conjugated by P: denominators in the
    # action and in each generator
    gens, p, pinv = _conjugated_generators(7)
    rot = [[Fraction(0)] * 7 for _ in range(7)]
    rot[0][1], rot[1][0] = Fraction(-1), Fraction(1)
    mod = IsotropyModule(label="rational", dimV=7,
                         action=[mat_mul(mat_mul(p, rot), pinv)],
                         gram=identity(7),
                         generators=[("rot", gens[0]), ("swap", gens[1])])
    assert any(x.denominator > 1 for _, f in mod.generators
               for row in f for x in row)
    for k in range(8):
        got = invariant_kforms(mod, k)
        assert got == _kform_reference(mod, k), k
        assert got


def _transported(mod, seed):
    """mod in the V basis P = LU, L and U unit triangular with seeded
    entries in [-1, 1]: the action P^-1 A P, the gram P^T G P and the
    generators P^-1 F P, the brackets left out (the scan reads none)."""
    rng = random.Random(seed)
    n = mod.dimV

    def unit_triangular(lower):
        return [[1 if i == j else rng.randint(-1, 1) if (i > j) == lower
                 else 0 for j in range(n)] for i in range(n)]

    p = mat_mul(unit_triangular(True), unit_triangular(False))
    pinv = inverse(p)

    def conj(a):
        return mat_mul(pinv, mat_mul(a, p))

    return dataclasses.replace(
        mod, action=[conj(a) for a in mod.action], brackets={},
        gram=mat_mul(transpose(p), mat_mul(mod.gram, p)),
        generators=[(name, conj(f)) for name, f in mod.generators])


def test_a_transported_module_below_its_first_witness_is_undecided():
    # in this basis 2ci shows an indefinite member at the first grid ray
    # and a definite one only at the 209th; one ray fewer leaves the
    # definite class undecided, never False, as no certificate excludes it
    mod = _transported(build_entry("2ci"), 0)
    below = invariant_form_types(mod, ScanConfig(grid=208, random=0))
    at = invariant_form_types(mod, ScanConfig(grid=209, random=0))
    assert below["certificate"] == at["certificate"] == {}
    assert (below["has_definite"], below["has_indefinite"]) == (
        "undecided", True)
    assert (at["has_definite"], at["has_indefinite"]) == (True, True)
    assert (below["samples"], at["samples"]) == (208, 209)


def test_built_module_is_frozen():
    import dataclasses

    mod = build_entry("2ai")
    with pytest.raises(dataclasses.FrozenInstanceError):
        mod.label = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        mod.pending_generators = ()
    assert mod.h_dim == len(mod.action) == len(mod.h_coords) == 3


def test_built_module_is_a_deep_value():
    mod = build_entry("2d")
    mod.d_one_forms  # cached; mutating brackets would leave it stale
    with pytest.raises(TypeError):
        mod.brackets[(0, 1)][0] += 1
    with pytest.raises(TypeError):
        mod.brackets[(0, 1)] = ()
    with pytest.raises(TypeError):
        mod.action[0][0][0] = 1
    for name in ("gram", "h_coords", "V_coords"):
        with pytest.raises(TypeError):
            getattr(mod, name)[0][0] = 1
    gens = build_entry("2ai").generators
    with pytest.raises(TypeError):
        gens[0][1][0][0] = 1
