"""Tests of `g2forms.scan`: the family scan and its certificates."""

import random

from g2forms.catalog import build_entry
from g2forms.isotropy import invariant_3forms, invariant_form_types
from g2forms.linalg import mat_vec
from g2forms.scan import (ScanConfig, SchurCertificate, isotropic_exclusion,
                          kernel_exclusion)
from g2forms.stable_forms import hitchin_matrix, primitive_int_vector
from references import _monomial_matrices, _sample_vec, _scan_samples

SMALL_SCAN = ScanConfig(grid=400, random=100)


def test_the_schur_recheck_refuses_a_split_that_sums_to_3_or_4():
    for dims in ((7,), (1, 6), (2, 5), (1, 1, 5)):
        assert SchurCertificate(dims).recheck(), dims
    # (1, 2, 4) has 1 + 2 = 3; (3, 4) and (1, 3, 3) hold a 3 or a 4
    for dims in ((1, 2, 4), (3, 4), (1, 3, 3)):
        assert not SchurCertificate(dims).recheck(), dims
    # dims of another total, or not dimensions at all
    for dims in ((6,), (1, 7), (), (8, -1), (0, 7)):
        assert not SchurCertificate(dims).recheck(), dims


def test_scan_builds_no_hitchin_map_for_the_empty_or_whole_family(
        monkeypatch):
    from g2forms import scan

    def unused(bvecs):
        raise AssertionError("the family Hitchin map was built")

    monkeypatch.setattr(scan, "family_hitchin_map", unused)
    assert scan.scan_family([])["samples"] == 0
    whole = invariant_form_types(build_entry("6i"))
    assert whole["has_definite"] is True and whole["has_indefinite"] is True
    assert whole["samples"] == 2


def test_kernel_certificate_fires_on_the_degenerate_families(
        degenerate_families):
    assert set(degenerate_families) == {
        "4ii(0, 0)+B23-swap", "6ii+R5-fixing-rotation", "3biii(1, 1)"}
    rng = random.Random(7)
    for label, (mod, hitchin, n_monomials, kernel_dim) in \
            degenerate_families.items():
        assert len(hitchin.monomials) == n_monomials, label
        assert len(hitchin.common_kernel()) == kernel_dim, label
        rep = invariant_form_types(mod)
        cert = rep["certificate"]["indefinite"]
        assert rep["certificate"]["definite"] is cert, label
        assert cert.to_json()["kind"] == "common kernel"
        assert cert.kernel_dim == kernel_dim
        assert rep["samples"] == 0
        assert not rep["has_definite"] and not rep["has_indefinite"]
        # independently of the monomial expansion: B v = 0 on seeded forms
        v = list(cert.kernel_vector)
        bvecs = [primitive_int_vector(f.coefficient_vector())
                 for f in invariant_3forms(mod)]
        for _ in range(5):
            x = [rng.randint(-9, 9) for _ in bvecs]
            b = hitchin_matrix(_sample_vec(x, bvecs))
            assert any(map(any, b)), label
            assert mat_vec(b, v) == [0] * 7, label
            # the monomial matrices add up to B(x)
            total = [[0] * 7 for _ in range(7)]
            for (a, bb, c, _), m in zip(hitchin.monomials,
                                        _monomial_matrices(hitchin)):
                w = x[a] * x[bb] * x[c]
                total = [[t + w * y for t, y in zip(tr, mr)]
                         for tr, mr in zip(total, m)]
            assert total == b == hitchin(x), label


def test_a_corrupted_kernel_vector_fails_the_exact_recheck(
        degenerate_families, monkeypatch):
    import dataclasses

    from g2forms import stable_forms

    mod, hitchin, _, _ = degenerate_families["4ii(0, 0)+B23-swap"]
    units = [[int(i == j) for j in range(7)] for i in range(7)]
    for _, fam, _, _ in degenerate_families.values():
        v = fam.common_kernel()[0]
        assert fam.kills(v)
        # every off-kernel unit vector spoils it
        spoilers = [e for e in units if not fam.kills(e)]
        assert spoilers
        for e in spoilers:
            assert not fam.kills([a + b for a, b in zip(v, e)])
    # both halves of a symmetric monomial matrix are filled
    e01 = hitchin.cells.index((0, 1))
    off = dataclasses.replace(hitchin, monomials=((0, 0, 0, ((e01, 1),)),))
    assert [off.kills(e) for e in units] == [False, False] + [True] * 5
    # a corrupted vector handed to the certificate is refused, and the scan
    # falls back to the isotropic search, whose certificate rechecks
    # itself, and to the full scan of the class it leaves open
    v = hitchin.common_kernel()[0]
    bad = [a + b for a, b in zip(v, [1, 0, 0, 0, 0, 0, 0])]
    assert not hitchin.kills(bad)
    monkeypatch.setattr(stable_forms.FamilyHitchinMap, "common_kernel",
                        lambda self: [bad])
    assert kernel_exclusion(hitchin) is None
    rep = invariant_form_types(mod, SMALL_SCAN)
    iso = isotropic_exclusion(hitchin)
    assert iso.recheck(hitchin) and iso.excludes == ("definite",)
    assert rep["certificate"] == {"definite": iso}
    assert rep["samples"] == sum(
        1 for c in _scan_samples(rep["dim"], SMALL_SCAN) if any(c))
    assert rep["has_definite"] is False
    assert rep["has_indefinite"] == "undecided"


def test_the_kernel_recheck_refuses_an_off_kernel_vector(
        degenerate_families):
    import dataclasses

    units = [[int(i == j) for j in range(7)] for i in range(7)]
    for label, (_, hitchin, _, kernel_dim) in degenerate_families.items():
        cert = kernel_exclusion(hitchin)
        assert cert.recheck(hitchin) and cert.kernel_dim == kernel_dim, label
        assert cert.excludes == ("definite", "indefinite")
        # the zero vector is killed too, but proves nothing
        zero = dataclasses.replace(cert, kernel_vector=(0,) * 7)
        assert hitchin.kills(zero.kernel_vector)
        assert not zero.recheck(hitchin), label
        spoilers = [e for e in units if not hitchin.kills(e)]
        assert spoilers, label
        for e in spoilers:
            bad = dataclasses.replace(cert, kernel_vector=tuple(
                a + b for a, b in zip(cert.kernel_vector, e)))
            assert not bad.recheck(hitchin), (label, e)
