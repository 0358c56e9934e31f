"""Tests of `g2forms.scan`: the family scan and its certificates."""

from g2forms.catalog import build_entry
from g2forms.isotropy import invariant_form_types
from g2forms.scan import SchurCertificate


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
