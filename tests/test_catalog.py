import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from g2forms.catalog import (_BUILDERS, _sign_spectrum, build_entry,
                             candidate_module,
                             catalog_hash, compute_g2_algebra,
                             compute_su3_in_g2, generator_compatibility_report,
                             load_catalog, so3_irrep, verify_entry)
from g2forms.isotropy import invariant_dims
from g2forms.linalg import charpoly, det, identity, inverse, mat_mul
from g2forms.scan import ScanConfig
from references import commutator, sign_charpoly

SMALL_SCAN = ScanConfig(grid=400, random=100)

KNOWN_CASES = {
    "1", "2ai", "2ci", "2cii", "2aiii", "3bii", "3biii", "3aiii",
    "4i", "4ii", "5i", "5ii", "2d", "7", "8-su4", "8-g2xR",
    "6i", "6ii", "6iii", "so3_7",
}


def test_catalog_case_ids_are_closed():
    entries = load_catalog()
    assert {e["case"] for e in entries} == KNOWN_CASES
    assert len(entries) == 23


def test_the_json_generator_list_is_the_one_the_builder_returns():
    # nothing else reads the list in data/catalog.json, so hold it here to
    # the (name, expectation) pairs of the builders, in order; a spectrum
    # keyed by a name no generator has would never be checked
    for e in load_catalog():
        listed = [(g["name"], g["expect"]) for g in e.get("generators", [])]
        built = []
        if e["case"] in _BUILDERS:
            _, _, gens = _BUILDERS[e["case"]](*e.get("params", ()))
            built = [(name, expect) for name, _, expect in gens]
        assert listed == built, (e["case"], e.get("params"))
        assert set(e.get("generator_spectra", {})) <= {n for n, _ in built}


def test_catalog_hash_is_stable_len():
    assert len(catalog_hash()) == 16


def test_unknown_case_raises():
    with pytest.raises(ValueError):
        build_entry("nonsense")


def test_g2_algebra_closure():
    g2 = compute_g2_algebra()
    assert g2.dim == 14
    g2.structure_constants()  # closure under the bracket, exact
    for a in g2.basis:
        assert all(a[i][j] == -a[j][i] for i in range(7) for j in range(7))


def test_su3_block_intersection():
    su3 = compute_su3_in_g2()
    assert len(su3) == 8
    for x in su3:
        assert all(x[i][0] == 0 and x[0][i] == 0 for i in range(7))
    # closed under the bracket inside the annihilator
    from g2forms.liealg import MatrixLieAlgebra

    alg = MatrixLieAlgebra.from_basis("su3-block", su3)
    alg.structure_constants()


def test_so3_irreps():
    for dim in (5, 7):
        acts = so3_irrep(dim)
        assert len(acts) == 3 and len(acts[0]) == dim
        # representation property: [a0, a1] proportional to a2Z-direction
        br = commutator(acts[0], acts[1])
        from g2forms.liealg import MatrixLieAlgebra

        alg = MatrixLieAlgebra.from_basis(f"so3-{dim}", acts)
        alg.structure_constants()


@pytest.mark.parametrize("entry", load_catalog(),
                         ids=lambda e: f"{e['case']}{tuple(e.get('params', ()))}")
def test_verify_catalog_entry(entry):
    report = verify_entry(entry, SMALL_SCAN)
    failed = [c for c in report.checks if not c["pass"]]
    assert not failed, failed


def test_tables_partition():
    entries = load_catalog()
    both = {e["case"] for e in entries if e["table"] == "both"}
    defonly = {e["case"] for e in entries if e["table"] == "definite-only"}
    assert {"1", "2ai", "2ci", "2cii", "2aiii", "3bii", "3biii", "3aiii",
            "4i", "4ii", "5i", "5ii"} == both
    assert {"2d", "7", "8-su4", "8-g2xR"} == defonly


def test_d3_extremes():
    entries = load_catalog()
    for e in entries:
        full = e["expected"]["d3"] == 35
        trivial = e["recipe"].get("kind") == "trivial-isotropy"
        assert full == trivial


def test_d14_generator_is_accepted_for_2ai():
    mod = build_entry("2ai")
    assert [name for name, _ in mod.generators] == ["D14"]
    dims = invariant_dims(mod)
    assert (dims.d1, dims.d2, dims.d3) == (0, 3, 3)


def test_a12_triple_matches_the_diagonal_involution():
    mod = build_entry("4i")
    name, vmat = mod.generators[0]
    assert mat_mul(vmat, vmat) == identity(7)
    # eigenvalues -1 with multiplicity 4, +1 with multiplicity 3
    assert _sign_spectrum(vmat) == [Fraction(-1)] * 4 + [Fraction(1)] * 3
    assert charpoly(vmat) == sign_charpoly(4, 3)


def test_sigma3_swap_is_rejected():
    mod = build_entry("4ii", (0, 0))
    name, fmat, expect = mod.pending_generators[0]
    assert expect == "rejected"
    cand = candidate_module(mod, name, fmat)
    rep = generator_compatibility_report(cand, SMALL_SCAN)
    assert not rep["has_indefinite"]
    vmat = cand.generators[-1][1]
    assert det(vmat) == -1
    assert _sign_spectrum(vmat) == [Fraction(-1)] * 3 + [Fraction(1)] * 4
    assert charpoly(vmat) == sign_charpoly(3, 4)


def test_d7_shadow_determinant_negative():
    mod = build_entry("8-g2xR")
    name, fmat, expect = mod.pending_generators[0]
    assert expect == "detneg"
    assert det(candidate_module(mod, name, fmat).generators[-1][1]) < 0


def test_rotation_generator_shadows_for_trivial_isotropy():
    mod = build_entry("6ii")
    name, fmat, _ = mod.pending_generators[0]
    rep = generator_compatibility_report(candidate_module(mod, name, fmat),
                                         SMALL_SCAN)
    assert not rep["has_definite"] and not rep["has_indefinite"]
    mod3 = build_entry("6iii")
    for name, fmat, expect in mod3.pending_generators:
        rep = generator_compatibility_report(
            candidate_module(mod3, name, fmat), SMALL_SCAN)
        assert rep["has_indefinite"] is True


@pytest.mark.parametrize("case, params, kernel_dim", [
    ("4ii", (0, 0), 3), ("6ii", (), 2)])
def test_rejected_generators_rest_on_a_kernel_certificate(case, params,
                                                          kernel_dim):
    # both "rejected" verdicts are exact: the fixed family's monomial
    # Hitchin matrices share a kernel vector, so no sample is needed
    from g2forms.isotropy import invariant_3forms
    from g2forms.scan import family_hitchin_map
    from g2forms.stable_forms import primitive_int_vector

    mod = build_entry(case, params)
    (name, fmat, expect), = mod.pending_generators
    assert expect == "rejected"
    cand = candidate_module(mod, name, fmat)
    rep = generator_compatibility_report(cand)
    assert not rep["has_definite"] and not rep["has_indefinite"]
    assert rep["samples"] == 0
    cert = rep["certificate"]["indefinite"]
    assert rep["certificate"]["definite"] is cert
    assert cert.to_json()["kind"] == "common kernel"
    assert cert.kernel_dim == kernel_dim
    hitchin = family_hitchin_map([primitive_int_vector(f.coefficient_vector())
                                  for f in invariant_3forms(cand)])
    assert any(cert.kernel_vector) and hitchin.kills(cert.kernel_vector)


def test_verify_entry_passes_its_scan_config_to_the_generator_scans(
        monkeypatch):
    from g2forms import catalog

    seen = []
    scan = catalog.invariant_form_types

    def spy(mod, config=None):
        seen.append((mod.label, config))
        return scan(mod, config)

    monkeypatch.setattr(catalog, "invariant_form_types", spy)
    # with no config, the module and generator scans share the same default
    for config in (ScanConfig(grid=300, random=50, seed=3), None):
        for case, params in (("4ii", [0, 0]), ("6ii", [])):
            entry = next(e for e in load_catalog()
                         if e["case"] == case and e["params"] == params)
            seen.clear()
            verify_entry(entry, config)
            generator_scans = [label for label, _ in seen if "+" in label]
            assert generator_scans, case
            assert all(c is config for _, c in seen), seen


def test_verify_entry_judges_a_candidate_by_its_indefinite_class(
        monkeypatch):
    from g2forms import catalog

    scan = catalog.invariant_form_types

    def flipped_definite(mod, config=None):
        # every candidate's definite answer is the opposite of its
        # indefinite one; the generator verdicts must not move
        rep = scan(mod, config)
        if "+" in mod.label:
            rep = {**rep, "has_definite": not rep["has_indefinite"]}
        return rep

    monkeypatch.setattr(catalog, "invariant_form_types", flipped_definite)
    for case, params in (("4ii", [0, 0]), ("6ii", []), ("6iii", [])):
        entry = next(e for e in load_catalog()
                     if e["case"] == case and e["params"] == params)
        checks = [c for c in verify_entry(entry, SMALL_SCAN).checks
                  if c["name"].startswith("generator")]
        assert checks and all(c["pass"] for c in checks), checks


def test_verify_entry_builds_each_pending_v_matrix_once(monkeypatch):
    from g2forms import catalog

    mod = build_entry("4ii", (0, 0))
    entry = next(e for e in load_catalog()
                 if e["case"] == "4ii" and e["params"] == [0, 0])
    calls = []
    real = catalog.generator_v_matrix
    monkeypatch.setattr(catalog, "generator_v_matrix",
                        lambda *a: calls.append(1) or real(*a))
    assert verify_entry(entry, SMALL_SCAN, module=mod).passed
    assert len(calls) == len(mod.pending_generators) == 1


def test_detneg_generator_runs_no_scan(monkeypatch):
    from g2forms import catalog

    labels = []
    scan = catalog.invariant_form_types
    monkeypatch.setattr(catalog, "invariant_form_types",
                        lambda mod, config=None: labels.append(mod.label)
                        or scan(mod, config))
    entry = next(e for e in load_catalog() if e["case"] == "8-g2xR")
    rep = verify_entry(entry, SMALL_SCAN)
    assert {"name": "generator D7 det < 0 on V", "expected": True,
            "computed": True, "pass": True} in rep.checks
    assert labels == ["8-g2xR"]


def test_auxiliary_entry_is_not_a_table_row():
    entries = load_catalog()
    aux = [e for e in entries if e["table"] == "auxiliary"]
    assert [e["case"] for e in aux] == ["so3_7"]
    dims = invariant_dims(build_entry("so3_7"))
    assert (dims.d1, dims.d2, dims.d3) == (0, 1, 1)


def test_sign_spectrum_of_identities_and_a_conjugated_involution():
    assert _sign_spectrum(identity(5)) == [Fraction(1)] * 5
    minus = [[-x for x in row] for row in identity(5)]
    assert _sign_spectrum(minus) == [Fraction(-1)] * 5
    assert _sign_spectrum([]) == []
    # P diag(-1, -1, 1) P^-1 with P rational and not orthogonal
    p = [[Fraction(1), Fraction(2), Fraction(0)],
         [Fraction(0), Fraction(1, 3), Fraction(1)],
         [Fraction(1), Fraction(0), Fraction(-2)]]
    diag = [[Fraction(-1), 0, 0], [0, Fraction(-1), 0], [0, 0, Fraction(1)]]
    f = mat_mul(mat_mul(p, diag), inverse(p))
    assert f != diag
    assert _sign_spectrum(f) == [Fraction(-1)] * 2 + [Fraction(1)]
    assert charpoly(f) == sign_charpoly(2, 1)


def test_sign_spectrum_refuses_rotations_and_jordan_blocks():
    # a quarter turn has eigenvalues +-i; beside a fixed line, only the
    # line's 1 is rational, and the kernels do not fill V
    assert _sign_spectrum([[0, -1], [1, 0]]) is None
    assert _sign_spectrum([[0, -1, 0], [1, 0, 0], [0, 0, 1]]) is None
    # a rational spectrum [1, 1] but not diagonalizable: ker(f - 1) is a
    # line, so the route refuses it rather than report [1, 1]
    assert _sign_spectrum([[1, 1], [0, 1]]) is None


def test_a_definite_only_row_without_its_schur_certificate_fails(
        monkeypatch):
    # with no Schur certificate, 200 grid rays showing no indefinite member
    # prove nothing: each definite-only row reads "undecided" and fails
    # its check, where an unproved False would pass
    from g2forms import isotropy

    monkeypatch.setattr(isotropy, "schur_exclusion", lambda m: None)
    config = ScanConfig(grid=200, random=0)
    failed = {}
    for entry in load_catalog():
        exp = entry["expected"]
        if exp["has_definite"] and not exp["has_indefinite"]:
            checks = verify_entry(entry, config).checks
            failed[entry["case"]] = [(c["name"], c["computed"])
                                     for c in checks if not c["pass"]]
    assert failed == dict.fromkeys(
        ["2d", "7", "8-su4", "8-g2xR", "so3_7"],
        [("has indefinite", "undecided")])


def _transported(mod, rng):
    """mod in the V basis v'_i = d_i v_{s_i}, s a permutation and d signed
    scalings 1 to 3 drawn from rng: the action and the accepted generators
    become P^-1 A P, the gram P^T G P, the brackets [v'_i, v'_j] in the new
    coordinates and the V coordinates P^T V, for P the matrix with
    P[s_i][i] = d_i."""
    n = mod.dimV
    s = rng.sample(range(n), n)
    d = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(n)]

    def conj(a):
        return [[a[s[i]][s[j]] * Fraction(d[j], d[i]) for j in range(n)]
                for i in range(n)]

    def bracket(i, j):
        # d_i d_j [v_{s_i}, v_{s_j}], from the stored pairs a < b
        a, b = s[i], s[j]
        c = mod.brackets.get((min(a, b), max(a, b)), (0,) * n)
        sign = 1 if a < b else -1
        return [c[s[l]] * Fraction(sign * d[i] * d[j], d[l])
                for l in range(n)]

    return replace(
        mod, action=[conj(a) for a in mod.action],
        gram=[[mod.gram[s[i]][s[j]] * d[i] * d[j] for j in range(n)]
              for i in range(n)],
        brackets={ij: bracket(*ij) for ij in combinations(range(n), 2)},
        generators=[(name, conj(f)) for name, f in mod.generators],
        V_coords=[[d[i] * x for x in mod.V_coords[s[i]]] for i in range(n)]
        if mod.V_coords else ())


def test_a_change_of_v_basis_changes_no_check():
    # every check is an invariant of the pair: on each row's module in a
    # seeded sparse basis the default scan computes the shipped report
    fixture = Path(__file__).parent / "data" / "catalog_verify_default.json"
    shipped = json.loads(fixture.read_text())["report"]["entries"]
    rng = random.Random(13)
    for entry, expected in zip(load_catalog(), shipped, strict=True):
        mod = _transported(build_entry(entry["case"],
                                       entry.get("params", ())), rng)
        report = verify_entry(entry, module=mod).to_dict()
        assert json.loads(json.dumps(report)) == expected, entry["case"]
