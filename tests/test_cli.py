import argparse
import contextlib
import csv
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from g2forms import cli
from g2forms.catalog import claim, load_catalog
from g2forms.multilinear import KForm, form_from_json, form_to_json
from g2forms.stable_forms import PHI, PHITILDE


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "g2forms.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def write_form(tmp_path, name, form):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(form_to_json(form)))
    return str(path)


@pytest.mark.parametrize("form,expected", [
    (PHI, "definite"),
    (PHITILDE, "indefinite"),
    (KForm.basis(7, 1, 2, 3), "degenerate"),
])
def test_classify_references(tmp_path, form, expected):
    code, out, _ = run_cli("classify", write_form(tmp_path, "f", form))
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["class"] == expected
    assert "detB" in rep and "signature" in rep


def test_classify_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli("classify", str(bad))
    assert code == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(form_to_json(KForm.basis(7, 1, 2))))
    code, _, _ = run_cli("classify", str(wrong))
    assert code == 2
    code, _, _ = run_cli("classify", str(tmp_path / "missing.json"))
    assert code == 2


def test_classify_refuses_a_zero_denominator(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dim": 7, "degree": 3, "terms": [
        {"idx": [1, 2, 3], "c": "1/0"}]}))
    code, out, err = run_cli("classify", str(path))
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _phi_terms(**first):
    """The terms of PHI as a form file writes them, the first one edited."""
    terms = form_to_json(PHI)["terms"]
    return [{**terms[0], **first}] + terms[1:]


@pytest.mark.parametrize("obj", [
    {"dim": 7, "degree": 3, "terms": _phi_terms(idx="123")},
    {"dim": 7, "degree": 3, "terms": _phi_terms(idx=[1, 2, 3.0])},
    {"dim": 7, "degree": 3, "terms": _phi_terms(idx=[True, 2, 3])},
    {"dim": 7, "degree": 3, "terms": _phi_terms(idx={"1": 2})},
    {"dim": 7, "degree": 3, "terms": _phi_terms() + [
        {"idx": [1, 2, 3], "c": "2"}]},
    {"dim": 7, "degree": 3, "terms": _phi_terms() + [
        {"idx": [3, 2, 1], "c": "2"}]},
    {"dim": 7, "degree": 3, "terms": _phi_terms(c=0.1)},
    {"dim": 7, "degree": 3, "terms": _phi_terms(c=1.0)},
    {"dim": 7, "degree": 3, "terms": _phi_terms(c=True)},
    {"dim": 7, "degree": 3, "terms": _phi_terms(c=None)},
    {"dim": 7, "degree": 3, "terms": _phi_terms(c="0.25")},
    {"dim": 7, "degree": 3, "terms": _phi_terms(c="1e10000000")},
    {"dim": 7, "degree": 3, "terms": _phi_terms(c=" 1")},
    {"dim": 7.0, "degree": 3, "terms": _phi_terms()},
    {"dim": 7, "degree": "3", "terms": _phi_terms()},
], ids=["idx-string", "idx-float", "idx-bool", "idx-object",
        "index-set-twice", "index-set-twice-permuted", "c-float",
        "c-integral-float", "c-true", "c-null", "c-decimal", "c-exponent",
        "c-space", "dim-float", "degree-string"])
def test_classify_refuses_a_malformed_form_file(tmp_path, capsys, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code = cli.main(["classify", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("terms,expected", [
    (_phi_terms(c=1), "definite"),
    (_phi_terms(c="+3/2"), "definite"),
    (_phi_terms(idx=[2, 1, 3], c="-1"), "definite"),
    (_phi_terms(idx=[1, 1, 3]), "degenerate"),
], ids=["c-json-int", "c-signed-ratio", "idx-unsorted", "idx-repeated"])
def test_classify_reads_an_int_an_unsorted_and_a_repeated_index(
        tmp_path, capsys, terms, expected):
    # an unsorted idx is sorted with its sign; a repeated one is zero
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"dim": 7, "degree": 3, "terms": terms}))
    assert cli.main(["classify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["class"] == expected


def _form_objects(node):
    """Every form object (a dict with `terms`) in a report, at any depth."""
    if isinstance(node, dict):
        if "terms" in node:
            yield node
        for val in node.values():
            yield from _form_objects(val)
    elif isinstance(node, list):
        for val in node:
            yield from _form_objects(val)


def test_every_form_a_report_emits_reads_back_to_itself():
    forms = [obj for path in sorted((Path(__file__).parent / "data").glob(
        "*.json")) for obj in _form_objects(json.loads(path.read_text()))]
    assert len(forms) >= 3
    for obj in forms:
        assert form_to_json(form_from_json(obj)) == obj


def test_classify_refuses_the_catalog_only_flags(tmp_path):
    path = write_form(tmp_path, "f", PHI)
    for flag in ("--jobs", "--seed"):
        code, out, err = run_cli("classify", path, flag, "2")
        assert code == 2 and out == "" and "unrecognized" in err


def test_catalog_list():
    code, out, _ = run_cli("catalog", "list")
    assert code == 0
    entries = json.loads(out)["report"]["entries"]
    assert any(e["case"] == "1" for e in entries)


def test_catalog_verify_single_case():
    code, out, _ = run_cli("catalog", "verify", "--case", "1",
                           "--grid", "200", "--random", "50")
    assert code == 0
    rep = json.loads(out)["report"]["entries"][0]
    assert rep["pass"]


def test_catalog_verify_with_params():
    code, out, _ = run_cli("catalog", "verify", "--case", "5ii",
                           "--params", "1,2,-3", "--grid", "200",
                           "--random", "50")
    assert code == 0


def test_catalog_verify_refuses_unshipped_params():
    # another instance's expectations do not apply to (2, 3)
    code, out, err = run_cli("catalog", "verify", "--case", "3biii",
                             "--params", "2,3")
    assert code == 2
    assert out == ""
    assert "shipped params: 1,3; 1,-3" in err


def test_catalog_unknown_case_exit_2():
    code, _, err = run_cli("catalog", "verify", "--case", "A9")
    assert code == 2


@pytest.mark.parametrize("args,message", [
    ("invariants --case 3bii", "case '3bii' takes 2 parameters, got 0"),
    ("complex-ranks --case 4ii", "case '4ii' takes 2 parameters, got 0"),
    ("invariants --case 1 --params 5", "case '1' takes 0 parameters, got 1"),
    ("invariants --case so3_7 --params 3",
     "case 'so3_7' takes 0 parameters, got 1"),
])
def test_a_parameter_list_of_another_length_is_refused(args, message):
    # too few parameters must not end in a traceback, and superfluous ones
    # must not be ignored under the label of an unshipped instance
    code, out, err = run_cli(*args.split())
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {message}"]


def test_invariants_command():
    code, out, _ = run_cli("invariants", "--case", "2d")
    assert code == 0
    rep = json.loads(out)["report"]
    assert (rep["d1"], rep["d2"], rep["d3"]) == (0, 1, 1)


def test_complex_ranks_named_algebra():
    code, out, _ = run_cli("complex-ranks", "--algebra", "su2+t4")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["kernels"] == [1, 4, 9, 17, 23, 18, 7, 1]


def test_complex_ranks_labels_a_case_by_its_parameters(capsys):
    reports = {}
    for params in ("1,3", "1,-3"):
        code, out = run_main(capsys, "complex-ranks", "--case", "3biii",
                             "--params", params)
        assert code == 0
        reports[params] = json.loads(out)["report"]
    assert [(r["complex"], r["params"]) for r in reports.values()] == [
        ("3biii", [1, 3]), ("3biii", [1, -3])]
    # a named algebra has no parameters, and its report no params field
    code, out = run_main(capsys, "complex-ranks", "--algebra", "su2+t4")
    assert set(json.loads(out)["report"]) == {"complex", "dims", "ranks",
                                              "kernels"}


def test_section5_rank_chain_exit_zero_with_published_mismatch_visible():
    code, out, _ = run_cli("section5", "rank-chain")
    assert code == 0
    claims = json.loads(out)["report"]["claims"]
    published = [c for c in claims if c.get("published")]
    assert published and any(not c["pass"] for c in published)
    exact = [c for c in claims if not c.get("published")]
    assert all(c["pass"] for c in exact)


def test_section5_unknown_analysis():
    code, _, _ = run_cli("section5", "nearly-parallel", "--case", "bogus")
    assert code == 2


@pytest.mark.parametrize("args", [
    ("section5", "closed-scan", "--samples", "-5"),
    ("catalog", "verify", "--case", "2d", "--grid", "-1"),
    ("catalog", "verify", "--case", "2d", "--random", "-1"),
])
def test_negative_sample_counts_are_usage_errors(args):
    code, out, err = run_cli(*args)
    assert code == 2
    assert out == ""
    assert "non-negative" in err


@pytest.mark.parametrize("args", [
    ("example-429", "--samples", "3"),
    ("rank-chain", "--samples", "10000"),
    ("coclosed-family", "--algebra", "su2+t4"),
    ("nearly-parallel", "--case", "2d", "--algebra", "t7"),
    ("closed-scan", "--case", "2d"),
    ("example-429", "--case", "1"),
    ("rank-chain", "--seed", "5"),
    ("coclosed-family", "--seed", "0"),
    ("nearly-parallel", "--case", "2d", "--seed", "5"),
    ("example-429", "--seed", "0"),
])
def test_section5_options_of_another_analysis_are_usage_errors(args):
    # an option the analysis does not read is refused, not ignored
    code, out, err = run_cli("section5", *args)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_closed_scan_reports_its_exact_claims():
    code, out, _ = run_cli("section5", "closed-scan", "--algebra", "su2+t4")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["samples"] == 0 and "counts" not in rep
    assert {c["name"]: c["computed"] for c in rep["claims"]} == {
        "no stable closed sample found": False,
        "every closed invariant 3-form is degenerate": True}
    code, out, _ = run_cli("section5", "closed-scan", "--algebra", "2su2+u1")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["certificate"]["definite"]["indices"] == [6]
    assert [c["name"] for c in rep["claims"]] == [
        "no closed invariant 3-form is definite"]


def test_closed_scan_witness_does_not_depend_on_the_seed(capsys):
    # the indefinite witness is the first ray of the grid, met before any
    # seeded draw
    outs = set()
    for seed in ("0", "1", "7"):
        code, out = run_main(capsys, "section5", "closed-scan", "--algebra",
                             "2su2+u1", "--seed", seed, "--format", "json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_octonion_alignment_command():
    code, out, _ = run_cli("octonion-alignment")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["split"]["claims"][0]["pass"]
    assert rep["compact"]["claims"][0]["pass"]


def test_deterministic_output_under_fixed_seed():
    args = ("section5", "closed-scan", "--samples", "300", "--seed", "11")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_emit_config_and_version_header():
    code, out, _ = run_cli("invariants", "--case", "7", "--emit-config")
    payload = json.loads(out)
    assert payload["version"]
    assert payload["catalog"]
    assert payload["config"]["case"] == "7"


def test_section5_emit_config_prints_the_filled_in_defaults(capsys):
    # each analysis prints the defaults of the options it reads, and only
    # those
    configs = {}
    for analysis in ("closed-scan", "example-429", "rank-chain"):
        code, out = run_main(capsys, "section5", analysis, "--emit-config")
        assert code == 0
        configs[analysis] = json.loads(out)["config"]
    assert (configs["closed-scan"]["samples"],
            configs["closed-scan"]["seed"]) == (10_000, 0)
    assert not {"samples", "seed"} & set(configs["example-429"])
    assert not {"samples", "seed"} & set(configs["rank-chain"])


#: arguments a leaf command needs before it parses
REQUIRED_ARGS = {"classify": ["form.json"], "invariants": ["--case", "2d"],
                 "complex-ranks": ["--case", "2d"]}


def _leaves(parser, path=()):
    """(command path, parser) of every leaf of the command tree."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaves(child, path + (name,))


def test_emit_config_prints_exactly_the_options_a_leaf_declares(capsys):
    # the config is the parsed namespace, so it cannot drift from the parser
    leaves = list(_leaves(cli.make_parser()))
    assert [" ".join(path) for path, _ in leaves] == [
        "classify", "catalog list", "catalog verify", "invariants",
        "complex-ranks", "section5 rank-chain", "section5 coclosed-family",
        "section5 closed-scan", "section5 nearly-parallel",
        "section5 example-429", "octonion-alignment"]
    for path, leaf in leaves:
        argv = [*path, *REQUIRED_ARGS.get(path[0], []), "--emit-config"]
        args = cli.make_parser().parse_args(argv)
        cli.emit({}, args)
        config = json.loads(capsys.readouterr().out)["config"]
        declared = {a.dest for a in leaf._actions
                    if a.dest not in ("help", "emit_config")}
        if path[0] == "section5":
            declared.add("analysis")
        assert set(config) == declared, path
        assert "format" in config


def usage_error(capsys, *args):
    """stderr of a command that argparse refuses with exit 2."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(args))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    return err


def test_catalog_verify_refuses_params_without_case():
    # the parameters of no case would select nothing, not every row
    code, out, err = run_cli("catalog", "verify", "--params", "1,3")
    assert (code, out) == (2, "")
    assert "--params needs --case" in err


def test_catalog_list_refuses_every_verify_option(capsys):
    for option in ("--case 1", "--params 1,3", "--grid 5", "--random 5",
                   "--seed 3", "--jobs 2"):
        err = usage_error(capsys, "catalog", "list", *option.split())
        assert "unrecognized arguments" in err


def test_complex_ranks_takes_one_of_case_and_algebra(capsys):
    err = usage_error(capsys, "complex-ranks")
    assert "one of the arguments --case --algebra is required" in err
    err = usage_error(capsys, "complex-ranks", "--algebra", "su2+t4",
                      "--case", "1")
    assert "not allowed with" in err
    code, out, err = run_cli("complex-ranks", "--algebra", "su2+t4",
                             "--params", "9,9")
    assert (code, out) == (2, "")
    assert "--params needs --case" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_catalog_verify_jobs_must_be_positive(capsys, jobs):
    err = usage_error(capsys, "catalog", "verify", "--jobs", jobs)
    assert "expected a positive integer" in err


def test_csv_format():
    code, out, _ = run_cli("catalog", "verify", "--case", "so3_7",
                           "--grid", "100", "--random", "20",
                           "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "name,expected,computed,pass"


def test_importing_the_package_does_not_load_numpy():
    # numpy is imported lazily, inside the float metric and star code
    code = ("import importlib, pkgutil, sys, g2forms\n"
            "names = [m.name for m in pkgutil.iter_modules(g2forms.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('g2forms.' + name)\n"
            "print(' '.join(sorted(names)), 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "catalog", "cli", "homogeneous", "isotropy", "liealg", "linalg",
        "multilinear", "octonion", "scan", "section5", "stable_forms",
        "False"]


def test_no_module_loads_sympy():
    # the certified split and the rational spectra need no computer algebra
    code = ("import importlib, pkgutil, sys, g2forms\n"
            "for m in pkgutil.iter_modules(g2forms.__path__):\n"
            "    importlib.import_module('g2forms.' + m.name)\n"
            "from g2forms.catalog import load_catalog, verify_entry\n"
            "from g2forms.scan import ScanConfig\n"
            "entry = next(e for e in load_catalog()\n"
            "             if e['case'] == '4ii' and e['params'] == [0, 0])\n"
            "rep = verify_entry(entry, ScanConfig(grid=400, random=100))\n"
            "print(rep.passed, 'sympy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]



#: a run of every command whose report carries claims
CLAIM_COMMANDS = [
    ("section5", "rank-chain"),
    ("section5", "coclosed-family"),
    ("section5", "example-429"),
    *[("section5", "nearly-parallel", "--case", case)
      for case in ("2d", "7", "1", "2ci", "3aiii")],
    *[("section5", "closed-scan", "--algebra", alg, "--samples", "200",
       "--seed", "3") for alg in ("su2+t4", "t7", "2su2+u1")],
    ("catalog", "verify", "--case", "4ii", "--grid", "200", "--random", "50"),
    ("catalog", "verify", "--case", "8-g2xR", "--grid", "200",
     "--random", "50"),
    ("invariants", "--case", "2d"),
    ("octonion-alignment",),
]


def test_every_claim_command_runs_without_numpy():
    # no claim rests on float linear algebra: with numpy blocked, every
    # command exits as it does with numpy (0; see the test below)
    code = ("import contextlib, io, json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from g2forms import cli\n"
            "codes = []\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        try:\n"
            "            codes.append(cli.main(args))\n"
            "        except ImportError as exc:\n"
            "            codes.append(repr(exc))\n"
            "print(json.dumps(codes))\n")
    proc = subprocess.run([sys.executable, "-c", code,
                           json.dumps(CLAIM_COMMANDS)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert dict(zip(map(" ".join, CLAIM_COMMANDS),
                    json.loads(proc.stdout))) == \
        {" ".join(args): 0 for args in CLAIM_COMMANDS}


def run_main(capsys, *args):
    code = cli.main(list(args))
    return code, capsys.readouterr().out


def claims_in(report):
    """The records of every `claims` or `checks` list, at any depth."""
    if isinstance(report, dict):
        for key, val in report.items():
            if key in ("claims", "checks"):
                yield from val
            else:
                yield from claims_in(val)
    elif isinstance(report, list):
        for val in report:
            yield from claims_in(val)


@pytest.mark.parametrize("args", CLAIM_COMMANDS, ids=" ".join)
def test_every_claim_is_one_record_and_one_csv_row(capsys, args):
    code, out = run_main(capsys, *args)
    assert code == 0
    claims = list(claims_in(json.loads(out)["report"]))
    for c in claims:
        assert set(c) - {"published"} == {"name", "expected", "computed",
                                          "pass"}, c
        # every published-value comparison, and only those, is flagged
        assert c.get("published") is (True if c["name"].startswith(
            "published") else None), c
    _, out = run_main(capsys, *args, "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "expected", "computed", "pass"]
    # the JSON sorts its keys, the report keeps their order
    assert sorted(r[0] for r in rows[1:]) == sorted(c["name"] for c in claims)
    _, out = run_main(capsys, *args, "--format", "human")
    if claims:
        assert len(out.splitlines()) == len(claims)


def test_exit_code_counts_failed_claims_but_not_published_ones(capsys):
    args = argparse.Namespace(format="human")
    report = {"a": {"claims": [claim("x", 1, 2), claim("y", 1, 1),
                               claim("z", 1, 2, published=True)]},
              "b": [{"checks": [claim("w", Fraction(2, 2), 1),
                                claim("v", 0, 1)]}]}
    assert cli.emit(report, args) == 2
    assert cli.emit({"claims": [claim(str(i), 0, 1) for i in range(200)]},
                    args) == 125
    capsys.readouterr()


def test_catalog_verify_exits_with_the_failed_check_count(monkeypatch,
                                                          capsys):
    # one entry failing two checks exits 2, not 1 per failed entry
    entry = next(e for e in load_catalog() if e["case"] == "2d")
    wrong = {**entry, "expected": {**entry["expected"], "d1": 1, "d2": 0}}
    monkeypatch.setattr(cli, "load_catalog", lambda: [wrong])
    code, out = run_main(capsys, "catalog", "verify", "--case", "2d",
                         "--grid", "200", "--random", "50")
    checks = json.loads(out)["report"]["entries"][0]["checks"]
    assert [c["name"] for c in checks if not c["pass"]] == ["d1", "d2"]
    assert code == 2


def test_catalog_verify_jobs_gives_the_same_bytes(monkeypatch, capsys):
    rows = [e for e in load_catalog() if e["case"] in ("2d", "4ii")]
    assert len(rows) == 3
    monkeypatch.setattr(cli, "load_catalog", lambda: rows)
    runs = [run_main(capsys, "catalog", "verify", "--jobs", jobs,
                     "--grid", "200", "--random", "50")
            for jobs in ("1", "2")]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    assert len(json.loads(runs[0][1])["report"]["entries"]) == 3


#: `catalog verify --format json` over all 23 rows at the default scan, as
#: stdout; a fixture, regenerated only by a change meant to alter the report
VERIFY_FIXTURE = Path(__file__).parent / "data" / "catalog_verify_default.json"


@pytest.fixture(scope="module")
def default_verify():
    """(exit code, stdout) of the default `catalog verify`, run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["catalog", "verify", "--format", "json"])
    return code, out.getvalue()


def test_catalog_verify_prints_the_committed_report_byte_for_byte(
        default_verify):
    assert default_verify[1].encode() == VERIFY_FIXTURE.read_bytes()


def test_catalog_verify_of_every_row_exits_0(default_verify):
    assert default_verify[0] == 0


#: the float-free reports pinned byte for byte: fixture name -> arguments.
#: Each fixture is the stdout of `g2forms <arguments> --format json`,
#: regenerated only by a change meant to alter that report.
EXACT_REPORTS = {
    "section5_rank-chain": ("section5", "rank-chain"),
    "section5_coclosed-family": ("section5", "coclosed-family"),
    "section5_example-429": ("section5", "example-429"),
    "section5_closed-scan_su2+t4": ("section5", "closed-scan", "--algebra",
                                    "su2+t4"),
    "section5_closed-scan_2su2+u1": ("section5", "closed-scan", "--algebra",
                                     "2su2+u1"),
    "section5_closed-scan_t7": ("section5", "closed-scan", "--algebra", "t7"),
    **{f"section5_nearly-parallel_{case}": ("section5", "nearly-parallel",
                                           "--case", case)
       for case in ("2d", "7", "1", "2ci", "3aiii")},
    "octonion-alignment": ("octonion-alignment",),
}


@pytest.mark.parametrize("name", list(EXACT_REPORTS))
def test_exact_report_prints_the_committed_json_byte_for_byte(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*EXACT_REPORTS[name], "--format", "json"])
    assert code == 0
    fixture = Path(__file__).parent / "data" / f"{name}.json"
    assert out.getvalue().encode() == fixture.read_bytes()
