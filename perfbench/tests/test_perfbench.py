"""Tests of the benchmark itself: the classify-stream oracle, the tail rule,
the tracer, and that the printed metrics match BENCHMARK.json.

Run from the repository root with the package on the path:
    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import formgen  # noqa: E402
import run  # noqa: E402

from g2forms.multilinear import KForm, pullback  # noqa: E402
from g2forms.stable_forms import classification_report  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _identity(scale=None):
    g = [[Fraction(int(i == j)) for j in range(7)] for i in range(7)]
    if scale:
        for i, s in scale.items():
            g[i][i] = Fraction(s)
    return g


def _classify(case):
    return classification_report(KForm.make(7, 3, list(case.terms.items())))


@pytest.mark.parametrize("g, ref, cls, detb, sig", [
    (_identity(), "phi", "definite", 279936, [7, 0]),
    (_identity({0: -1}), "phi", "definite", -279936, [0, 7]),
    (_identity(), "phitilde", "indefinite", 279936, [3, 4]),
    (_identity({3: 2}), "phitilde", "indefinite", 279936 * 2 ** 9, [3, 4]),
    (_identity({6: -1}), "phitilde", "indefinite", -279936, [4, 3]),
])
def test_oracle_on_fixed_forms(g, ref, cls, detb, sig):
    case = formgen.case_for(g, ref)
    assert case.expected_class == cls
    assert case.expected_detB == detb
    assert list(case.expected_signature) == sig
    report = _classify(case)
    assert report == {"class": cls, "detB": str(detb), "signature": sig}
    assert formgen.check_report(case, report) == []


def test_oracle_on_a_singular_map():
    g = _identity({4: 0})
    case = formgen.case_for(g, "phi")
    assert case.expected_class == "degenerate" and case.expected_detB == 0
    assert formgen.check_report(case, _classify(case)) == []


def test_oracle_flags_wrong_answers():
    case = formgen.case_for(_identity(), "phi")
    right = {"class": "definite", "detB": "279936", "signature": [7, 0]}
    assert formgen.check_report(case, right) == []
    for key, wrong in (("class", "indefinite"), ("detB", "279937"),
                       ("signature", [0, 7])):
        assert formgen.check_report(case, {**right, key: wrong})


def test_pullback_matches_the_package():
    rng = random.Random(3)
    g = formgen._matrix(rng, "dense", "high", singular=False)
    terms = {k: Fraction(v) for k, v in formgen.PHI_TERMS.items()}
    mine = formgen.pullback3(g, terms)
    theirs = pullback(g, KForm.make(7, 3, list(terms.items())))
    assert KForm.make(7, 3, list(mine.items())) == theirs


def test_batches_are_seeded_and_of_fixed_composition():
    a, b = formgen.batch(5, 0), formgen.batch(5, 0)
    assert [c.terms for c in a] == [c.terms for c in b]
    assert [c.terms for c in a] != [c.terms for c in formgen.batch(6, 0)]
    strata = sorted(c.stratum for c in a)
    assert strata == sorted(s for s, k in formgen.STRATA.items()
                            for _ in range(k))
    sparse = [c for c in a if c.stratum[0] == "sparse"]
    assert all(len(c.terms) == 7 for c in sparse)
    assert all(formgen.check_report(c, _classify(c)) == [] for c in a)


@pytest.mark.parametrize("n, value, pct", [
    (100, 90, 90.0),     # ten samples beyond the 90th percentile
    (20, 10, 50.0),      # the rule's percentile is the median itself
    (19, 19, 100.0),     # it would fall below the median: the maximum
    (5, 5, 100.0),       # no percentile has ten samples beyond: the maximum
])
def test_tail_rule(n, value, pct):
    samples = list(range(n, 0, -1))
    assert run.tail(samples) == (value, pct, n)


def test_kernel_window_takes_one_sample_on_each_side():
    probe = run.SpeedProbe()
    probe.samples = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert probe.kernel_s(2, 2) == 2.5      # no sample during: 2.0, 3.0
    assert probe.kernel_s(1, 3) == 2.5      # 2.0, 3.0 during: 1.0 .. 4.0
    assert probe.kernel_s(0, 0) == 1.0


def test_probe_samples_during_an_operation_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedProbe() as probe:
        t_end = time.perf_counter() + 4 * run.PROBE_EVERY_S
        while time.perf_counter() < t_end:
            pass
    assert len(probe.samples) >= 4
    assert probe.spent >= sum(probe.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_counts_repeat_and_nest():
    from g2forms import stable_forms
    from tracer import Tracer

    original = stable_forms.classification_report
    summaries = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert stable_forms.classification_report is not original
            for case in formgen.batch(1, 0)[:6]:
                stable_forms.classification_report(
                    KForm.make(7, 3, list(case.terms.items())))
        finally:
            tracer.uninstall()
        assert stable_forms.classification_report is original
        summaries.append(tracer.summary())
    counts = [{k: v for k, v in s.items() if k.endswith((".calls", ".cells",
                                                          ".samples"))}
              for s in summaries]
    assert counts[0] == counts[1]
    s = summaries[0]
    assert s["stable_forms.classification_report.calls"] == 6
    # hitchin_bilinear is reached from another module: still counted
    assert s["stable_forms.hitchin_bilinear.calls"] == 6
    assert s["linalg.charpoly.calls"] == 6
    for name in s:
        if name.endswith(".self_s"):
            assert 0 <= s[name] <= s[name[:-len("self_s")] + "s"] + 1e-9


def _result(cmd):
    out = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *cmd],
                         capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _names(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_workload_names_match():
    import workloads

    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    line = _result(["--workload", "classify-stream", "--seed", "0",
                    "--seconds", "0", "--trace", str(trace)])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    printed = {k: m["unit"] for k, m in line["metrics"].items()}
    assert printed == _names(section)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "rigidity", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], capture_output=True, text=True,
                         timeout=60, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
