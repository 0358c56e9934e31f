"""The g2forms benchmark: one workload in one fresh, single-threaded process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from `src/` and
fails with exit code 2 when that is missing.  Workloads (see `workloads.py`
for what each covers and why):

  catalog-sweep    build_entry + verify_entry over the catalog rows listed
                   there, at the default ScanConfig seeded with --seed
  rigidity         the section5 reports listed there, once each
  classify-stream  classification_report on seeded forms with an exact
                   oracle (`formgen.py`), batch after batch

catalog-sweep and rigidity are one fixed pass each; classify-stream repeats
fixed-composition batches until the next one would end after --seconds.
Every operation's output is checked; an exception or a wrong answer counts
as a failed operation.

Every time in the result is in reference seconds: measured seconds times
KERNEL_NOMINAL_S over the time of a reference kernel (fixed loops of
Fraction arithmetic) taken at the same moment in the same process.  On a
shared 2-core VM the speed of the machine swings by up to half within a
second and stays in one state for seconds to minutes; the kernel, the same
kind of interpreter-bound Fraction work as the package, swings with it.
During a pass a timer signal runs the kernel every PROBE_EVERY_S seconds,
in the middle of an operation too; its time is taken out of the operation,
and each operation is scaled by the mean of the samples taken during it and
the one just before and just after it.  A set-up probe times the kernel
just before and after its imports.  Raw seconds are in the details line;
the per-layer seconds of a traced run are raw.

With --trace 0 the last stdout line carries the end-to-end metrics:
  setup_s      median, over fresh processes, of importing every g2forms
               module and running load_catalog()
  wall_s       median time of one pass of the workload's fixed work
  op_p50_ms    median time of one operation (entry, report or form)
  op_tail_ms   highest percentile with at least ten operations beyond it,
               not below the median; the slowest operation when no
               percentile qualifies (the percentile and the operation count
               are in the details line)
  peak_rss_mb  peak resident memory of the measuring process
With --trace 1 it runs one pass with spans around the traced functions of
`tracer.py` and reports their calls, inclusive and self seconds, the work
counters, and the tracing overhead against an untraced run of the same
seed started as a child process.  trace.cover is the share of the traced
pass inside spans, trace.inner_cover the share inside spans below the
functions the workload calls directly; what they miss is time no traced
layer accounts for.  The counters must repeat exactly: a traced run
compares them with any earlier traced run of the same workload, seed and
source files, and fails on a difference.  Spans and counters are written
to perfbench/out/.

The line before the last is a JSON "details" object: environment, raw
seconds, per operation times and problems, tail percentile, and fail_ratio.
"""

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("catalog-sweep", "rigidity", "classify-stream")
SETUP_PROBES = 5
REF_TIMEOUT_S = 170
PROBE_EVERY_S = 0.1
KERNEL_TERMS = 750
KERNEL_NOMINAL_S = 0.005    # about the kernel's time on the 2-core VM

SETUP_CODE = """\
import time
from run import kernel_time
k0 = kernel_time()
t0 = time.perf_counter()
import g2forms.linalg, g2forms.multilinear, g2forms.stable_forms
import g2forms.octonion, g2forms.liealg, g2forms.homogeneous
import g2forms.catalog, g2forms.section5, g2forms.cli
g2forms.catalog.load_catalog()
t1 = time.perf_counter()
print(t1 - t0, (k0 + kernel_time()) / 2)
"""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_seconds():
    """Set-up time of one fresh process, measured inside it: (raw seconds,
    reference seconds)."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(),
                         capture_output=True, text=True, timeout=120,
                         check=True)
    raw, kernel = map(float, out.stdout.split())
    return raw, raw * KERNEL_NOMINAL_S / kernel


def tail(samples, beyond=10):
    """(value, percentile, count) of the highest percentile with at least
    `beyond` samples above it, not below the median; the maximum when no
    percentile qualifies."""
    xs = sorted(samples)
    n = len(xs)
    k = n - beyond                      # order statistic with `beyond` above
    if k < (n + 1) // 2 or k < 1:
        return xs[-1], 100.0, n
    return xs[k - 1], 100.0 * k / n, n


def reference_kernel():
    """Fixed Fraction work, on small and on 500-bit numbers as the package
    does; its time tracks the speed of the machine."""
    total = Fraction(0)
    for i in range(1, KERNEL_TERMS):
        total += Fraction(1, i % 97 + 1)
    a, b = 3 ** 300, 7 ** 200
    for i in range(1, KERNEL_TERMS // 7):
        total = Fraction(a + i, b + i) * Fraction(b - i, a + 2 * i)
    return total


def kernel_time():
    """Median time of three runs of the reference kernel."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedProbe:
    """Reference-kernel times sampled on SIGALRM, and the time they took.

    Python runs the handler in the main thread between bytecodes, so
    samples are taken while an operation runs as well as between them.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def kernel_s(self, first, last):
        """Mean sample from the one before index `first` to index `last`
        (the samples taken during an operation and one on each side)."""
        window = self.samples[max(first - 1, 0):last + 1]
        return statistics.fmean(window)


def environment():
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_implementation() + " "
                  + platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "python-flint": importlib.util.find_spec("flint") is not None,
        "commit": commit,
        "source_sha256": source_hash(),
    }


def source_hash():
    """Hash of the package sources and data and of the benchmark itself."""
    h = hashlib.sha256()
    files = sorted(p for p in (SRC / "g2forms").rglob("*")
                   if p.suffix in (".py", ".json"))
    files += sorted(BENCH_DIR.glob("*.py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_passes(workload, seed, seconds, tracer=None):
    """Run whole passes; time each operation; check each output untimed.

    Returns the operations, with raw and reference seconds ("s", "ref_s"),
    each pass's operations, and the kernel samples.
    """
    import workloads

    ops, passes, spans = [], [], []
    with SpeedProbe() as probe:
        began = time.perf_counter()
        for ops_of_pass in workloads.WORKLOADS[workload](seed):
            first = len(ops)
            for op in ops_of_pass:
                if tracer is not None:
                    tracer.op = len(ops)
                n0, spent0 = len(probe.samples), probe.spent
                t0 = time.perf_counter()
                try:
                    result = op.run()
                    problems = None
                except Exception:           # a raising operation has failed
                    problems = ["raised: " + traceback.format_exc(limit=3)]
                probe_s = probe.spent - spent0
                dt = time.perf_counter() - t0 - probe_s
                spans.append((n0, len(probe.samples)))
                if problems is None:
                    try:
                        problems = op.check(result)
                    except Exception:
                        problems = ["check raised: "
                                    + traceback.format_exc(limit=3)]
                ops.append({"op": op.label, "s": dt, "probe_s": probe_s,
                            "problems": problems})
            passes.append(ops[first:])
            if tracer is not None:
                break
            elapsed = time.perf_counter() - began
            if elapsed + elapsed / len(passes) > seconds:  # next ends late
                break
    for op, (n0, n1) in zip(ops, spans):
        op["ref_s"] = op["s"] * KERNEL_NOMINAL_S / probe.kernel_s(n0, n1)
    return ops, passes, probe.samples


def result_line(ops, metrics, extra_problems=()):
    failed = sum(1 for op in ops if op["problems"])
    correct = failed == 0 and not extra_problems
    return {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def _pass_sums(passes, key):
    return [sum(op[key] for op in ops) for ops in passes]


def untraced(args):
    setups = [setup_seconds() for _ in range(SETUP_PROBES)]
    ops, passes, kernel = run_passes(args.workload, args.seed, args.seconds)

    def summary(key):
        ms = [1000.0 * op[key] for op in ops]
        return (statistics.median(_pass_sums(passes, key)),
                statistics.median(ms), tail(ms))

    wall, p50, (tail_ms, tail_pct, n) = summary("ref_s")
    raw_wall, raw_p50, raw_tail = summary("s")
    metrics = {
        "setup_s": {"value": statistics.median(r for _, r in setups),
                    "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "op_p50_ms": {"value": p50, "unit": "ms"},
        "op_tail_ms": {"value": tail_ms, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    line = result_line(ops, metrics)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": 0,
        "environment": environment(),
        "raw": {"setup_s": statistics.median(r for r, _ in setups),
                "wall_s": raw_wall, "op_p50_ms": raw_p50,
                "op_tail_ms": raw_tail[0]},
        "op_tail": {"percentile": tail_pct, "operations": n},
        "kernel_s": {"median": statistics.median(kernel), "min": min(kernel),
                     "max": max(kernel), "samples": len(kernel)},
        "passes": len(passes), "setup_probes": setups,
        "fail_ratio": line["failed"] / len(ops),
        "operations": ops,
    }
    return details, line


def traced(args):
    # the untraced reference runs first, in a fresh process of its own
    ref = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=REF_TIMEOUT_S, cwd=ROOT)
    problems = []
    try:
        ref_line = json.loads(ref.stdout.strip().splitlines()[-1])
        ref_wall = ref_line["metrics"]["wall_s"]["value"]
        if not ref_line["correct"]:
            problems.append("the untraced reference run was not correct")
    except (IndexError, KeyError, ValueError):
        ref_wall = 0.0
        problems.append("the untraced reference run gave no result: "
                        + ref.stderr[-2000:])

    from tracer import Tracer, layer_metric_names

    tracer = Tracer()
    tracer.install()
    try:
        ops, passes, _ = run_passes(args.workload, args.seed,
                                    args.seconds, tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    # spans include the speed probe's time, so compare them with the
    # operations' time before the probe's share is taken out
    gross = _pass_sums(passes, "s")[0] + _pass_sums(passes, "probe_s")[0]
    wall = _pass_sums(passes, "ref_s")[0]
    metrics = {name: {"value": summary[name], "unit": unit}
               for name, unit in layer_metric_names()}
    metrics.update({
        "trace.wall_s": {"value": wall, "unit": "s"},
        "trace.untraced_wall_s": {"value": ref_wall, "unit": "s"},
        "trace.overhead_s": {"value": wall - ref_wall, "unit": "s"},
        "trace.cover": {"value": summary["_root_s"] / gross,
                        "unit": "ratio"},
        "trace.inner_cover": {"value": summary["_root_child_s"] / gross,
                              "unit": "ratio"},
    })

    env = environment()
    counters = {name: m["value"] for name, m in metrics.items()
                if m["unit"] == "count"}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record = OUT / f"counters-{stem}-{env['source_sha256'][:16]}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        differ = sorted(k for k in counters if counters[k] != earlier.get(k))
        if differ:
            problems.append("work counters differ from an earlier traced run "
                            f"with the same seed and sources: {differ}")
    else:
        record.write_text(json.dumps(counters, indent=1, sort_keys=True))
    tracer.save(OUT / f"spans-{stem}.npz")

    line = result_line(ops, metrics, problems)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "environment": env, "spans": len(tracer.fid),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": problems,
        "fail_ratio": line["failed"] / len(ops),
        "operations": ops,
    }
    return details, line


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"       # one thread, set before numpy loads
    if not (SRC / "g2forms" / "__init__.py").is_file():
        print(f"error: no g2forms package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    details, line = (traced if args.trace else untraced)(args)
    print(json.dumps({"details": details}, default=str))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
