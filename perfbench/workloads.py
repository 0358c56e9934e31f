"""The three workloads: their fixed work, one operation at a time, and the
checks on every output.

catalog-sweep   `g2forms catalog verify` entry by entry: build_entry, then
                verify_entry at the default ScanConfig seeded with the
                workload seed.  19 of the 23 shipped rows, to keep a run
                under a minute: of the two definite-only 8-dimensional rows,
                whose exhaustive scans run the same code, only 8-g2xR is
                kept, and of each case with two parameter instances only
                the first.
                Stresses the scans (classify_coeffs on sparse small-integer
                samples), build_entry and Fraction elimination.
rigidity        section5 reports, once each: rank-chain, coclosed-family,
                example-429 (workload seed), nearly-parallel for 2d, 7 and
                2ci.  Of the three two-parameter nearly-parallel cases,
                which share one code path, only 2ci is kept (about 20 s
                each).
                Stresses the metric, the signature (charpoly) and the Hodge
                star, and the invariant complexes.
classify-stream classification_report on generated forms (formgen.py) of
                mixed sparsity, coefficient height and orbit: dense rational
                input, where the catalog scans feed sparse small integers.

An operation is one entry, one report or one form.  A check that finds a
problem marks its operation failed.
"""

import math
from dataclasses import dataclass
from typing import Callable

import formgen
from g2forms import catalog, section5, stable_forms
from g2forms.liealg import ScanConfig
from g2forms.multilinear import KForm

#: rows of the catalog-sweep, with every check each must still carry and
#: the value it computes (catalog.json may not change the answers)
CORE = ("ker isotropy = 0", "d1", "d2", "d3", "d3 = d1 + d2",
        "irreducible dims", "has definite", "has indefinite")


def _core(d1, d2, irr, definite=True, indefinite=True):
    return dict(zip(CORE, (0, d1, d2, d1 + d2, d1 + d2, irr, definite,
                           indefinite)))


SWEEP = {
    ("1", ()): _core(0, 2, [3, 4]),
    ("2ai", ()): {**_core(0, 3, [1, 3, 3]),
                  "generator D14 fixes family setwise": True},
    ("2ci", ()): {**_core(0, 2, [1, 1, 1, 4]),
                  "generator 2T-0 fixes family setwise": True,
                  "generator 2T-1 fixes family setwise": True},
    ("2cii", ()): _core(3, 7, [1, 1, 1, 4]),
    ("2aiii", ()): _core(1, 4, [1, 3, 3]),
    ("3bii", (1, 1)): _core(1, 3, [1, 2, 4]),
    ("3biii", (1, 3)): _core(1, 3, [1, 2, 4]),
    ("3aiii", ()): _core(0, 2, [3, 4]),
    ("4i", ()): {**_core(0, 4, [1, 2, 2, 2]),
                 "generator A12-triple V-spectrum":
                     ["-1", "-1", "-1", "-1", "1", "1", "1"],
                 "generator A12-triple fixes family setwise": True},
    ("4ii", (0, 0)): {**_core(1, 4, [1, 2, 2, 2]),
                      "generator B23-swap rejected (no indefinite fixed "
                      "form)": False,
                      "generator B23-swap V-spectrum":
                          ["-1", "-1", "-1", "1", "1", "1", "1"]},
    ("5i", (0, 0)): _core(3, 10, [1, 1, 1, 2, 2]),
    ("5ii", (1, 2, -3)): _core(1, 4, [1, 2, 2, 2]),
    ("2d", ()): _core(0, 1, [7], indefinite=False),
    ("7", ()): _core(0, 1, [7], indefinite=False),
    ("8-g2xR", ()): {**_core(1, 2, [1, 6], indefinite=False),
                     "generator D7 det < 0 on V": True},
    ("6i", ()): _core(7, 28, [1] * 7),
    ("6ii", ()): {**_core(7, 28, [1] * 7),
                  "generator R5-fixing-rotation rejected (no indefinite "
                  "fixed form)": False},
    ("6iii", ()): {**_core(7, 28, [1] * 7),
                   "generator diagonal-rotation admits an indefinite fixed "
                   "form": True,
                   "generator cyclic-pair-rotation admits an indefinite "
                   "fixed form": True},
    ("so3_7", ()): _core(0, 1, [7], indefinite=False),
}

#: every claim of each rigidity report, published-value claims included,
#: with the value it computes
CHAIN = [3, 9, 12, 17, 18]
RIGIDITY = {
    "rank-chain": {
        "dim d(Omega^1)": 3,
        "published dim ker d|Omega^2": 9,
        "published dim d(Omega^3)": 18,
        "published coclosed family dimension": 23,
        "identical ranks under both su(2) conventions": CHAIN,
        "cohomology matches the product formula": [1, 4, 6, 5, 5, 6, 4, 1],
        "exact chain": CHAIN,
        "exact coclosed family dimension (ker d|Omega^4)": 23,
        "dual 4-form of the reference has an exact primitive": True,
    },
    "coclosed-family": {
        "phi+ is coclosed": True,
        "phi- is coclosed": True,
        "family dimensions agree for phi+ and phi-": 23,
        "published family dimension": 23,
        "exact family dimension": 23,
        "torus family is the whole space": 35,
    },
    "example-429": {
        "block stabilizer dimension": 6,
        "invariant 3-form family dimension": 2,
        "invariant 4-form family dimension": 2,
        "w4567 and the dual reference span the family": True,
        "printed second generator is invariant": False,
        "metric display holds at sample points (factor 2, roles swapped)":
            True,
        "det vanishes exactly on a(2a+3b) = 0": True,
        "degenerate exactly on the two lines": True,
        "positive side is definite": [7, 0],
        "negative side has split signature {3, 4}": [3, 4],
    },
    "nearly-parallel-2d": {
        "ray is nearly parallel": True,
        "lambda is nonzero": True,
        "no invariant 2-form": 0,
    },
    "nearly-parallel-7": {
        "ray is nearly parallel": True,
        "lambda is nonzero": True,
        "no invariant 2-form": 0,
    },
    "nearly-parallel-2ci": {
        "exactly one nearly parallel ray in the definite cone": 1,
        "all stable rays on a 200-point grid are coclosed": True,
        "published dim of the d-image of the family": 2,
    },
}
#: float lambda of the nearly parallel ray, as recorded; checked to 1e-9
LAMBDA = {"nearly-parallel-2d": 12.260950918296848,
          "nearly-parallel-7": 6.0,
          "nearly-parallel-2ci": -4.130856733660279}
LAMBDA_RTOL = 1e-9


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _check_entry(expected):
    def check(report):
        checks = report.to_dict()["checks"]
        problems = [f"{c['name']}: expected {c['expected']}, computed "
                    f"{c['computed']}" for c in checks if not c["pass"]]
        computed = {c["name"]: c["computed"] for c in checks}
        for name, value in expected.items():
            if name not in computed:
                problems.append(f"check {name!r} is missing")
            elif computed[name] != value:
                problems.append(f"{name}: computed {computed[name]}, "
                                f"recorded {value}")
        return problems
    return check


def catalog_sweep(seed):
    rows = {(e["case"], tuple(e.get("params", ()))): e
            for e in catalog.load_catalog()}
    config = ScanConfig(seed=seed)
    ops = []
    for (case, params), expected in SWEEP.items():
        entry = rows[(case, params)]

        def run(entry=entry, case=case, params=params):
            module = catalog.build_entry(case, params)
            return catalog.verify_entry(entry, config, module=module)

        label = case + (str(params) if params else "")
        ops.append(Op(label, run, _check_entry(expected)))
    yield ops


def _check_report(name):
    def check(report):
        claims = {c["name"]: c for c in report["claims"]}
        problems = [f"claim {n!r} failed" for n, c in claims.items()
                    if not c["pass"] and not c.get("published", False)]
        for claim, value in RIGIDITY[name].items():
            if claim not in claims:
                problems.append(f"claim {claim!r} is missing")
            elif claims[claim]["computed"] != value:
                problems.append(f"{claim}: computed "
                                f"{claims[claim]['computed']}, recorded "
                                f"{value}")
        if name in LAMBDA:
            lams = [report["lambda"]] if "lambda" in report else \
                [r["lambda"] for r in report["rays"]]
            if len(lams) != 1 or not math.isclose(
                    lams[0], LAMBDA[name], rel_tol=LAMBDA_RTOL):
                problems.append(f"lambda {lams}, recorded {LAMBDA[name]}")
        return problems
    return check


def rigidity(seed):
    reports = [
        ("rank-chain", section5.rank_chain_report),
        ("coclosed-family", section5.coclosed_family_report),
        ("example-429", lambda: section5.example_429_report(seed=seed)),
    ] + [(f"nearly-parallel-{case}",
          lambda case=case: section5.nearly_parallel_report(case))
         for case in ("2d", "7", "2ci")]
    yield [Op(name, run, _check_report(name)) for name, run in reports]


def classify_stream(seed):
    index = 0
    while True:
        ops = []
        for case in formgen.batch(seed, index):
            form = KForm.make(7, 3, list(case.terms.items()))
            ops.append(Op("/".join(map(str, case.stratum)),
                          lambda form=form:
                          stable_forms.classification_report(form),
                          lambda report, case=case:
                          formgen.check_report(case, report)))
        yield ops
        index += 1


#: name -> generator of the workload's passes, each a list of operations
WORKLOADS = {
    "catalog-sweep": catalog_sweep,
    "rigidity": rigidity,
    "classify-stream": classify_stream,
}
