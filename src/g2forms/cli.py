"""Command-line interface: classification, catalog checks, rigidity reports.

Exit codes: 2 for malformed input or usage errors; otherwise every command
exits with the number of failed claims in its report (capped at 125),
published-value claims not counted, so 0 on success.  All configuration
comes through flags; with a fixed seed the JSON output is byte-identical
across runs.
"""

import argparse
import json
import sys

from . import __version__
from .catalog import (build_entry, catalog_hash, claim, load_catalog,
                      verify_entry)
from .liealg import ScanConfig, invariant_dims
from .multilinear import form_from_json
from .stable_forms import classification_report


def _config_dict(args):
    out = {}
    for key in ("case", "params", "grid", "random", "seed", "samples",
                "algebra", "analysis", "format", "jobs"):
        if hasattr(args, key):
            out[key] = getattr(args, key)
    return out


def emit(report, args):
    """Print the report in the chosen format; return the exit code."""
    payload = {
        "version": __version__,
        "catalog": catalog_hash(),
        "report": report,
    }
    if getattr(args, "emit_config", False):
        payload["config"] = _config_dict(args)
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2, default=str))
    elif fmt == "csv":
        _emit_csv(report)
    else:
        _emit_human(report)
    # published-value discrepancies are annotated, not failures
    failed = sum(1 for c in _iter_claims(report)
                 if not c["pass"] and not c.get("published", False))
    return min(failed, 125)


def _iter_claims(report):
    """The claims of every `claims` and `checks` list, at any depth."""
    if isinstance(report, dict):
        for key, val in report.items():
            if key in ("claims", "checks"):
                yield from val
            else:
                yield from _iter_claims(val)
    elif isinstance(report, list):
        for val in report:
            yield from _iter_claims(val)


def _emit_csv(report):
    import csv

    w = csv.writer(sys.stdout)
    w.writerow(["name", "expected", "computed", "pass"])
    for c in _iter_claims(report):
        w.writerow([c["name"], c["expected"], c["computed"], c["pass"]])


def _emit_human(report):
    claims = list(_iter_claims(report))
    for c in claims:
        status = "ok " if c["pass"] else "FAIL"
        print(f"[{status}] {c['name']}: expected {c['expected']}, "
              f"computed {c['computed']}")
    if not claims and isinstance(report, dict):
        for key, val in report.items():
            if isinstance(val, (str, int, float, bool, list)):
                print(f"{key}: {val}")


def cmd_classify(args):
    try:
        with open(args.form) as fh:
            obj = json.load(fh)
        form = form_from_json(obj)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot read form: {exc}", file=sys.stderr)
        return 2
    if form.dim != 7 or form.degree != 3:
        print("error: classification needs a 3-form on R^7", file=sys.stderr)
        return 2
    return emit(classification_report(form), args)


def _parse_params(text):
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad parameter list: {text!r}")


def _count(text):
    """A non-negative sample count; anything else is a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return value


def _scan_config(args):
    return ScanConfig(grid=args.grid, random=args.random, seed=args.seed)


def _select_entries(args):
    """The shipped entries selected by --case and --params.

    Raises ValueError for an unknown case or a parameter instance that is
    not shipped: its expectations are unknown, and those of another
    instance do not apply.
    """
    entries = load_catalog()
    if args.case:
        entries = [e for e in entries if e["case"] == args.case]
        if not entries:
            raise ValueError(f"unknown case {args.case!r}")
        if args.params:
            shipped = [tuple(e.get("params", ())) for e in entries]
            if args.params not in shipped:
                listed = "; ".join(",".join(map(str, p)) or "none"
                                   for p in shipped)
                raise ValueError(
                    f"case {args.case!r} ships no instance with params "
                    f"{','.join(map(str, args.params))}; shipped params: "
                    f"{listed}")
            entries = [e for e, p in zip(entries, shipped)
                       if p == args.params]
    return entries


def _verify_one(payload):
    entry, config = payload
    return verify_entry(entry, config)


def cmd_catalog(args):
    if args.action == "list":
        entries = load_catalog()
        report = {"entries": [
            {"case": e["case"], "params": e.get("params", []),
             "table": e["table"], "expected": e["expected"]}
            for e in entries]}
        return emit(report, args)
    try:
        entries = _select_entries(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = _scan_config(args)
    try:
        if args.jobs > 1 and len(entries) > 1:
            import concurrent.futures as cf

            with cf.ProcessPoolExecutor(max_workers=args.jobs) as pool:
                # ordered map keeps the report deterministic
                reports = list(pool.map(_verify_one,
                                        [(e, config) for e in entries]))
        else:
            reports = [verify_entry(e, config) for e in entries]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return emit({"entries": [r.to_dict() for r in reports]}, args)


def cmd_invariants(args):
    try:
        mod = build_entry(args.case, args.params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dims = invariant_dims(mod)
    report = {"case": args.case, "params": list(args.params),
              "d1": dims.d1, "d2": dims.d2, "d3": dims.d3,
              "claims": [claim("d3 = d1 + d2", dims.d1 + dims.d2, dims.d3)]}
    return emit(report, args)


def cmd_complex_ranks(args):
    from .homogeneous import bare_complex, build_complex, complex_ranks
    from .section5 import NAMED_ALGEBRAS

    if args.algebra:
        if args.algebra not in NAMED_ALGEBRAS:
            print(f"error: unknown algebra {args.algebra!r}", file=sys.stderr)
            return 2
        mod = bare_complex(NAMED_ALGEBRAS[args.algebra]())
        label = args.algebra
    else:
        try:
            mod = build_entry(args.case, args.params)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        label = args.case
    ranks = complex_ranks(build_complex(mod))
    report = {"complex": label,
              "dims": [r[0] for r in ranks],
              "ranks": [r[1] for r in ranks],
              "kernels": [r[2] for r in ranks]}
    return emit(report, args)


#: the section5 options each analysis reads; any other analysis given one
#: is a usage error
_SECTION5_OPTIONS = {"closed-scan": ("algebra", "samples", "seed"),
                     "example-429": ("seed",),
                     "nearly-parallel": ("case",)}


def cmd_section5(args):
    from . import section5

    allowed = _SECTION5_OPTIONS.get(args.analysis, ())
    for opt in ("case", "algebra", "samples", "seed"):
        if getattr(args, opt) is not None and opt not in allowed:
            print(f"error: --{opt} does not apply to {args.analysis}",
                  file=sys.stderr)
            return 2
    # the defaults are filled in after the check, so --emit-config prints them
    if args.samples is None:
        args.samples = 10_000
    if args.seed is None:
        args.seed = 0
    try:
        if args.analysis == "rank-chain":
            report = section5.rank_chain_report()
        elif args.analysis == "coclosed-family":
            report = section5.coclosed_family_report()
        elif args.analysis == "closed-scan":
            report = section5.closed_scan_report(
                algebra=args.algebra or "su2+t4",
                samples=args.samples, seed=args.seed)
        elif args.analysis == "nearly-parallel":
            report = section5.nearly_parallel_report(args.case or "2d")
        elif args.analysis == "example-429":
            report = section5.example_429_report(seed=args.seed)
        else:
            print(f"error: unknown analysis {args.analysis!r}", file=sys.stderr)
            return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return emit(report, args)


def cmd_octonion_alignment(args):
    from .octonion import derive_alignment, _FROZEN_ALIGNMENTS

    report = {}
    for kind in ("split", "compact"):
        sigma, signs = derive_alignment(kind)
        report[kind] = {"sigma": list(sigma), "signs": list(signs),
                        "claims": [claim(
                            f"{kind} alignment matches the frozen constant",
                            _FROZEN_ALIGNMENTS[kind], (sigma, signs))]}
    return emit(report, args)


def _add_common(p):
    p.add_argument("--format", choices=("json", "csv", "human"),
                   default="json")
    p.add_argument("--emit-config", action="store_true",
                   help="embed the effective configuration in the report")


def make_parser():
    ap = argparse.ArgumentParser(
        prog="g2forms",
        description="Exact classification of stable 3-forms on R^7 and "
                    "verification of the invariant-form catalog")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a 3-form from a JSON file")
    p.add_argument("form")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("catalog", help="list or verify catalog entries")
    p.add_argument("action", choices=("list", "verify"))
    p.add_argument("--case")
    p.add_argument("--params", type=_parse_params, default=())
    p.add_argument("--grid", type=_count, default=10_000)
    p.add_argument("--random", type=_count, default=1_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for entry verification")
    _add_common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("invariants",
                       help="print the invariant dimensions of a case")
    p.add_argument("--case", required=True)
    p.add_argument("--params", type=_parse_params, default=())
    _add_common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("complex-ranks",
                       help="exact rank data of an invariant complex")
    p.add_argument("--case")
    p.add_argument("--params", type=_parse_params, default=())
    p.add_argument("--algebra", help="named trivial-isotropy complex")
    _add_common(p)
    p.set_defaults(func=cmd_complex_ranks)

    p = sub.add_parser("section5", help="rigidity analyses")
    p.add_argument("analysis", choices=("nearly-parallel", "coclosed-family",
                                        "rank-chain", "closed-scan",
                                        "example-429"))
    p.add_argument("--case")
    p.add_argument("--algebra")
    p.add_argument("--samples", type=_count,
                   help="closed-scan witness budget (default 10000): random "
                        "draws after the grid rays; the scan stops once "
                        "each class is witnessed or excluded")
    p.add_argument("--seed", type=int,
                   help="closed-scan and example-429 sample seed (default 0)")
    _add_common(p)
    p.set_defaults(func=cmd_section5)

    p = sub.add_parser("octonion-alignment",
                       help="re-derive the octonion basis alignment")
    _add_common(p)
    p.set_defaults(func=cmd_octonion_alignment)
    return ap


def main(argv=None):
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
