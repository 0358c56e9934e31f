"""Command-line interface: classification, catalog checks, rigidity reports.

Each leaf command (`catalog verify`, `section5 rank-chain`, ...) has its own
parser, which declares exactly the options the leaf reads, and a function
from its arguments to its report.  Exit codes: 2 for a usage error or a
refusal (any ValueError); otherwise the number of failed claims in the
report (capped at 125), published-value claims not counted, so 0 on
success.  With a fixed seed the JSON output is byte-identical across runs.
"""

import argparse
import json
import sys

from . import __version__
from .catalog import (build_entry, catalog_hash, claim, load_catalog,
                      verify_entry)
from .isotropy import invariant_dims
from .multilinear import form_from_json
from .scan import ScanConfig
from .stable_forms import classification_report


#: namespace fields that route a command rather than configure it
_ROUTING = ("command", "action", "report", "emit_config")


def emit(report, args):
    """Print the report in the chosen format; return the exit code."""
    payload = {
        "version": __version__,
        "catalog": catalog_hash(),
        "report": report,
    }
    if getattr(args, "emit_config", False):
        payload["config"] = {k: v for k, v in vars(args).items()
                             if k not in _ROUTING}
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
            form = form_from_json(json.load(fh))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read form: {exc}") from exc
    if form.dim != 7 or form.degree != 3:
        raise ValueError("classification needs a 3-form on R^7")
    return classification_report(form)


def _parse_params(text):
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad parameter list: {text!r}")


def _at_least(least, what):
    """The argparse type of an integer count >= `least`."""
    def count(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                f"expected {what} integer, got {text!r}")
        return value
    return count


def _select_entries(args):
    """The shipped entries selected by --case and --params.

    Raises ValueError for an unknown case, for --params without --case, or
    for a parameter instance that is not shipped: its expectations are
    unknown, and those of another instance do not apply.
    """
    if args.params and not args.case:
        raise ValueError("--params needs --case")
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


def cmd_catalog_list(args):
    return {"entries": [
        {"case": e["case"], "params": e.get("params", []),
         "table": e["table"], "expected": e["expected"]}
        for e in load_catalog()]}


def cmd_catalog_verify(args):
    entries = _select_entries(args)
    config = ScanConfig(grid=args.grid, random=args.random, seed=args.seed)
    if args.jobs > 1 and len(entries) > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            # ordered map keeps the report deterministic
            reports = list(pool.map(_verify_one,
                                    [(e, config) for e in entries]))
    else:
        reports = [verify_entry(e, config) for e in entries]
    return {"entries": [r.to_dict() for r in reports]}


def cmd_invariants(args):
    dims = invariant_dims(build_entry(args.case, args.params))
    return {"case": args.case, "params": list(args.params),
            "d1": dims.d1, "d2": dims.d2, "d3": dims.d3,
            "claims": [claim("d3 = d1 + d2", dims.d1 + dims.d2, dims.d3)]}


def cmd_complex_ranks(args):
    from .homogeneous import build_complex, complex_ranks
    from .section5 import named_complex

    if args.case is not None:
        comp = build_complex(build_entry(args.case, args.params))
        label = {"complex": args.case, "params": list(args.params)}
    elif args.params:
        raise ValueError("--params needs --case")
    else:
        comp = named_complex(args.algebra)
        label = {"complex": args.algebra}
    ranks = complex_ranks(comp)
    return {**label,
            "dims": [r[0] for r in ranks],
            "ranks": [r[1] for r in ranks],
            "kernels": [r[2] for r in ranks]}


def cmd_octonion_alignment(args):
    from .octonion import derive_alignment, _FROZEN_ALIGNMENTS

    report = {}
    for kind in ("split", "compact"):
        sigma, signs = derive_alignment(kind)
        report[kind] = {"sigma": list(sigma), "signs": list(signs),
                        "claims": [claim(
                            f"{kind} alignment matches the frozen constant",
                            _FROZEN_ALIGNMENTS[kind], (sigma, signs))]}
    return report


def _section5(name, *options):
    """The report function of a section5 analysis: `section5.<name>` called
    with the options the analysis declares, as keyword arguments."""
    def report(args):
        from . import section5

        return getattr(section5, name)(
            **{opt: getattr(args, opt) for opt in options})
    return report


def _leaf(sub, name, report, help=None):
    """The parser of a leaf command, with the output options and `report`,
    the function from its parsed arguments to its report."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--format", choices=("json", "csv", "human"),
                   default="json")
    p.add_argument("--emit-config", action="store_true",
                   help="embed the effective configuration in the report")
    p.set_defaults(report=report)
    return p


def make_parser():
    ap = argparse.ArgumentParser(
        prog="g2forms",
        description="Exact classification of stable 3-forms on R^7 and "
                    "verification of the invariant-form catalog")
    sub = ap.add_subparsers(dest="command", required=True)
    count, workers = _at_least(0, "a non-negative"), _at_least(1, "a positive")

    p = _leaf(sub, "classify", cmd_classify,
              help="classify a 3-form from a JSON file")
    p.add_argument("form")

    catalog = sub.add_parser("catalog", help="list or verify catalog entries")
    actions = catalog.add_subparsers(dest="action", required=True)
    _leaf(actions, "list", cmd_catalog_list, help="the shipped table")
    p = _leaf(actions, "verify", cmd_catalog_verify,
              help="recompute the invariants of the shipped entries")
    p.add_argument("--case")
    p.add_argument("--params", type=_parse_params, default=())
    p.add_argument("--grid", type=count, default=10_000)
    p.add_argument("--random", type=count, default=1_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=workers, default=1,
                   help="worker processes for entry verification")

    p = _leaf(sub, "invariants", cmd_invariants,
              help="print the invariant dimensions of a case")
    p.add_argument("--case", required=True)
    p.add_argument("--params", type=_parse_params, default=())

    p = _leaf(sub, "complex-ranks", cmd_complex_ranks,
              help="exact rank data of an invariant complex")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--case")
    which.add_argument("--algebra", help="named trivial-isotropy complex")
    p.add_argument("--params", type=_parse_params, default=())

    rigidity = sub.add_parser("section5", help="rigidity analyses")
    analyses = rigidity.add_subparsers(dest="analysis", required=True)
    _leaf(analyses, "rank-chain", _section5("rank_chain_report"))
    _leaf(analyses, "coclosed-family", _section5("coclosed_family_report"))
    p = _leaf(analyses, "closed-scan", _section5(
        "closed_scan_report", "algebra", "samples", "seed"))
    p.add_argument("--algebra", default="su2+t4")
    p.add_argument("--samples", type=count, default=10_000,
                   help="witness budget: random draws after the 10000 "
                        "rays of the default grid order (by height, then "
                        "support size); the scan stops once each class is "
                        "witnessed or excluded")
    p.add_argument("--seed", type=int, default=0)
    p = _leaf(analyses, "nearly-parallel",
              _section5("nearly_parallel_report", "case"))
    p.add_argument("--case", default="2d")
    _leaf(analyses, "example-429", _section5("example_429_report"))

    _leaf(sub, "octonion-alignment", cmd_octonion_alignment,
          help="re-derive the octonion basis alignment")
    return ap


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        report = args.report(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
