"""Command-line front end.

Human-readable text goes to stdout; machine JSON replaces it under
``--json`` or goes to a file under ``--out``.  Exit codes: 0 success or
property verified, 1 usage or infrastructure error, 2 mathematical
violation found, 3 negative verdict (family is not union-free generic).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .connectedness import (
    falsification_search,
    run_corrigendum,
    verify_connectedness,
)
from .context import gamma_interval
from .errors import UfgkitError
from .oracles import (
    FormalContext,
    gamma_explicit,
    is_generic,
    is_ufg_by_distinguishing,
    is_union_free_bruteforce,
)
from .orders import (
    BinaryRelation,
    GroundSet,
    Poset,
    canonical_family,
    enumerate_all_posets,
    resolve_cap,
)
from .ufg import (
    enumerate_ufg_connected,
    enumerate_ufg_exhaustive,
    explain_not_ufg,
    is_ufg,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2
EXIT_NOT_UFG = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are infrastructure errors
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _positive_ints(text: str) -> list[int]:
    return [_positive_int(part) for part in text.split(",")]


def _relation_str(p: BinaryRelation) -> str:
    return "{" + ", ".join(f"{a}<{b}" for a, b in p.label_pairs()) + "}"


def _emit(args, human_lines, payload) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(jsonio.dumps_canonical(payload))
        for line in human_lines:
            print(line)
    elif args.json:
        sys.stdout.write(jsonio.dumps_canonical(payload))
    else:
        for line in human_lines:
            print(line)


def _effective_cap(args) -> int:
    cap = resolve_cap()
    if args.cap_override_ack and args.size:
        cap = max(cap, args.size)
    return cap


def _load_inputs(args) -> tuple[GroundSet, list[Poset] | None]:
    if args.size is not None:
        return GroundSet.numbered(args.size), None
    return jsonio.load_family_file(args.input)


def _add_io_flags(sub) -> None:
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("-n", "--size", type=_positive_int, metavar="N",
                     help="ground set of N items labelled x1..xN")
    grp.add_argument("--input", metavar="FILE.json",
                     help="family file: {\"elements\": [...], \"posets\": [...]}")
    sub.add_argument("--json", action="store_true",
                     help="machine JSON on stdout instead of text")
    sub.add_argument("--out", metavar="FILE", help="write machine JSON to a file")
    sub.add_argument("--cap-override-ack", action="store_true",
                     help="acknowledge enumeration beyond the size cap")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ufgkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("posets", help="count (and list) all partial orders")
    _add_io_flags(sub)
    sub.add_argument("--list", action="store_true", help="stream every order")
    sub.set_defaults(func=cmd_posets)

    sub = subs.add_parser("closure", help="interval form of a family's closure")
    _add_io_flags(sub)
    sub.add_argument("--materialize", action="store_true",
                     help="list every order inside the closure")
    sub.add_argument("--oracle", action="store_true",
                     help="cross-check against the derivation-operator route")
    sub.set_defaults(func=cmd_closure)

    sub = subs.add_parser("check-ufg", help="decide union-free genericity")
    _add_io_flags(sub)
    sub.add_argument("--debug", action="store_true",
                     help="cross-validate all three deciders")
    sub.set_defaults(func=cmd_check_ufg)

    sub = subs.add_parser("enumerate", help="catalog all ufg families")
    _add_io_flags(sub)
    sub.add_argument("--max-size", type=_positive_int, default=None)
    sub.add_argument("--budget", type=_positive_int, default=None)
    sub.add_argument("--strategy", choices=("exhaustive", "connected"),
                     default="connected")
    sub.add_argument("--verify", action="store_true",
                     help="run both strategies and compare")
    sub.set_defaults(func=cmd_enumerate)

    sub = subs.add_parser("connectedness", help="verify the predecessor property")
    _add_io_flags(sub)
    sub.add_argument("--max-size", type=_positive_int, default=None)
    sub.add_argument("--budget", type=_positive_int, default=None)
    sub.set_defaults(func=cmd_connectedness)

    sub = subs.add_parser("corrigendum",
                          help="replay the counterexample golden scenario")
    sub.add_argument("--json", action="store_true",
                     help="machine JSON on stdout instead of text")
    sub.add_argument("--out", metavar="FILE", help="write machine JSON to a file")
    sub.set_defaults(func=cmd_corrigendum)

    sub = subs.add_parser("falsify", help="seeded random stress of connectedness")
    sub.add_argument("-n", "--sizes", type=_positive_ints, default="4",
                     metavar="N[,N...]", help="comma-separated ground sizes (default 4)")
    sub.add_argument("--budget", type=_positive_int, default=1000, help="trial count")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--pool-size", type=_positive_int, default=8)
    sub.add_argument("--json", action="store_true")
    sub.add_argument("--out", metavar="FILE")
    sub.add_argument("--threads", type=_positive_int, default=1,
                     help="worker count; never affects results")
    sub.set_defaults(func=cmd_falsify)

    return parser


def cmd_posets(args) -> int:
    ground, _ = _load_inputs(args)
    cap = _effective_cap(args)
    stream = enumerate_all_posets(ground, cap)
    if args.list:
        for p in stream:
            sys.stdout.write(json.dumps(jsonio.poset_to_obj(p), sort_keys=True) + "\n")
        return EXIT_OK
    count = sum(1 for _ in stream)
    payload = {"elements": list(ground.labels), "count": count}
    _emit(args, [str(count)], payload)
    return EXIT_OK


def cmd_closure(args) -> int:
    ground, members = _load_inputs(args)
    if members is None:
        raise UfgkitError("closure needs a family file (--input)")
    family = canonical_family(members)
    iv = gamma_interval(family)
    lines = [
        "elements: " + ", ".join(ground.labels),
        f"family: {len(family)} orders",
        "lower: " + _relation_str(iv.lower),
        "upper: " + _relation_str(iv.upper),
    ]
    payload = {
        "elements": list(ground.labels),
        "lower": [[a, b] for a, b in iv.lower.label_pairs()],
        "upper": [[a, b] for a, b in iv.upper.label_pairs()],
    }
    closure_members = None
    if args.materialize or args.oracle:
        closure_members = list(iv.posets())
    if args.materialize:
        lines.append(f"members: {len(closure_members)}")
        lines.extend("  " + _relation_str(p) for p in closure_members)
        payload["members"] = [jsonio.poset_to_obj(p) for p in closure_members]
    if args.oracle:
        explicit = gamma_explicit(family, FormalContext(ground, cap=_effective_cap(args)))
        if set(closure_members) != explicit:
            raise UfgkitError("closure oracle mismatch: interval and derivation routes disagree")
        lines.append(f"oracle check: both closure routes agree on {len(explicit)} orders")
        payload["oracle_checked"] = True
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_check_ufg(args) -> int:
    ground, members = _load_inputs(args)
    if members is None:
        raise UfgkitError("check-ufg needs a family file (--input)")
    family = canonical_family(members)
    cert = is_ufg(family)
    if args.debug and len(family) >= 2:
        by_attrs = is_ufg_by_distinguishing(family) is not None
        by_conditions = is_generic(family) and is_union_free_bruteforce(family)
        if (cert is not None) != by_attrs or (cert is not None) != by_conditions:
            raise UfgkitError("ufg deciders disagree; this is a bug")
    if cert is None:
        analysis = explain_not_ufg(family)
        lines = [f"family: {len(family)} orders", "ufg: no", f"reason: {analysis['reason']}"]
        payload = {"ufg": False, "reason": analysis["reason"]}
        _emit(args, lines, payload)
        return EXIT_NOT_UFG
    lines = [
        f"family: {len(family)} orders on {{{', '.join(ground.labels)}}}",
        "ufg: yes",
        "witness: " + _relation_str(cert.witness),
        "distinguishing:",
    ]
    for m in cert.family:
        attrs = sorted(a.text(ground) for a in cert.per_member[m].attributes)
        lines.append(f"  {_relation_str(m)}: " + ", ".join(attrs))
    if args.debug:
        lines.append("cross-check: all three deciders agree")
    payload = {"ufg": True, "certificate": jsonio.certificate_to_obj(cert)}
    _emit(args, lines, payload)
    return EXIT_OK


def _run_enumeration(args, strategy: str):
    ground, members = _load_inputs(args)
    kwargs = {"max_size": args.max_size, "premises": members, "cap": _effective_cap(args)}
    if args.budget is not None:
        kwargs["budget"] = args.budget
    runner = enumerate_ufg_exhaustive if strategy == "exhaustive" else enumerate_ufg_connected
    return runner(ground, **kwargs)


def cmd_enumerate(args) -> int:
    if args.verify:
        connected = _run_enumeration(args, "connected")
        exhaustive = _run_enumeration(args, "exhaustive")
        if connected.same_families(exhaustive):
            lines = [
                "catalogs identical",
                f"ufg sets: {len(exhaustive)}",
            ]
            _emit(args, lines, jsonio.catalog_to_obj(exhaustive))
            return EXIT_OK
        missing = exhaustive.keys() - connected.keys()
        extra = connected.keys() - exhaustive.keys()
        print(f"catalogs differ: {len(missing)} missing from connected, "
              f"{len(extra)} unexpected", file=sys.stderr)
        return EXIT_VIOLATION
    catalog = _run_enumeration(args, args.strategy)
    sizes = ", ".join(f"{s}:{c}" for s, c in sorted(catalog.count_by_size().items()))
    guarantee = (
        "exhaustive within max-size"
        if args.strategy == "exhaustive"
        else "relies on connectedness of ufg families; --verify cross-checks it"
    )
    lines = [
        f"strategy: {args.strategy} (completeness: {guarantee})",
        f"pool: {catalog.stats['pool_size']} orders",
        f"ufg sets: {len(catalog)}" + (f" (by size {sizes})" if sizes else ""),
    ]
    _emit(args, lines, jsonio.catalog_to_obj(catalog))
    return EXIT_OK


def cmd_connectedness(args) -> int:
    ground, members = _load_inputs(args)
    report = verify_connectedness(
        ground,
        max_size=args.max_size,
        premises=members,
        budget=args.budget,
        cap=_effective_cap(args),
    )
    lines = [
        f"families checked (size >= 3): {report.checked}",
        f"with an ufg predecessor: {report.connected}",
        f"violations: {len(report.violations)}",
    ]
    _emit(args, lines, jsonio.connectedness_to_obj(report))
    return EXIT_OK if not report.violations else EXIT_VIOLATION


def cmd_corrigendum(args) -> int:
    scenario = run_corrigendum()
    lines = []
    for check in scenario.checks:
        mark = "ok" if check.passed else "FAIL"
        lines.append(f"{mark:4} {check.name}: {check.detail}")
    lines.append(
        "all assertions passed" if scenario.all_passed else "assertions failed"
    )
    _emit(args, lines, jsonio.scenario_to_obj(scenario))
    return EXIT_OK if scenario.all_passed else EXIT_VIOLATION


def cmd_falsify(args) -> int:
    report = falsification_search(
        args.sizes, args.budget, args.seed, pool_size=args.pool_size, threads=args.threads
    )
    lines = [
        f"falsify: seed={report.seed} budget={report.budget} "
        f"n={list(report.n_range)} pool-size={report.pool_size}",
        f"trials: {report.trials}",
        f"ufg families checked (size >= 3): {report.families_checked}",
        "violations: none" if report.violation is None else "VIOLATION FOUND",
    ]
    _emit(args, lines, jsonio.falsification_to_obj(report))
    return EXIT_OK if report.violation is None else EXIT_VIOLATION


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        return args.func(args)
    except UfgkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
