"""Command-line front end.

Human-readable text goes to stdout; machine JSON replaces it under
``--json`` or goes to a file under ``--out``.  Exit codes: 0 success or
property verified, 1 usage or infrastructure error, 2 mathematical
violation found, 3 negative verdict (family is not union-free generic).
"""

from __future__ import annotations

import argparse
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
    check_cap,
    enumerate_all_posets,
)
from .ufg import (
    DEFAULT_SUBSET_BUDGET,
    _not_ufg_reason,
    enumerate_ufg_connected,
    enumerate_ufg_exhaustive,
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
    """Text, JSON or both; ``payload()`` builds the JSON only when written."""
    if args.out:
        text = jsonio.dumps_canonical(payload())  # before the file: a failure leaves none
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif args.json:
        sys.stdout.write(jsonio.dumps_canonical(payload()))
        return
    for line in human_lines:
        print(line)


def _load_inputs(args) -> tuple[GroundSet, list[Poset] | None]:
    if args.size is not None:
        if not args.cap_override_ack:  # before the ground: N items take N*(N-1) bits
            check_cap(args.size)
        return GroundSet.numbered(args.size), None
    return jsonio.load_family_file(args.input)


def _load_pool(args) -> tuple[GroundSet, list[Poset]]:
    """The ground and the pool a command walks: every order on ``-n N``
    items, enumerated once under the size cap, or the family file's orders."""
    if args.input is not None and args.cap_override_ack:  # a pool file: nothing to cap
        raise UfgkitError("a family file is a pool, never capped: it takes no --cap-override-ack")
    ground, members = _load_inputs(args)
    if members is None:
        cap = ground.size if args.cap_override_ack else None
        members = list(enumerate_all_posets(ground, cap))
    return ground, members


_INPUT_HELP = "family file: {\"elements\": [...], \"posets\": [...]}"
_MAX_SIZE_HELP = "largest family size (default min(2n(n-1), pool size) on n items)"


def _add_output_flags(sub) -> argparse._MutuallyExclusiveGroup:
    grp = sub.add_mutually_exclusive_group()
    grp.add_argument("--json", action="store_true",
                     help="machine JSON on stdout instead of text")
    grp.add_argument("--out", metavar="FILE", help="write machine JSON to a file")
    return grp


def _add_cap_flag(sub) -> None:
    sub.add_argument("--cap-override-ack", action="store_true",
                     help="acknowledge ground sets beyond the size cap")


def _add_io_flags(sub) -> argparse._MutuallyExclusiveGroup:
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("-n", "--size", type=_positive_int, metavar="N",
                     help="ground set of N items labelled x1..xN")
    grp.add_argument("--input", metavar="FILE.json", help=_INPUT_HELP)
    _add_cap_flag(sub)
    return _add_output_flags(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ufgkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("posets", help="count (and list) all partial orders")
    _add_io_flags(sub).add_argument("--list", action="store_true", help="stream every order")
    sub.set_defaults(func=cmd_posets)

    sub = subs.add_parser("closure", help="interval form of a family's closure")
    sub.add_argument("--input", metavar="FILE.json", required=True, help=_INPUT_HELP)
    _add_output_flags(sub)
    sub.add_argument("--materialize", action="store_true",
                     help="list every order inside the closure")
    sub.add_argument("--oracle", action="store_true",
                     help="cross-check against the derivation-operator route")
    sub.set_defaults(func=cmd_closure)

    sub = subs.add_parser("check-ufg", help="decide union-free genericity")
    sub.add_argument("--input", metavar="FILE.json", required=True, help=_INPUT_HELP)
    _add_output_flags(sub)
    sub.add_argument("--debug", action="store_true",
                     help="cross-validate all three deciders")
    sub.set_defaults(func=cmd_check_ufg)

    sub = subs.add_parser("enumerate", help="catalog all ufg families")
    _add_io_flags(sub)
    sub.add_argument("--max-size", type=_positive_int, metavar="K", help=_MAX_SIZE_HELP)
    sub.add_argument("--budget", type=_positive_int, default=DEFAULT_SUBSET_BUDGET, metavar="B",
                     help="the exhaustive strategy refuses more than B subsets of 2..K pool "
                          "orders, counted before it starts; the connected one stops once it "
                          f"has tested more than B families (default {DEFAULT_SUBSET_BUDGET})")
    grp = sub.add_mutually_exclusive_group()
    grp.add_argument("--strategy", choices=("exhaustive", "connected"),
                     help="enumerator to run (default connected)")
    grp.add_argument("--verify", action="store_true", help="run both strategies and compare")
    sub.set_defaults(func=cmd_enumerate)

    sub = subs.add_parser("connectedness", help="verify the predecessor property")
    _add_io_flags(sub)
    sub.add_argument("--max-size", type=_positive_int, metavar="K", help=_MAX_SIZE_HELP)
    sub.add_argument("--budget", type=_positive_int, default=DEFAULT_SUBSET_BUDGET, metavar="B",
                     help="refuse more than B subsets of 2..K pool orders, counted before "
                          f"the run starts (default {DEFAULT_SUBSET_BUDGET})")
    sub.set_defaults(func=cmd_connectedness)

    sub = subs.add_parser("corrigendum",
                          help="replay the counterexample golden scenario")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_corrigendum)

    sub = subs.add_parser("falsify", help="seeded random stress of connectedness")
    sub.add_argument("-n", "--sizes", type=_positive_ints, default="4",
                     metavar="N[,N...]", help="comma-separated ground sizes (default 4)")
    sub.add_argument("--budget", type=_positive_int, default=1000, help="trial count")
    sub.add_argument("--seed", type=int, default=0, help="seed of every random draw (default 0)")
    _add_cap_flag(sub)
    _add_output_flags(sub)
    sub.add_argument("--threads", type=_positive_int, default=1,
                     help="worker count, at most the budget and the core count; "
                          "never affects results")
    sub.set_defaults(func=cmd_falsify)

    return parser


def cmd_posets(args) -> int:
    ground, _ = _load_inputs(args)
    stream = enumerate_all_posets(ground, ground.size if args.cap_override_ack else None)
    if args.list:
        sys.stdout.writelines(jsonio.poset_lines(ground, stream))
        return EXIT_OK
    count = sum(1 for _ in stream)
    _emit(args, [str(count)], lambda: {"elements": list(ground.labels), "count": count})
    return EXIT_OK


def cmd_closure(args) -> int:
    ground, members = jsonio.load_family_file(args.input)
    family = canonical_family(members)
    iv = gamma_interval(family)
    lines = [
        "elements: " + ", ".join(ground.labels),
        f"family: {len(family)} orders",
        "lower: " + _relation_str(iv.lower),
        "upper: " + _relation_str(iv.upper),
    ]
    closure_members = None
    if args.materialize or args.oracle:
        closure_members = list(iv.posets())
    if args.materialize:
        lines.append(f"members: {len(closure_members)}")
        lines.extend("  " + _relation_str(p) for p in closure_members)
    if args.oracle:
        explicit = gamma_explicit(family)
        if set(closure_members) != explicit:
            raise UfgkitError("closure oracle mismatch: interval and derivation routes disagree")
        lines.append(f"oracle check: both closure routes agree on {len(explicit)} orders")

    def payload():
        obj = {"elements": list(ground.labels),
               "lower": [[a, b] for a, b in iv.lower.label_pairs()],
               "upper": [[a, b] for a, b in iv.upper.label_pairs()]}
        if args.materialize:
            obj["members"] = [jsonio.poset_to_obj(p) for p in closure_members]
        if args.oracle:
            obj["oracle_checked"] = True
        return obj

    _emit(args, lines, payload)
    return EXIT_OK


def cmd_check_ufg(args) -> int:
    ground, members = jsonio.load_family_file(args.input)
    family = canonical_family(members)
    cert = is_ufg(family)
    if args.debug and len(family) >= 2:
        by_attrs = is_ufg_by_distinguishing(family) is not None
        by_conditions = is_generic(family) and is_union_free_bruteforce(family)
        if (cert is not None) != by_attrs or (cert is not None) != by_conditions:
            raise UfgkitError("ufg deciders disagree; this is a bug")
    if cert is None:
        reason = _not_ufg_reason(family)
        lines = [f"family: {len(family)} orders", "ufg: no", f"reason: {reason}"]
        _emit(args, lines, lambda: {"ufg": False, "reason": reason})
        return EXIT_NOT_UFG
    lines = [
        f"family: {len(family)} orders on {{{', '.join(ground.labels)}}}",
        "ufg: yes",
        "witness: " + _relation_str(cert.witness),
        "distinguishing:",
    ]
    for member, attrs in zip(cert.family, jsonio._distinguishing_texts(cert).values()):
        lines.append(f"  {_relation_str(member)}: " + ", ".join(attrs))
    if args.debug:
        lines.append("cross-check: all three deciders agree")
    _emit(args, lines, lambda: {"ufg": True, "certificate": jsonio.certificate_to_obj(cert)})
    return EXIT_OK


def _run_enumeration(args, ground, pool, strategy: str):
    runner = enumerate_ufg_exhaustive if strategy == "exhaustive" else enumerate_ufg_connected
    return runner(ground, max_size=args.max_size, premises=pool, budget=args.budget)


def cmd_enumerate(args) -> int:
    ground, pool = _load_pool(args)  # once, also under --verify
    if args.verify:
        connected = _run_enumeration(args, ground, pool, "connected")
        exhaustive = _run_enumeration(args, ground, pool, "exhaustive")
        if connected.same_families(exhaustive):
            lines = [
                "catalogs identical",
                f"ufg sets: {len(exhaustive)}",
            ]
            _emit(args, lines, lambda: jsonio.catalog_to_obj(exhaustive))
            return EXIT_OK
        missing = exhaustive.keys() - connected.keys()
        extra = connected.keys() - exhaustive.keys()
        print(f"catalogs differ: {len(missing)} missing from connected, "
              f"{len(extra)} unexpected", file=sys.stderr)
        return EXIT_VIOLATION
    strategy = args.strategy or "connected"
    catalog = _run_enumeration(args, ground, pool, strategy)
    sizes = ", ".join(f"{s}:{c}" for s, c in sorted(catalog.count_by_size().items()))
    guarantee = (
        "exhaustive within max-size"
        if strategy == "exhaustive"
        else "relies on connectedness of ufg families; --verify cross-checks it"
    )
    lines = [
        f"strategy: {strategy} (completeness: {guarantee})",
        f"pool: {len(catalog.pool)} orders",
        f"ufg sets: {len(catalog)}" + (f" (by size {sizes})" if sizes else ""),
    ]
    _emit(args, lines, lambda: jsonio.catalog_to_obj(catalog))
    return EXIT_OK


def cmd_connectedness(args) -> int:
    ground, pool = _load_pool(args)
    report = verify_connectedness(
        ground, max_size=args.max_size, premises=pool, budget=args.budget
    )
    lines = [
        f"families checked (size >= 3): {report.checked}",
        f"with an ufg predecessor: {report.connected}",
        f"violations: {len(report.violations)}",
    ]
    _emit(args, lines, lambda: jsonio.connectedness_to_obj(report))
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
    _emit(args, lines, lambda: jsonio.scenario_to_obj(scenario))
    return EXIT_OK if scenario.all_passed else EXIT_VIOLATION


def cmd_falsify(args) -> int:
    if not args.cap_override_ack:  # before the first trial builds a ground
        for n in args.sizes:
            check_cap(n)
    report = falsification_search(args.sizes, args.budget, args.seed, threads=args.threads)
    lines = [
        f"falsify: seed={report.seed} budget={report.budget} "
        f"n={list(report.n_range)} pool-size={report.pool_size}",
        f"trials: {report.trials}",
        f"ufg families checked (size >= 3): {report.families_checked}",
        "violations: none" if report.violation is None else "VIOLATION FOUND",
    ]
    _emit(args, lines, lambda: jsonio.falsification_to_obj(report))
    return EXIT_OK if report.violation is None else EXIT_VIOLATION


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        return args.func(args)
    except (UfgkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
