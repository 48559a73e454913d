"""JSON wire formats: posets, families, catalogs, reports.

Serialization is canonical (sorted keys, two-space indent, trailing
newline, canonically ordered lists), so writing what a parser read back
out reproduces the bytes exactly: those of ``json.dumps(data, indent=2,
sort_keys=True)`` plus a newline.  A payload shares one ``poset_to_obj``
dict among the places that hold one order, so payloads are read-only.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Any

from .connectedness import (
    POOL_SIZE,
    ConnectednessReport,
    CorrigendumScenario,
    FalsificationReport,
    ConnectednessViolation,
    has_predecessor,
    run_corrigendum,
)
from .errors import InvalidFormat, NotUfgInput, UfgkitError
from .orders import (BinaryRelation, GroundSet, Poset, PosetInterval, canonical_family,
                     canonical_key, make_poset)
from .ufg import NOT_UFG_REASONS, UfgCatalog, UfgCertificate, is_ufg


def dumps_canonical(data: Any) -> str:
    """``json.dumps(data, indent=2, sort_keys=True) + "\\n"``, for string keys only.
    A dict met again at one indent reuses its text, kept by id for the call."""
    memo: dict[tuple[int, str], str] = {}

    def write(obj: Any, indent: str) -> str:  # indent: "\n" and the spaces of its line
        if isinstance(obj, str):
            return encode_basestring_ascii(obj)
        if isinstance(obj, dict):
            text = memo.get((id(obj), indent))
            if text is None:
                items = [encode_basestring_ascii(key) + ": " + write(obj[key], indent + "  ")
                         for key in sorted(obj)]
                text = memo[id(obj), indent] = _block("{", items, indent, "}")
            return text
        if isinstance(obj, (list, tuple)):
            return _block("[", [write(item, indent + "  ") for item in obj], indent, "]")
        return json.dumps(obj)

    return write(data, "\n") + "\n"


def _block(open_: str, items: list[str], indent: str, close: str) -> str:
    inner = indent + "  "
    return open_ + inner + ("," + inner).join(items) + indent + close if items else open_ + close


# --- posets and families -----------------------------------------------------


def poset_to_obj(p: Poset) -> dict:
    return {
        "elements": list(p.ground.labels),
        "relations": [[a, b] for a, b in p.label_pairs()],
    }


def poset_lines(ground: GroundSet, posets: Iterable[Poset]) -> Iterator[str]:
    """``json.dumps(poset_to_obj(p), sort_keys=True) + "\\n"`` per order: the
    ground's fixed head, then the text of each pair, made when first met."""
    def pair_text(low: int) -> str:
        return json.dumps(list(map(ground.label, ground.pair_at(low.bit_length() - 1))))
    head = '{"elements": ' + json.dumps(list(ground.labels)) + ', "relations": ['
    pairs = cache(pair_text)
    for p in posets:
        bits, texts = p.bits, []
        while bits:
            texts.append(pairs(bits & -bits))
            bits &= bits - 1
        yield head + ", ".join(texts) + "]}\n"


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise InvalidFormat(f"{where}: {message}")


def _parse_relations(obj: Any, where: str) -> list[tuple[str, str]]:
    _require(isinstance(obj, list), where, "expected a list of [smaller, larger] pairs")
    pairs: list[tuple[str, str]] = []
    seen = set()
    for idx, entry in enumerate(obj):
        spot = f"{where}[{idx}]"
        _require(
            isinstance(entry, list) and len(entry) == 2, spot, "expected a pair"
        )
        a, b = entry
        _require(isinstance(a, str) and isinstance(b, str), spot, "labels must be strings")
        if (a, b) in seen:
            raise InvalidFormat(f"{spot}: duplicate relation [{a}, {b}]")
        seen.add((a, b))
        pairs.append((a, b))
    return pairs


def _built(make, where: str, *args):
    """``make(*args)``, a check it fails re-raised as ``InvalidFormat`` at ``where``."""
    try:
        return make(*args)
    except (AssertionError, UfgkitError, ValueError) as exc:
        raise InvalidFormat(f"{where}: {exc}") from None


def _parse_elements(obj: Any, where: str) -> GroundSet:
    _require(isinstance(obj, list) and obj, where, "expected a nonempty list of labels")
    _require(all(isinstance(x, str) for x in obj), where, "labels must be strings")
    return _built(GroundSet, where, obj)


def poset_from_obj(obj: Any, where: str = "poset") -> Poset:
    rec = _record(obj, where, {"elements": _parse_elements, "relations": _parse_relations})
    return _built(make_poset, where, rec["elements"], rec["relations"])


def family_to_obj(members) -> dict:
    members = sorted(members, key=canonical_key)
    ground = members[0].ground
    return {
        "elements": list(ground.labels),
        "posets": [[[a, b] for a, b in m.label_pairs()] for m in members],
    }


def family_from_obj(obj: Any, where: str = "family") -> tuple[GroundSet, list[Poset]]:
    rec = _record(obj, where, {"elements": _parse_elements, "posets": _list(_parse_relations)})
    ground, raw = rec["elements"], rec["posets"]
    _require(raw, f"{where}.posets", "expected a nonempty list")
    return ground, [_built(make_poset, f"{where}.posets[{i}]", ground, pairs)
                    for i, pairs in enumerate(raw)]


def load_family_file(path: str) -> tuple[GroundSet, list[Poset]]:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidFormat(
                f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
            ) from None
        except UnicodeDecodeError as exc:
            raise InvalidFormat(f"{path}: not UTF-8 text: {exc.reason}") from None
        except RecursionError:
            raise InvalidFormat(f"{path}: arrays or objects nested too deeply") from None
    return family_from_obj(obj, where=path)


# --- derived structures ------------------------------------------------------


def _distinguishing_texts(cert: UfgCertificate) -> dict:
    ground = cert.witness.ground
    return {
        str(i): sorted(a.text(ground) for a in d.attributes)
        for i, d in enumerate(cert.distinguishing())
    }


def certificate_to_obj(cert: UfgCertificate, poset_obj=poset_to_obj) -> dict:
    return {
        "members": [poset_obj(m) for m in cert.family],
        "witness": poset_obj(cert.witness),
        "distinguishing": _distinguishing_texts(cert),
    }


def catalog_to_obj(catalog: UfgCatalog) -> dict:
    poset_obj = cache(poset_to_obj)  # one dict per order, for this payload
    return {
        "ground": list(catalog.ground.labels),
        "ufg_sets": [certificate_to_obj(c, poset_obj) for c in catalog.certificates()],
        "stats": {
            "count_by_size": {
                str(size): count
                for size, count in sorted(catalog.count_by_size().items())
            }
        },
    }


def _analysis_to_obj(analysis: dict, poset_obj) -> dict:
    out: dict[str, Any] = {"ufg": analysis["ufg"], "reason": analysis["reason"]}
    if "blockers" in analysis:
        out["blockers"] = [
            {key: poset_obj(entry[key]) for key in ("candidate", "covered_without")}
            for entry in analysis["blockers"]
        ]
    return out


def violation_to_obj(v: ConnectednessViolation, poset_obj=poset_to_obj) -> dict:
    return {
        "family": [poset_obj(m) for m in v.family],
        "certificate": certificate_to_obj(v.certificate, poset_obj),
        "leave_one_out": [
            {
                "removed": poset_obj(entry["removed"]),
                "members": [poset_obj(m) for m in entry["members"]],
                "analysis": _analysis_to_obj(entry["analysis"], poset_obj),
            }
            for entry in v.leave_one_out
        ],
    }


def connectedness_to_obj(report: ConnectednessReport) -> dict:
    poset_obj = cache(poset_to_obj)  # one dict per order, for this payload
    return {
        "ground": list(report.ground.labels),
        "max_size": report.max_size,
        "checked": report.checked,
        "connected": report.connected,
        "violations": [violation_to_obj(v, poset_obj) for v in report.violations],
        "predecessors": [
            {
                "family": [poset_obj(m) for m in entry["family"]],
                "predecessor": [poset_obj(m) for m in entry["predecessor"]],
                "witness": poset_obj(entry["witness"]),
            }
            for entry in report.predecessors
        ],
    }


def falsification_to_obj(report: FalsificationReport) -> dict:
    return {
        "n_range": list(report.n_range),
        "budget": report.budget,
        "seed": report.seed,
        "pool_size": report.pool_size,
        "trials": report.trials,
        "families_checked": report.families_checked,
        "violation": (
            violation_to_obj(report.violation, cache(poset_to_obj)) if report.violation else None
        ),
    }


def scenario_to_obj(s: CorrigendumScenario) -> dict:
    return {
        "ground": list(s.ground.labels),
        "posets": {
            "p1": poset_to_obj(s.p1),
            "p2": poset_to_obj(s.p2),
            "p3": poset_to_obj(s.p3),
            "q": poset_to_obj(s.q),
        },
        "assertions": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in s.checks
        ],
    }


# --- parsers for everything the CLI emits ------------------------------------
#
# write(read(write(x))) must reproduce the bytes, so each parser rebuilds
# the semantic objects its serializer consumed and accepts only what that
# serializer writes: every key it writes, no other key, each value of its
# JSON type.  A parser has the signature ``parse(value, where)``.


def _record(obj: Any, where: str, fields: dict, optional: tuple[str, ...] = ()) -> dict:
    """A JSON object with exactly the keys of ``fields``, those named in
    ``optional`` maybe absent; returns each value read by its parser."""
    _require(isinstance(obj, dict), where, "expected an object")
    for key in obj:
        _require(key in fields, where, f"unexpected key {key!r}")
    out = {}
    for key, parse in fields.items():
        if key in obj:
            out[key] = parse(obj[key], f"{where}.{key}")
        else:
            _require(key in optional, where, f"missing key {key!r}")
    return out


def _record_of(fields: dict):
    return lambda obj, where: _record(obj, where, fields)


def _scalar(kind: type, name: str):
    def parse(value: Any, where: str):
        # exact type: JSON true is no integer, although Python's bool is one
        _require(type(value) is kind, where, f"expected {name}")
        return value

    return parse


_int = _scalar(int, "an integer")
_bool = _scalar(bool, "a boolean")


def _reason(value: Any, where: str) -> str:
    _require(value in NOT_UFG_REASONS, where, "is not a reason ufgkit gives")
    return value


def _list(item):
    def parse(value: Any, where: str) -> list:
        _require(isinstance(value, list), where, "expected a list")
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]

    return parse


def _posets(value: Any, where: str) -> tuple[Poset, ...]:
    return tuple(_list(poset_from_obj)(value, where))


def _raw(value: Any, where: str) -> Any:
    """A value the caller checks itself, once it knows what to expect."""
    return value


def _validated(members: tuple[Poset, ...], witness: Poset, where: str) -> UfgCertificate:
    cert = UfgCertificate(members, witness)
    _built(cert.validate, where)
    # every writer writes is_ufg's witness, the canonical-first one
    _require(witness == is_ufg(members).witness, f"{where}.witness",
             "is not the canonical-first witness")
    return cert


def certificate_from_obj(obj: Any, where: str = "certificate") -> UfgCertificate:
    """A certificate re-validated from its members and witness; the
    ``distinguishing`` texts must be the ones they derive."""
    rec = _record(obj, where, {
        "members": _posets,
        "witness": poset_from_obj,
        "distinguishing": _raw,
    })
    cert = _validated(rec["members"], rec["witness"], where)
    _require(
        rec["distinguishing"] == _distinguishing_texts(cert),
        f"{where}.distinguishing",
        "does not match the members and the witness",
    )
    return cert


def catalog_from_obj(obj: Any, where: str = "catalog") -> UfgCatalog:
    rec = _record(obj, where, {
        "ground": _parse_elements,
        "ufg_sets": _list(certificate_from_obj),
        "stats": _record_of({"count_by_size": _raw}),
    })
    certs = rec["ufg_sets"]
    # the pool is every order some family holds, each family indexed through it
    members = (m for c in certs for m in c.family)
    pool = _built(canonical_family, f"{where}.ufg_sets", members) if certs else ()
    _require(
        not pool or pool[0].ground == rec["ground"],
        f"{where}.ground",
        "differs from the ground of the ufg sets",
    )
    index = {p.bits: i for i, p in enumerate(pool)}
    catalog = UfgCatalog(rec["ground"], pool, max((c.size for c in certs), default=0))
    # the serializer writes each family once, by size and then in canonical order
    last: tuple[int, ...] = ()
    for i, cert in enumerate(certs):
        family = tuple(index[m.bits] for m in cert.family)
        _require(family not in catalog, f"{where}.ufg_sets[{i}]", "repeats an earlier family")
        _require(
            (len(last), last) < (len(family), family),
            f"{where}.ufg_sets[{i}]",
            "out of order: families go by size, then in canonical order",
        )
        catalog.add(family, cert)
        last = family
    counts = {str(size): count for size, count in catalog.count_by_size().items()}
    _require(
        rec["stats"]["count_by_size"] == counts,
        f"{where}.stats.count_by_size",
        "does not match the ufg sets",
    )
    return catalog


def _analysis_from_obj(obj: Any, where: str) -> dict:
    """A not-ufg analysis, with blockers exactly when it is not union-free."""
    blocker = _record_of({"candidate": poset_from_obj, "covered_without": poset_from_obj})
    rec = _record(
        obj, where, {"ufg": _bool, "reason": _reason, "blockers": _list(blocker)}, ("blockers",)
    )
    _require(not rec["ufg"], f"{where}.ufg", "expected false")
    _require(("blockers" in rec) == (rec["reason"] == NOT_UFG_REASONS[-1]), where,
             "needs blockers exactly when its reason is the not-union-free one")
    return rec


def violation_from_obj(obj: Any, where: str = "violation") -> ConnectednessViolation:
    """A violation of its certificate's family, whose trail removes each
    member in turn, in family order.  Its analyses are checked for shape
    only, not re-derived: no real violation is known, so every trail this
    parser has read is hand-built."""
    rec = _record(obj, where, {
        "family": _posets,
        "certificate": certificate_from_obj,
        "leave_one_out": _list(_record_of({
            "removed": poset_from_obj,
            "members": _posets,
            "analysis": _analysis_from_obj,
        })),
    })
    family, trail = rec["family"], rec["leave_one_out"]
    _require(family == rec["certificate"].family, f"{where}.family",
             "differs from the members of its certificate")
    _require(len(trail) == len(family), f"{where}.leave_one_out", "needs one entry per member")
    for j, entry in enumerate(trail):
        _require(entry["removed"] == family[j] and entry["members"] == family[:j] + family[j + 1:],
                 f"{where}.leave_one_out[{j}]", f"does not remove member {j} of the family")
    return ConnectednessViolation(family, rec["certificate"], trail)


def _predecessor_from_obj(obj: Any, where: str) -> dict:
    """An entry whose witness certifies its predecessor, the family
    without exactly one of its members; the family is ufg and in
    canonical order, and the predecessor is its first ufg leave-one-out
    subfamily in the order of :func:`ufgkit.connectedness.has_predecessor`,
    the one the writer lists.  That costs one decision per member removed
    before it."""
    rec = _record(obj, where, {
        "family": _posets,
        "predecessor": _posets,
        "witness": poset_from_obj,
    })
    family, predecessor = rec["family"], rec["predecessor"]
    _validated(predecessor, rec["witness"], where)
    _require(any(family[:j] + family[j + 1:] == predecessor for j in range(len(family))),
             f"{where}.predecessor", "is not the family without one of its members")
    try:
        first = has_predecessor(family)[0]
    except NotUfgInput:
        raise InvalidFormat(f"{where}.family: is not union-free generic") from None
    except UfgkitError as exc:
        raise InvalidFormat(f"{where}.family: {exc}") from None
    _require(canonical_family(family) == family, f"{where}.family", "is not in canonical order")
    _require(first == predecessor, f"{where}.predecessor",
             "is not the first ufg subfamily, removing members in canonical order")
    return rec


def connectedness_from_obj(obj: Any, where: str = "report") -> ConnectednessReport:
    """A report whose counts are those of its lists: every predecessor
    entry is a connected family, every violation one more checked.  Its
    families lie on its ground and within its ``max_size``, and the
    predecessor entries come once each, in the writer's order."""
    rec = _record(obj, where, {
        "ground": _parse_elements,
        "max_size": _int,
        "checked": _int,
        "connected": _int,
        "violations": _list(violation_from_obj),
        "predecessors": _list(_predecessor_from_obj),
    })
    connected = len(rec["predecessors"])
    _require(rec["connected"] == connected, f"{where}.connected",
             "does not count the predecessor entries")
    _require(rec["checked"] == connected + len(rec["violations"]), f"{where}.checked",
             "does not count the predecessor entries and the violations")
    families = [entry["family"] for entry in rec["predecessors"]]
    listed = families + [v.family for v in rec["violations"]]
    _require(all(m.ground == rec["ground"] for family in listed for m in family),
             f"{where}.ground", "differs from the ground of its families")
    _require(rec["max_size"] >= max(map(len, listed), default=0), f"{where}.max_size",
             "is below the size of a family it lists")
    # the writer lists the families by size, then in canonical order; an
    # entry repeated further on is out of order there
    last: tuple = ()
    for i, family in enumerate(families):
        key = (len(family), tuple(canonical_key(m) for m in family))
        _require(key != last, f"{where}.predecessors[{i}]", "repeats the entry before it")
        _require(last < key, f"{where}.predecessors[{i}]",
                 "out of order: families go by size, then in canonical order")
        last = key
    return ConnectednessReport(**rec)


def falsification_from_obj(obj: Any, where: str = "report") -> FalsificationReport:
    rec = _record(obj, where, {
        "n_range": lambda value, spot: tuple(_list(_int)(value, spot)),
        "budget": _int,
        "seed": _int,
        "pool_size": _int,
        "trials": _int,
        "families_checked": _int,
        "violation": lambda value, spot: (
            None if value is None else violation_from_obj(value, spot)
        ),
    })
    _require(rec["trials"] == rec["budget"], f"{where}.trials", "differs from the budget")
    _require(rec["budget"] >= 1, f"{where}.budget", "is below 1")
    _require(rec["pool_size"] == POOL_SIZE, f"{where}.pool_size", f"is not {POOL_SIZE}")
    _require(rec["families_checked"] >= 0, f"{where}.families_checked", "is negative")
    _require(rec["n_range"] and min(rec["n_range"]) >= 1, f"{where}.n_range",
             "expected a nonempty list of sizes of at least 1")
    return FalsificationReport(**rec)


def scenario_from_obj(obj: Any, where: str = "scenario") -> CorrigendumScenario:
    """The scenario :func:`run_corrigendum` replays, written as it writes it."""
    scenario = run_corrigendum()
    same = dumps_canonical(obj) == dumps_canonical(scenario_to_obj(scenario))
    _require(same, where, "differs from the replayed scenario")
    return scenario


def count_payload_from_obj(obj: Any, where: str = "payload") -> dict:
    rec = _record(obj, where, {"elements": _parse_elements, "count": _int})
    _require(rec["count"] >= 1, f"{where}.count", "is below 1")
    return {"elements": list(rec["elements"].labels), "count": rec["count"]}


def closure_payload_from_obj(obj: Any, where: str = "payload") -> dict:
    rec = _record(obj, where, {
        "elements": _parse_elements,
        "lower": _parse_relations,
        "upper": _parse_relations,
        "members": _posets,
        "oracle_checked": _bool,
    }, ("members", "oracle_checked"))
    ground = rec["elements"]
    # lower is the members' meet, an order; their union may hold a cycle
    lower = _built(make_poset, f"{where}.lower", ground, rec["lower"])
    upper = _built(BinaryRelation.from_labels, f"{where}.upper", ground, rec["upper"])
    # refuses a lower bound outside upper; walks only as far as members are read
    walk = _built(PosetInterval, f"{where}.lower", lower, upper).posets()
    _require(rec.get("oracle_checked", True), f"{where}.oracle_checked", "is not true")
    out = dict(rec, elements=list(ground.labels))
    for bound in ("lower", "upper"):
        out[bound] = [list(pair) for pair in rec[bound]]
    if "members" in rec:  # written in the walk's order, so each is the walk's next
        for i, m in enumerate(rec["members"]):
            _require(m == next(walk, None), f"{where}.members[{i}]",
                     "is not the next order of [lower, upper] in canonical order")
        out["members"] = [poset_to_obj(m) for m in rec["members"]]
    return out


def verdict_payload_from_obj(obj: Any, where: str = "payload") -> dict:
    if isinstance(obj, dict) and obj.get("ufg") is True:
        rec = _record(obj, where, {"ufg": _bool, "certificate": certificate_from_obj})
        return {"ufg": True, "certificate": certificate_to_obj(rec["certificate"])}
    return _record(obj, where, {"ufg": _bool, "reason": _reason})
