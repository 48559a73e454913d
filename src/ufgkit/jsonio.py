"""JSON wire formats: posets, families, catalogs, reports.

Serialization is canonical (sorted keys, two-space indent, trailing
newline, canonically ordered lists), so writing what a parser read back
out reproduces the bytes exactly.
"""

from __future__ import annotations

import json
from typing import Any

from .connectedness import (
    ConnectednessReport,
    CorrigendumScenario,
    FalsificationReport,
    ScenarioCheck,
    ConnectednessViolation,
)
from .context import DistinguishingSet, parse_attribute
from .errors import InvalidFormat
from .orders import GroundSet, Poset, canonical_family, canonical_key, make_poset
from .ufg import UfgCatalog, UfgCertificate


def dumps_canonical(data: Any) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# --- posets and families -----------------------------------------------------


def poset_to_obj(p: Poset) -> dict:
    return {
        "elements": list(p.ground.labels),
        "relations": [[a, b] for a, b in p.label_pairs()],
    }


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


def _parse_elements(obj: Any, where: str) -> GroundSet:
    _require(isinstance(obj, list) and obj, where, "expected a nonempty list of labels")
    _require(all(isinstance(x, str) for x in obj), where, "labels must be strings")
    return GroundSet(obj)


def poset_from_obj(obj: Any, where: str = "poset") -> Poset:
    _require(isinstance(obj, dict), where, "expected an object")
    ground = _parse_elements(obj.get("elements"), f"{where}.elements")
    pairs = _parse_relations(obj.get("relations"), f"{where}.relations")
    return make_poset(ground, pairs)


def family_to_obj(members) -> dict:
    members = sorted(members, key=canonical_key)
    ground = members[0].ground
    return {
        "elements": list(ground.labels),
        "posets": [[[a, b] for a, b in m.label_pairs()] for m in members],
    }


def family_from_obj(obj: Any, where: str = "family") -> tuple[GroundSet, list[Poset]]:
    _require(isinstance(obj, dict), where, "expected an object")
    ground = _parse_elements(obj.get("elements"), f"{where}.elements")
    raw = obj.get("posets")
    _require(isinstance(raw, list) and raw, f"{where}.posets", "expected a nonempty list")
    members = []
    for idx, rels in enumerate(raw):
        pairs = _parse_relations(rels, f"{where}.posets[{idx}]")
        members.append(make_poset(ground, pairs))
    return ground, members


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


def distinguishing_to_obj(d: DistinguishingSet) -> dict:
    ground = d.member.ground
    return {
        "member": poset_to_obj(d.member),
        "q": poset_to_obj(d.restriction) if d.restriction is not None else None,
        "attributes": sorted(m.text(ground) for m in d.attributes),
    }


def certificate_to_obj(cert: UfgCertificate) -> dict:
    ground = cert.family[0].ground
    return {
        "members": [poset_to_obj(m) for m in cert.family],
        "witness": poset_to_obj(cert.witness),
        "distinguishing": {
            str(i): sorted(a.text(ground) for a in cert.per_member[m].attributes)
            for i, m in enumerate(cert.family)
        },
    }


def catalog_to_obj(catalog: UfgCatalog) -> dict:
    return {
        "ground": list(catalog.ground.labels),
        "ufg_sets": [certificate_to_obj(c) for c in catalog.certificates()],
        "stats": {
            "count_by_size": {
                str(size): count
                for size, count in sorted(catalog.count_by_size().items())
            }
        },
    }


def _analysis_to_obj(analysis: dict) -> dict:
    out: dict[str, Any] = {"ufg": analysis["ufg"], "reason": analysis["reason"]}
    if "blockers" in analysis:
        out["blockers"] = [
            {
                "candidate": poset_to_obj(entry["candidate"]),
                "covered_without": poset_to_obj(entry["covered_without"]),
            }
            for entry in analysis["blockers"]
        ]
    return out


def violation_to_obj(v: ConnectednessViolation) -> dict:
    return {
        "family": [poset_to_obj(m) for m in v.family],
        "certificate": certificate_to_obj(v.certificate),
        "leave_one_out": [
            {
                "removed": poset_to_obj(entry["removed"]),
                "members": [poset_to_obj(m) for m in entry["members"]],
                "analysis": _analysis_to_obj(entry["analysis"]),
            }
            for entry in v.leave_one_out
        ],
    }


def connectedness_to_obj(report: ConnectednessReport) -> dict:
    return {
        "ground": list(report.ground.labels),
        "max_size": report.max_size,
        "checked": report.checked,
        "connected": report.connected,
        "violations": [violation_to_obj(v) for v in report.violations],
        "predecessors": [
            {
                "family": [poset_to_obj(m) for m in entry["family"]],
                "predecessor": [poset_to_obj(m) for m in entry["predecessor"]],
                "witness": poset_to_obj(entry["witness"]),
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
            violation_to_obj(report.violation) if report.violation else None
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
_str = _scalar(str, "a string")


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


def certificate_from_obj(obj: Any, where: str = "certificate") -> UfgCertificate:
    rec = _record(obj, where, {
        "members": _posets,
        "witness": poset_from_obj,
        "distinguishing": _raw,
    })
    members, witness = rec["members"], rec["witness"]
    _require(bool(members), f"{where}.members", "expected at least one member")
    spot = f"{where}.distinguishing"
    texts = _record(rec["distinguishing"], spot, {str(i): _list(_str) for i in range(len(members))})
    ground = members[0].ground
    try:
        per_member = {
            m: DistinguishingSet(
                m, frozenset(parse_attribute(ground, t) for t in texts[str(i)]), witness
            )
            for i, m in enumerate(members)
        }
    except ValueError as exc:
        raise InvalidFormat(f"{spot}: {exc}") from None
    return UfgCertificate(members, witness, per_member)


def catalog_from_obj(obj: Any, where: str = "catalog") -> UfgCatalog:
    rec = _record(obj, where, {
        "ground": _parse_elements,
        "ufg_sets": _list(certificate_from_obj),
        "stats": _record_of({"count_by_size": _raw}),
    })
    certs = rec["ufg_sets"]
    # the pool is every order some family holds, each family indexed through it
    pool = canonical_family(m for c in certs for m in c.family) if certs else ()
    index = {p.bits: i for i, p in enumerate(pool)}
    catalog = UfgCatalog(rec["ground"], pool, "loaded", max((c.size for c in certs), default=0))
    for cert in certs:
        catalog.add(tuple(sorted(index[m.bits] for m in cert.family)), cert)
    counts = {str(size): count for size, count in catalog.count_by_size().items()}
    _require(
        rec["stats"]["count_by_size"] == counts,
        f"{where}.stats.count_by_size",
        "does not match the ufg sets",
    )
    return catalog


def _analysis_from_obj(obj: Any, where: str) -> dict:
    blocker = _record_of({"candidate": poset_from_obj, "covered_without": poset_from_obj})
    return _record(
        obj, where, {"ufg": _bool, "reason": _str, "blockers": _list(blocker)}, ("blockers",)
    )


def violation_from_obj(obj: Any, where: str = "violation") -> ConnectednessViolation:
    rec = _record(obj, where, {
        "family": _posets,
        "certificate": certificate_from_obj,
        "leave_one_out": _list(_record_of({
            "removed": poset_from_obj,
            "members": _posets,
            "analysis": _analysis_from_obj,
        })),
    })
    return ConnectednessViolation(rec["family"], rec["certificate"], rec["leave_one_out"])


def connectedness_from_obj(obj: Any, where: str = "report") -> ConnectednessReport:
    return ConnectednessReport(**_record(obj, where, {
        "ground": _parse_elements,
        "max_size": _int,
        "checked": _int,
        "connected": _int,
        "violations": _list(violation_from_obj),
        "predecessors": _list(_record_of({
            "family": _posets,
            "predecessor": _posets,
            "witness": poset_from_obj,
        })),
    }))


def falsification_from_obj(obj: Any, where: str = "report") -> FalsificationReport:
    return FalsificationReport(**_record(obj, where, {
        "n_range": lambda value, spot: tuple(_list(_int)(value, spot)),
        "budget": _int,
        "seed": _int,
        "pool_size": _int,
        "trials": _int,
        "families_checked": _int,
        "violation": lambda value, spot: (
            None if value is None else violation_from_obj(value, spot)
        ),
    }))


def scenario_from_obj(obj: Any, where: str = "scenario") -> CorrigendumScenario:
    rec = _record(obj, where, {
        "ground": _parse_elements,
        "posets": _record_of(dict.fromkeys(("p1", "p2", "p3", "q"), poset_from_obj)),
        "assertions": _list(_record_of({"name": _str, "passed": _bool, "detail": _str})),
    })
    checks = [ScenarioCheck(**c) for c in rec["assertions"]]
    return CorrigendumScenario(rec["ground"], **rec["posets"], checks=checks)


def count_payload_from_obj(obj: Any, where: str = "payload") -> dict:
    rec = _record(obj, where, {"elements": _parse_elements, "count": _int})
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
    out: dict[str, Any] = {"elements": list(ground.labels)}
    for bound in ("lower", "upper"):
        for a, b in rec[bound]:  # labels must exist; make_poset is too strict for upper
            ground.index(a), ground.index(b)
        out[bound] = [[a, b] for a, b in rec[bound]]
    if "members" in rec:
        out["members"] = [poset_to_obj(m) for m in rec["members"]]
    if "oracle_checked" in rec:
        out["oracle_checked"] = rec["oracle_checked"]
    return out


def verdict_payload_from_obj(obj: Any, where: str = "payload") -> dict:
    if isinstance(obj, dict) and obj.get("ufg") is True:
        rec = _record(obj, where, {"ufg": _bool, "certificate": certificate_from_obj})
        return {"ufg": True, "certificate": certificate_to_obj(rec["certificate"])}
    return _record(obj, where, {"ufg": _bool, "reason": _str})
