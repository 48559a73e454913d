"""Report parsers: round trips through violation trails, and strictness."""

from __future__ import annotations

import copy
import json

import pytest

from ufgkit import jsonio
from ufgkit.cli import main
from ufgkit.connectedness import (
    ConnectednessReport,
    ConnectednessViolation,
    FalsificationReport,
    run_corrigendum,
)
from ufgkit.errors import InvalidFormat
from ufgkit.orders import GroundSet, empty_poset
from ufgkit.ufg import UfgCatalog, enumerate_ufg_exhaustive, explain_not_ufg, is_ufg


@pytest.fixture(scope="module")
def violation(corr):
    """A hand-built violation trail whose analyses cover all three
    not-ufg shapes: a single order, a family that is not generic, and one
    that is not union-free (the only shape with blockers)."""
    ground, p1, p2, p3, q = corr
    family = (p1, p2, p3)
    analyses = [
        explain_not_ufg([p1]),
        explain_not_ufg([empty_poset(ground), p2]),
        explain_not_ufg([p1, p2, p3, q]),
    ]
    assert [len(a) for a in analyses] == [2, 2, 3]
    trail = [
        {"removed": m, "members": tuple(x for x in family if x != m), "analysis": a}
        for m, a in zip(family, analyses)
    ]
    return ConnectednessViolation(family, is_ufg(family), trail)


@pytest.fixture(scope="module")
def reports(corr, violation):
    """Serialized reports of every kind, each with its parser and writer."""
    ground, _, p2, p3, _ = corr
    cert = is_ufg(violation.family)
    connectedness = ConnectednessReport(
        ground=ground,
        max_size=3,
        checked=2,
        connected=1,
        violations=[violation],
        predecessors=[{"family": cert.family, "predecessor": (p2, p3), "witness": cert.witness}],
    )
    falsification = FalsificationReport(
        n_range=(4, 5), budget=3, seed=-2, pool_size=8, trials=3,
        families_checked=1, violation=violation,
    )
    catalog = UfgCatalog(ground, cert.family, "exhaustive", 3)
    catalog.add((0, 1, 2), cert)
    return {
        kind: (write(value), parse, write)
        for kind, value, parse, write in [
            ("connectedness", connectedness,
             jsonio.connectedness_from_obj, jsonio.connectedness_to_obj),
            ("falsification", falsification,
             jsonio.falsification_from_obj, jsonio.falsification_to_obj),
            ("catalog", catalog, jsonio.catalog_from_obj, jsonio.catalog_to_obj),
            ("scenario", run_corrigendum(), jsonio.scenario_from_obj, jsonio.scenario_to_obj),
            ("certificate", cert, jsonio.certificate_from_obj, jsonio.certificate_to_obj),
            ("violation", violation, jsonio.violation_from_obj, jsonio.violation_to_obj),
        ]
    }


@pytest.mark.parametrize("kind", ["connectedness", "falsification"])
def test_reports_carrying_a_violation_roundtrip_byte_identical(reports, kind):
    obj, parse, write = reports[kind]
    raw = jsonio.dumps_canonical(obj)
    assert jsonio.dumps_canonical(write(parse(json.loads(raw)))) == raw
    assert "blockers" in raw and '"violation": null' not in raw


def _cli_payloads(capsys, tmp_path, corr):
    """Payloads the CLI writes itself, with their parsers."""
    _, p1, p2, p3, q = corr
    files = {}
    for name, family in (("ufg", [p1, p2, p3]), ("not-ufg", [p1, p2, p3, q])):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(jsonio.dumps_canonical(jsonio.family_to_obj(family)))
    out = {}
    for kind, argv, parse in [
        ("count", ["posets", "-n", "3"], jsonio.count_payload_from_obj),
        ("closure", ["closure", "--input", files["ufg"], "--materialize", "--oracle"],
         jsonio.closure_payload_from_obj),
        ("verdict-yes", ["check-ufg", "--input", files["ufg"]], jsonio.verdict_payload_from_obj),
        ("verdict-no", ["check-ufg", "--input", files["not-ufg"]],
         jsonio.verdict_payload_from_obj),
    ]:
        main([str(a) for a in argv] + ["--json"])
        out[kind] = (json.loads(capsys.readouterr().out), parse)
    return out


def _key_paths(obj, path=()):
    """Every (path to a dict, key) pair in a nested JSON value."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield path, key
            yield from _key_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _key_paths(value, path + (i,))


# keys a serializer writes only for some inputs: an analysis has blockers
# only when it is a not-union-free one, and closure writes its members and
# oracle flag only under --materialize and --oracle
OPTIONAL = {"blockers", ("closure", "members"), ("closure", "oracle_checked")}


def test_dropping_any_key_the_serializer_writes_is_rejected(capsys, tmp_path, corr, reports):
    cases = {kind: (obj, parse) for kind, (obj, parse, _) in reports.items()}
    cases.update(_cli_payloads(capsys, tmp_path, corr))
    dropped = 0
    for kind, (obj, parse) in cases.items():
        parse(copy.deepcopy(obj))  # intact, it parses
        for path, key in _key_paths(obj):
            if key in OPTIONAL or (not path and (kind, key) in OPTIONAL):
                continue
            broken = copy.deepcopy(obj)
            holder = broken
            for step in path:
                holder = holder[step]
            del holder[key]
            with pytest.raises(InvalidFormat):
                parse(broken)
            dropped += 1
    assert dropped > 400


@pytest.mark.parametrize(
    "kind, spot, value",
    [
        ("falsification", ("budget",), True),
        ("falsification", ("n_range",), ["4"]),
        ("connectedness", ("checked",), None),
        ("connectedness", ("extra",), 0),
        ("catalog", ("stats", "count_by_size"), {"3": 2}),
        ("certificate", ("distinguishing", "0"), ["leq(a,zz)"]),
        ("certificate", ("distinguishing", "0"), [7]),
        ("certificate", ("distinguishing", "3"), []),
        ("scenario", ("assertions", 0, "passed"), "yes"),
        ("violation", ("leave_one_out", 0, "analysis", "reason"), None),
    ],
)
def test_wrong_types_and_extra_keys_are_rejected(reports, kind, spot, value):
    obj, parse, _ = reports[kind]
    obj = copy.deepcopy(obj)
    holder = obj
    for step in spot[:-1]:
        holder = holder[step]
    holder[spot[-1]] = value
    with pytest.raises(InvalidFormat):
        parse(obj)


def test_empty_and_truncated_reports_are_rejected():
    with pytest.raises(InvalidFormat):
        jsonio.falsification_from_obj({})
    with pytest.raises(InvalidFormat):
        jsonio.connectedness_from_obj({"ground": ["x1", "x2"]})
    with pytest.raises(InvalidFormat):
        jsonio.catalog_from_obj({"ground": ["x1", "x2"], "stats": {"count_by_size": {}}})




def test_catalog_read_back_from_enumerate_output_has_the_same_families(capsys):
    loaded, enumerated = {}, {}
    for n in (2, 3):
        assert main(["enumerate", "-n", str(n), "--json"]) == 0
        loaded[n] = jsonio.catalog_from_obj(json.loads(capsys.readouterr().out))
        enumerated[n] = enumerate_ufg_exhaustive(GroundSet.numbered(n))
        assert loaded[n].same_families(enumerated[n])
        assert enumerated[n].same_families(loaded[n])
        assert loaded[n].count_by_size() == enumerated[n].count_by_size()
    # on 2 items the empty order is in no ufg family, so the loaded pool
    # leaves it out and the one family has other indices there
    assert len(loaded[2].pool) == len(enumerated[2].pool) - 1 == 2
    assert loaded[2].keys() == {(0, 1)} and enumerated[2].keys() == {(1, 2)}
    # the same index tuple over another pool names another family (the
    # comparison reads no certificate)
    shifted = UfgCatalog(enumerated[2].ground, enumerated[2].pool, "loaded", 2)
    shifted.add((0, 1), loaded[2].get((0, 1)))
    assert shifted.keys() == loaded[2].keys()
    assert not shifted.same_families(loaded[2])
