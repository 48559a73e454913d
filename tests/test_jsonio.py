"""The canonical writer against the stdlib, shared poset dicts, and the
report parsers: round trips through violation trails, and strictness."""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ufgkit import jsonio
from ufgkit.cli import main
from ufgkit.connectedness import (
    ConnectednessReport,
    ConnectednessViolation,
    FalsificationReport,
    has_predecessor,
    run_corrigendum,
    verify_connectedness,
)
from ufgkit.errors import InvalidFormat
from ufgkit.orders import GroundSet, canonical_family, empty_poset, enumerate_all_posets
from ufgkit.context import gamma_interval
from ufgkit.ufg import (
    NOT_UFG_REASONS,
    UfgCatalog,
    UfgCertificate,
    enumerate_ufg_exhaustive,
    explain_not_ufg,
    is_ufg,
    is_witness,
)


# --- the writer --------------------------------------------------------------


_texts = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600'))
_scalars = st.none() | st.booleans() | st.integers() | st.floats() | _texts


def _shared(value):
    """One object held twice at one depth and once at two other depths."""
    return {"twice": [value, value], "deeper": {"once": [value]}, "here": value}


_values = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_texts, children, max_size=4)
        | children.map(_shared)
    ),
    max_leaves=20,
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_values)
@example({})
@example([[], (), {}, {"": {}}])
@example(_shared({"k": [1, 2.5, None]}))
@example({'"\\\x00\x1f\u00e9\U0001f600': ["\n\t\u2028", True, False, -0.0, 10**30]})
@example([float("inf"), float("-inf"), float("nan"), 1e-300, -7])
def test_writer_gives_the_stdlib_bytes(value):
    assert jsonio.dumps_canonical(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "value", [{1: "a"}, {"a": {None: 1}}, [{("t",): 1}], {1.5: 0, 2.5: 1}, {True: 0}]
)
def test_writer_refuses_keys_that_are_not_strings(value):
    with pytest.raises(TypeError):
        jsonio.dumps_canonical(value)


def test_poset_lines_are_the_stdlib_lines():
    grounds = [GroundSet.numbered(n) for n in (1, 2, 4)] + [GroundSet(['a"', "\u00e9", "\\"])]
    for ground in grounds:
        orders = list(enumerate_all_posets(ground))
        lines = list(jsonio.poset_lines(ground, orders))
        assert lines == [json.dumps(jsonio.poset_to_obj(p), sort_keys=True) + "\n" for p in orders]


def _poset_dicts(obj):
    """Every poset dict in a payload, once per place that holds it."""
    if isinstance(obj, dict) and obj.keys() == {"elements", "relations"}:
        yield obj
    elif isinstance(obj, (dict, list)):
        for value in obj.values() if isinstance(obj, dict) else obj:
            yield from _poset_dicts(value)


def _objects_and_orders(payload) -> tuple[int, int]:
    held = list(_poset_dicts(payload))
    return len({id(d) for d in held}), len({json.dumps(d, sort_keys=True) for d in held})


def test_a_payload_holds_one_dict_per_distinct_order(catalog3, g3, reports):
    assert _objects_and_orders(jsonio.catalog_to_obj(catalog3)) == (19, 19)
    objects, orders = _objects_and_orders(jsonio.connectedness_to_obj(verify_connectedness(g3)))
    assert objects == orders > 1
    for kind in ("connectedness", "falsification"):  # each with a violation trail
        objects, orders = _objects_and_orders(reports[kind][0])
        assert objects == orders > 1


@pytest.fixture(scope="module")
def violation(corr):
    """A hand-built violation trail whose analyses cover all three
    not-ufg shapes: a single order, a family that is not generic, and one
    that is not union-free (the only shape with blockers)."""
    ground, p1, p2, p3, q = corr
    cert = is_ufg((p1, p2, p3))
    family = cert.family
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
    return ConnectednessViolation(family, cert, trail)


@pytest.fixture(scope="module")
def reports(corr, violation):
    """Serialized reports of every kind, each with its parser and writer."""
    ground = corr[0]
    cert = violation.certificate
    predecessor, sub = has_predecessor(cert.family)
    connectedness = ConnectednessReport(
        ground=ground,
        max_size=3,
        checked=2,
        connected=1,
        violations=[violation],
        predecessors=[
            {"family": cert.family, "predecessor": predecessor, "witness": sub.witness}
        ],
    )
    falsification = FalsificationReport(
        n_range=(4, 5), budget=3, seed=-2, pool_size=8, trials=3,
        families_checked=1, violation=violation,
    )
    catalog = UfgCatalog(ground, cert.family, 3)
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


def _payload_cases(capsys, tmp_path, corr, reports):
    """Every kind of payload with its parser: the reports and the CLI's own."""
    cases = {kind: (obj, parse) for kind, (obj, parse, _) in reports.items()}
    cases.update(_cli_payloads(capsys, tmp_path, corr))
    return cases


def _at(obj, path):
    for step in path:
        obj = obj[step]
    return obj


def test_dropping_any_key_the_serializer_writes_is_rejected(capsys, tmp_path, corr, reports):
    dropped = 0
    for kind, (obj, parse) in _payload_cases(capsys, tmp_path, corr, reports).items():
        parse(copy.deepcopy(obj))  # intact, it parses
        for path, key in _key_paths(obj):
            if key in OPTIONAL or (not path and (kind, key) in OPTIONAL):
                continue
            broken = copy.deepcopy(obj)
            del _at(broken, path)[key]
            with pytest.raises(InvalidFormat):
                parse(broken)
            dropped += 1
    assert dropped > 400


def test_adding_a_key_to_any_object_the_serializer_writes_is_rejected(
    capsys, tmp_path, corr, reports
):
    # the orders nested in a report too: a member, witness or blocker with
    # a key of its own would load, and writing it back would drop the key
    added = 0
    for obj, parse in _payload_cases(capsys, tmp_path, corr, reports).values():
        for path in dict.fromkeys(path for path, _ in _key_paths(obj)):
            broken = copy.deepcopy(obj)
            _at(broken, path)["note"] = 0
            with pytest.raises(InvalidFormat):
                parse(broken)
            added += 1
    assert added > 200


def _set(obj, spot, value):
    holder = obj
    for step in spot[:-1]:
        holder = holder[step]
    holder[spot[-1]] = value


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
    _set(obj, spot, value)
    with pytest.raises(InvalidFormat):
        parse(obj)


def _certificate(obj):
    return obj["violations"][0]["certificate"]


def _second_witness(members):
    """A valid witness of the family that is not its canonical-first one."""
    first, second = [q for q in gamma_interval(members).posets() if is_witness(members, q)][:2]
    assert first == is_ufg(members).witness
    return second


def _predecessor_with_a_later_witness(obj):
    entry = obj["predecessors"][0]
    predecessor = tuple(jsonio.poset_from_obj(m) for m in entry["predecessor"])
    entry["witness"] = jsonio.poset_to_obj(_second_witness(predecessor))


def _family_without_a_predecessor_member(obj):
    # one order of the predecessor gives way to an order outside the family
    entry, cert = obj["predecessors"][0], _certificate(obj)
    entry["family"] = [cert["witness"] if m == entry["predecessor"][0] else m
                       for m in entry["family"]]


# each forgery keeps the report's shape and types, so only the parser's
# cross-checks against its own lists can catch it
FORGERIES = {
    "checked-too-high": ("connectedness", lambda o: _set(o, ("checked",), 3),
                         r"^report\.checked: does not count"),
    "connected-too-low": ("connectedness", lambda o: _set(o, ("connected",), 0),
                          r"^report\.connected: does not count"),
    "predecessor-with-the-family-witness": (
        "connectedness",
        lambda o: _set(o, ("predecessors", 0, "witness"), _certificate(o)["witness"]),
        r"^report\.predecessors\[0\]: witness fails re-validation"),
    "predecessor-with-a-later-witness": (
        "connectedness", _predecessor_with_a_later_witness,
        r"^report\.predecessors\[0\]\.witness: is not the canonical-first witness$"),
    "predecessor-not-inside-the-family": (
        "connectedness", _family_without_a_predecessor_member,
        r"^report\.predecessors\[0\]\.predecessor: is not the family without one"),
    "predecessor-is-the-family": (
        "connectedness",
        lambda o: _set(o, ("predecessors", 0, "family"), o["predecessors"][0]["predecessor"]),
        r"^report\.predecessors\[0\]\.predecessor: is not the family without one"),
    "violation-family-not-its-certificate": (
        "connectedness",
        lambda o: _set(o, ("violations", 0, "family"), _certificate(o)["members"][::-1]),
        r"^report\.violations\[0\]\.family: differs from the members"),
    "scenario-passed-flipped": ("scenario",
                                lambda o: _set(o, ("assertions", 2, "passed"), False),
                                r"^scenario: differs from the replayed scenario"),
    "scenario-detail-edited": ("scenario",
                               lambda o: _set(o, ("assertions", 0, "detail"), "all fine"),
                               r"^scenario: differs from the replayed scenario"),
    "falsification-trials-not-budget": ("falsification",
                                        lambda o: _set(o, ("trials",), 2),
                                        r"^report\.trials: differs from the budget"),
    # reports falsification_search never writes: it runs at least one trial
    # over at least one ground size of at least one item, on POOL_SIZE draws
    "falsification-no-sizes": ("falsification", lambda o: _set(o, ("n_range",), []),
                               r"^report\.n_range: expected a nonempty list"),
    "falsification-size-zero": ("falsification", lambda o: _set(o, ("n_range",), [4, 0]),
                                r"^report\.n_range: expected a nonempty list"),
    "falsification-no-trials": ("falsification",
                                lambda o: o.update(budget=0, trials=0),
                                r"^report\.budget: is below 1"),
    "falsification-other-pool-size": ("falsification", lambda o: _set(o, ("pool_size",), 9),
                                      r"^report\.pool_size: is not 8$"),
    "falsification-negative-count": ("falsification",
                                     lambda o: _set(o, ("families_checked",), -1),
                                     r"^report\.families_checked: is negative"),
    # a trail removes each member of the family once, in family order, and
    # each analysis is one explain_not_ufg could write
    "trail-of-one-non-member": (
        "violation", lambda o: _set(o, ("leave_one_out",), [
            dict(o["leave_one_out"][0], removed=o["certificate"]["witness"])]),
        r"^violation\.leave_one_out: needs one entry per member$"),
    "trail-removes-a-non-member": (
        "violation", lambda o: _set(o, ("leave_one_out", 0, "removed"),
                                    o["certificate"]["witness"]),
        r"^violation\.leave_one_out\[0\]: does not remove member 0 of the family$"),
    "trail-out-of-order": (
        "violation", lambda o: o["leave_one_out"].reverse(),
        r"^violation\.leave_one_out\[0\]: does not remove member 0 of the family$"),
    "trail-keeps-the-removed-member": (
        "violation", lambda o: _set(o, ("leave_one_out", 1, "members"), o["family"]),
        r"^violation\.leave_one_out\[1\]: does not remove member 1 of the family$"),
    "analysis-reason-made-up": (
        "violation", lambda o: _set(o, ("leave_one_out", 0, "analysis", "reason"), "made up"),
        r"^violation\.leave_one_out\[0\]\.analysis\.reason: is not a reason ufgkit gives$"),
    "analysis-says-ufg": (
        "violation", lambda o: _set(o, ("leave_one_out", 0, "analysis", "ufg"), True),
        r"^violation\.leave_one_out\[0\]\.analysis\.ufg: expected false$"),
    "analysis-not-union-free-without-blockers": (
        "violation", lambda o: o["leave_one_out"][2]["analysis"].pop("blockers"),
        r"^violation\.leave_one_out\[2\]\.analysis: needs blockers exactly when"),
    "analysis-not-generic-with-blockers": (
        "violation", lambda o: _set(o, ("leave_one_out", 1, "analysis", "blockers"),
                                    o["leave_one_out"][2]["analysis"]["blockers"]),
        r"^violation\.leave_one_out\[1\]\.analysis: needs blockers exactly when"),
}


@pytest.mark.parametrize("name", FORGERIES)
def test_forged_reports_are_rejected(reports, name):
    kind, forge, message = FORGERIES[name]
    obj, parse, _ = reports[kind]
    obj = copy.deepcopy(obj)
    forge(obj)
    with pytest.raises(InvalidFormat, match=message):
        parse(obj)


def _raise_counts(obj):
    obj["checked"] += 1
    obj["connected"] += 1


def _predecessor_repeated(obj):
    obj["predecessors"].insert(1, copy.deepcopy(obj["predecessors"][0]))
    _raise_counts(obj)


def _predecessor_repeated_last(obj):
    obj["predecessors"].append(copy.deepcopy(obj["predecessors"][0]))
    _raise_counts(obj)


def _predecessors_swapped(obj):
    entries = obj["predecessors"]
    entries[0], entries[1] = entries[1], entries[0]


def _family_not_ufg(obj):
    # the predecessor and its own witness: the witness lies in the
    # predecessor's closure, so it keeps no distinguishing attribute
    entry = obj["predecessors"][0]
    members = [jsonio.poset_from_obj(m) for m in entry["predecessor"] + [entry["witness"]]]
    entry["family"] = [jsonio.poset_to_obj(m) for m in canonical_family(members)]


def _predecessor_not_first(obj):
    # on 3 items every pair inside a ufg triple is ufg, so removing the
    # second member gives a ufg subfamily too, but not the first
    entry = obj["predecessors"][0]
    family = [jsonio.poset_from_obj(m) for m in entry["family"]]
    later = (family[0], family[2])
    entry["predecessor"] = [jsonio.poset_to_obj(m) for m in later]
    entry["witness"] = jsonio.poset_to_obj(is_ufg(later).witness)


def _family_out_of_order(obj):
    # the last entry's first member moved to second place: the family
    # still decides and keeps its predecessor, but no writer lists it so
    family = obj["predecessors"][-1]["family"]
    family[0], family[1] = family[1], family[0]


# forgeries of the real ``connectedness -n 3 --json`` output whose entries
# each re-validate and whose counts match the lists
CONNECTEDNESS_FORGERIES = {
    "ground-not-its-families": (lambda o: _set(o, ("ground",), ["a", "b", "c"]),
                                r"^report\.ground: differs from the ground of its families"),
    "max-size-below-a-family": (lambda o: _set(o, ("max_size",), 2),
                                r"^report\.max_size: is below the size of a family"),
    "predecessor-repeated": (_predecessor_repeated,
                             r"^report\.predecessors\[1\]: repeats the entry before it"),
    "predecessor-repeated-last": (_predecessor_repeated_last,
                                  r"^report\.predecessors\[140\]: out of order"),
    "predecessors-out-of-order": (_predecessors_swapped,
                                  r"^report\.predecessors\[1\]: out of order"),
    "family-not-ufg": (_family_not_ufg,
                       r"^report\.predecessors\[0\]\.family: is not union-free generic"),
    "predecessor-not-first": (_predecessor_not_first,
                              r"^report\.predecessors\[0\]\.predecessor: is not the first ufg"),
    "family-out-of-order": (_family_out_of_order,
                            r"^report\.predecessors\[139\]\.family: is not in canonical order"),
}


@pytest.mark.parametrize("name", CONNECTEDNESS_FORGERIES)
def test_forged_connectedness_output_is_rejected(capsys, name):
    obj = _cli_json(capsys, ["connectedness", "-n", "3"])
    jsonio.connectedness_from_obj(copy.deepcopy(obj))  # as written, it parses
    assert (obj["ground"], obj["max_size"]) == (["x1", "x2", "x3"], 12)
    assert len(obj["predecessors"]) == 140
    forge, message = CONNECTEDNESS_FORGERIES[name]
    forge(obj)
    with pytest.raises(InvalidFormat, match=message):
        jsonio.connectedness_from_obj(obj)


def test_a_negative_verdict_gives_a_reason_the_decider_gives():
    for reason in NOT_UFG_REASONS:
        payload = {"ufg": False, "reason": reason}
        assert jsonio.verdict_payload_from_obj(payload) == payload
    with pytest.raises(InvalidFormat, match=r"^payload\.reason: is not a reason ufgkit gives$"):
        jsonio.verdict_payload_from_obj({"ufg": False, "reason": "made up"})


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
    shifted = UfgCatalog(enumerated[2].ground, enumerated[2].pool, 2)
    shifted.add((0, 1), loaded[2].get((0, 1)))
    assert shifted.keys() == loaded[2].keys()
    assert not shifted.same_families(loaded[2])


def _cli_json(capsys, argv):
    assert main([str(a) for a in argv] + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.fixture
def certificate_payloads(capsys, tmp_path, corr):
    """Each parser that reads a certificate, with a payload built from CLI
    output and the JSON path of the certificate inside it."""
    _, p1, p2, p3, _ = corr
    family = tmp_path / "ufg.json"
    family.write_text(jsonio.dumps_canonical(jsonio.family_to_obj([p1, p2, p3])))
    catalog = _cli_json(capsys, ["enumerate", "-n", "2"])
    catalog3 = _cli_json(capsys, ["enumerate", "-n", "3", "--max-size", "2"])
    verdict = _cli_json(capsys, ["check-ufg", "--input", family])
    cert = verdict["certificate"]
    members = cert["members"]
    violation = copy.deepcopy({
        "family": members,
        "certificate": cert,
        "leave_one_out": [
            {"removed": m, "members": members[:j] + members[j + 1:],
             "analysis": {"ufg": False, "reason": NOT_UFG_REASONS[1]}}
            for j, m in enumerate(members)
        ],
    })
    return {
        "catalog": (catalog, jsonio.catalog_from_obj, ("ufg_sets", 0), "catalog.ufg_sets[0]"),
        "catalog3": (catalog3, jsonio.catalog_from_obj, ("ufg_sets", 0), "catalog.ufg_sets[0]"),
        "verdict": (verdict, jsonio.verdict_payload_from_obj, ("certificate",),
                    "payload.certificate"),
        "violation": (violation, jsonio.violation_from_obj, ("certificate",),
                      "violation.certificate"),
    }


def _witness_is_first_member(cert):
    cert["witness"] = copy.deepcopy(cert["members"][0])


def _distinguishing_emptied(cert):
    cert["distinguishing"]["0"] = []


def _distinguishing_edited(cert):
    cert["distinguishing"]["0"] = sorted(cert["distinguishing"]["0"] + cert["distinguishing"]["1"])


def _members_reversed(cert):
    cert["members"].reverse()


def _witness_not_canonical_first(cert):
    # a valid certificate, with the distinguishing texts its witness derives,
    # but not the one is_ufg writes
    members = tuple(jsonio.poset_from_obj(m) for m in cert["members"])
    cert.update(jsonio.certificate_to_obj(UfgCertificate(members, _second_witness(members))))


TAMPERS = [
    (_witness_is_first_member, "", "witness fails re-validation"),
    (_distinguishing_emptied, ".distinguishing", "does not match the members and the witness"),
    (_distinguishing_edited, ".distinguishing", "does not match the members and the witness"),
    (_members_reversed, "", "family is not in canonical order"),
]


@pytest.mark.parametrize(
    "tamper, spot, message, kind",
    [(*t, kind) for t in TAMPERS for kind in ("catalog", "verdict", "violation")]
    # the one family of ``enumerate -n 2`` has one witness; the first of a
    # 3-item catalog, and the corrigendum family, have two
    + [(_witness_not_canonical_first, ".witness", "is not the canonical-first witness", kind)
       for kind in ("catalog3", "verdict", "violation")],
)
def test_parsers_revalidate_certificates(certificate_payloads, kind, tamper, spot, message):
    obj, parse, path, where = certificate_payloads[kind]
    parse(copy.deepcopy(obj))  # intact, it parses
    holder = obj
    for step in path:
        holder = holder[step]
    tamper(holder)
    with pytest.raises(InvalidFormat) as exc:
        parse(obj)
    assert str(exc.value) == f"{where}{spot}: {message}"


def test_catalog_ground_must_be_the_certificates_ground(certificate_payloads):
    catalog = certificate_payloads["catalog"][0]
    catalog["ground"] = ["a", "b", "c"]
    with pytest.raises(InvalidFormat, match=r"^catalog\.ground: differs"):
        jsonio.catalog_from_obj(catalog)


def test_catalog_on_mixed_grounds_is_invalid_format(certificate_payloads):
    catalog = certificate_payloads["catalog"][0]
    catalog["ufg_sets"].append(certificate_payloads["verdict"][0]["certificate"])
    with pytest.raises(InvalidFormat, match=r"^catalog\.ufg_sets: .*different ground sets"):
        jsonio.catalog_from_obj(catalog)


def _three_item_catalog(capsys):
    obj = _cli_json(capsys, ["enumerate", "-n", "3", "--max-size", "2"])
    jsonio.catalog_from_obj(copy.deepcopy(obj))  # as written, it parses
    return obj


def test_catalog_with_families_out_of_order_is_invalid_format(capsys):
    catalog = _three_item_catalog(capsys)
    sets = catalog["ufg_sets"]
    sets[0], sets[1] = sets[1], sets[0]
    with pytest.raises(InvalidFormat, match=r"^catalog\.ufg_sets\[1\]: out of order"):
        jsonio.catalog_from_obj(catalog)


def test_catalog_with_a_repeated_family_is_invalid_format(capsys):
    # the counts by size still match: they count distinct families
    catalog = _three_item_catalog(capsys)
    catalog["ufg_sets"].insert(1, copy.deepcopy(catalog["ufg_sets"][0]))
    with pytest.raises(InvalidFormat, match=r"^catalog\.ufg_sets\[1\]: repeats an earlier family"):
        jsonio.catalog_from_obj(catalog)


@pytest.mark.parametrize(
    "relations, message",
    [
        ([["x1", "x2"], ["x2", "x3"]], "(x1,x2) and (x2,x3) are present but (x1,x3) is missing"),
        ([["x1", "x1"]], "pair (x1,x1) is reflexive"),
    ],
    ids=["not-transitive", "reflexive"],
)
def test_a_nested_relation_that_is_no_order_is_invalid_format_at_its_path(
        capsys, relations, message):
    catalog = _cli_json(capsys, ["enumerate", "-n", "3", "--max-size", "3"])
    catalog["ufg_sets"][5]["members"][0]["relations"] = relations
    with pytest.raises(InvalidFormat) as exc:
        jsonio.catalog_from_obj(catalog)
    assert str(exc.value) == f"catalog.ufg_sets[5].members[0]: {message}"


def test_a_closure_bound_on_an_unknown_label_is_invalid_format_at_its_path():
    payload = {"elements": ["a", "b"], "lower": [], "upper": [["a", "z"]]}
    with pytest.raises(InvalidFormat) as exc:
        jsonio.closure_payload_from_obj(payload)
    assert str(exc.value) == "payload.upper: label 'z' is not in the ground set"


NOT_NEXT = "is not the next order of [lower, upper] in canonical order"


def _member_on_two_items(obj):
    obj["members"][0] = {"elements": ["a", "b"], "relations": []}


def _members_swapped(obj):
    members = obj["members"]
    members[0], members[1] = members[1], members[0]


@pytest.mark.parametrize("kind, tamper, message", [
    ("closure", lambda obj: obj.update(lower=[["b", "a"]]),
     "lower: interval lower bound is not contained in the upper bound"),
    ("closure", lambda obj: obj.update(lower=[["a", "b"], ["b", "a"]]),
     "lower: both (a,b) and (b,a) are present"),
    ("closure", lambda obj: obj["members"][0]["relations"].append(["b", "a"]),
     f"members[0]: {NOT_NEXT}"),
    ("closure", _member_on_two_items, f"members[0]: {NOT_NEXT}"),
    ("closure", _members_swapped, f"members[0]: {NOT_NEXT}"),
    ("closure", lambda obj: obj.update(oracle_checked=False), "oracle_checked: is not true"),
    ("count", lambda obj: obj.update(count=-1), "count: is below 1"),
], ids=["lower-outside-upper", "lower-with-a-cycle", "member-outside", "member-on-another-ground",
        "members-out-of-order", "oracle-not-checked", "negative-count"])
def test_closure_and_count_payloads_no_writer_writes_are_rejected(
        capsys, tmp_path, corr, kind, tamper, message):
    # closure --materialize --oracle and posets -n 3 as written, then forged
    obj, parse = _cli_payloads(capsys, tmp_path, corr)[kind]
    parse(copy.deepcopy(obj))
    tamper(obj)
    with pytest.raises(InvalidFormat) as exc:
        parse(obj)
    assert str(exc.value) == f"payload.{message}"
