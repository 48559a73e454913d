"""Property tests on 4 items: the interval walk, the extension filter,
the distinguishing sets and the witness kernel against the brute-force
references and the independent deciders."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ufgkit.orders import (
    BinaryRelation,
    GroundSet,
    PosetInterval,
    canonical_family,
    canonical_key,
    enumerate_all_posets,
)
import ufgkit.context
import ufgkit.ufg
from ufgkit.context import (
    LEQ,
    NLEQ,
    Attribute,
    _distinguishing_sets,
    _loo_and_or,
    distinguishing,
    gamma_interval,
    partition_distinguishing,
)
from ufgkit.ufg import (
    _certificate,
    _distinguishable,
    candidate_filter,
    explain_not_ufg,
    is_ufg,
)
from ufgkit.oracles import is_generic, is_ufg_by_distinguishing, is_union_free_bruteforce

from oracles import brute_force_interval

G4 = GroundSet.numbered(4)
ORDERS4 = tuple(enumerate_all_posets(G4))

seeded = settings(derandomize=True, deadline=None)
orders = st.sampled_from(ORDERS4)
families = st.lists(orders, min_size=2, max_size=4)


@seeded
@given(orders, st.integers(0, G4.full_bits))
def test_interval_walk_matches_brute_force(lower, extra):
    upper = BinaryRelation(G4, lower.bits | extra)
    walked = list(PosetInterval(lower, upper).posets())
    assert {frozenset(q.pairs) for q in walked} == brute_force_interval(lower, upper.pairs)
    keys = [canonical_key(q) for q in walked]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert walked[0] == lower


# sub-intervals as raw bits: a sparse lower and a dense upper bound drawn
# independently, so some are empty and many reach outside the interval
sub_intervals = st.tuples(
    st.tuples(*[st.integers(0, G4.full_bits)] * 3).map(lambda t: t[0] & t[1] & t[2]),
    st.tuples(*[st.integers(0, G4.full_bits)] * 2).map(lambda t: t[0] | t[1]),
)
EVERYTHING = [(0, G4.full_bits)]


@seeded
@given(orders, st.integers(0, G4.full_bits), st.lists(sub_intervals, max_size=4))
@example(ORDERS4[0], G4.full_bits, [])
@example(ORDERS4[0], G4.full_bits, EVERYTHING)
def test_pruned_walk_is_the_plain_walk_filtered(lower, extra, outside):
    upper = BinaryRelation(G4, lower.bits | extra)
    plain = PosetInterval(lower, upper).posets()
    kept = [q for q in plain
            if all(lo & ~q.bits or q.bits & ~up for lo, up in outside)]
    assert list(PosetInterval(lower, upper, outside).posets()) == kept


@seeded
@given(orders, st.integers(0, G4.full_bits), st.lists(sub_intervals, max_size=4))
@example(ORDERS4[0], G4.full_bits, EVERYTHING)
def test_interval_contains_agrees_with_its_walk(lower, extra, outside):
    iv = PosetInterval(lower, BinaryRelation(G4, lower.bits | extra), outside)
    walked = set(iv.posets())
    assert all(iv.contains(q) == (q in walked) for q in ORDERS4)


@seeded
@given(st.lists(orders, min_size=1, max_size=4), orders)
def test_candidate_filter_is_its_three_part_definition(Q, p):
    # reference: p is no member, lies outside the closure of Q, and leaves
    # every order of Q + p a distinguishing attribute
    members = canonical_family(Q)
    grown = canonical_family(members + (p,))
    expected = (
        p not in members
        and not gamma_interval(members).contains(p)
        and all(distinguishing(x, grown).attributes for x in grown)
    )
    assert candidate_filter(Q, p) == expected


@seeded
@given(families)
def test_witness_kernel_agrees_with_independent_deciders(family):
    by_witness = is_ufg(family) is not None
    assert by_witness == (is_ufg_by_distinguishing(family) is not None)
    assert by_witness == (is_generic(family) and is_union_free_bruteforce(family))


@seeded
@given(families, st.data())
def test_reported_blockers_lie_in_their_leave_one_out_closure(base, data):
    # adding an order from the closure of the others never leaves a witness
    closure = [q for q in gamma_interval(base).posets() if q not in base]
    extra = data.draw(st.sampled_from(closure or base))
    members = canonical_family(base + [extra])
    assert is_ufg(members) is None
    report = explain_not_ufg(members)
    for entry in report.get("blockers", []):
        rest = [m for m in members if m != entry["covered_without"]]
        assert gamma_interval(rest).contains(entry["candidate"])
    if "blockers" in report:  # not union-free: every order outside is blocked
        outside = set(gamma_interval(members).posets()) - set(members)
        assert len(report["blockers"]) == len(outside)


def _prefilter_passes(members):
    bits = [m.bits for m in members]
    return _distinguishable(bits, *_loo_and_or(bits, G4.full_bits))


@seeded
@given(st.lists(orders, min_size=1, max_size=3), st.data(), st.lists(orders, max_size=3))
def test_prefilter_failure_is_hereditary(base, data, extra):
    # an order from the closure of the others keeps no distinguishing
    # attribute, and adding members never gives it one back
    inside = data.draw(st.sampled_from(list(gamma_interval(base).posets())))
    family = canonical_family(base + [inside])
    if inside not in base:
        assert not _prefilter_passes(family)
    if not _prefilter_passes(family):
        assert not _prefilter_passes(canonical_family(base + [inside] + extra))


def _naive_distinguishing(x, members, q):
    # the definition: the other members' AND and OR, then every pair position
    others_and, others_or = G4.full_bits, 0
    for m in members:
        if m != x:
            others_and &= m.bits
            others_or |= m.bits
    attrs = set()
    for k in range(G4.pair_count):
        i, j = G4.pair_at(k)
        in_x = (x.bits >> k) & 1
        in_q = (q.bits >> k) & 1 if q is not None else None
        if (others_and >> k) & 1 and not in_x and in_q in (None, 0):
            attrs.add(Attribute(LEQ, i, j))
        if not (others_or >> k) & 1 and in_x and in_q in (None, 1):
            attrs.add(Attribute(NLEQ, i, j))
    return frozenset(attrs)


@seeded
@given(st.lists(orders, min_size=2, max_size=4, unique=True), orders)
def test_distinguishing_sets_are_their_definition(family, r):
    members = canonical_family(family)
    for q in (None, r):
        expected = [_naive_distinguishing(x, members, q) for x in members]
        sets = _distinguishing_sets(members, q)
        assert [d.member for d in sets] == list(members)
        assert [d.attributes for d in sets] == expected
        assert all(d.restriction == q for d in sets)
        assert [distinguishing(x, family, q).attributes for x in members] == expected
        union = frozenset().union(*expected)
        assert partition_distinguishing(family, q) == (
            frozenset(a for a in union if a.kind == LEQ),
            frozenset(a for a in union if a.kind == NLEQ),
        )


def test_one_leave_one_out_pass_per_family(corr, monkeypatch):
    _, p1, p2, p3, q = corr
    calls = []
    original = ufgkit.context._loo_and_or

    def counting(bits_list, full):
        calls.append(1)
        return original(bits_list, full)

    monkeypatch.setattr(ufgkit.context, "_loo_and_or", counting)
    monkeypatch.setattr(ufgkit.ufg, "_loo_and_or", counting)
    members = canonical_family([p1, p2, p3])
    cert = _certificate(members, q)
    assert len(calls) == 1
    cert.validate()
    assert len(calls) == 2
    partition_distinguishing(members, q)
    assert len(calls) == 3


def test_is_ufg_makes_one_leave_one_out_pass(corr, monkeypatch):
    _, p1, p2, p3, _ = corr
    calls = []
    original = ufgkit.context._loo_and_or

    def counting(bits_list, full):
        calls.append(1)
        return original(bits_list, full)

    monkeypatch.setattr(ufgkit.context, "_loo_and_or", counting)
    monkeypatch.setattr(ufgkit.ufg, "_loo_and_or", counting)
    assert is_ufg([p1, p2, p3]) is not None
    assert len(calls) == 1  # kernel and certificate share it
