"""Property tests on 4 items: the interval walk, the extension filter and
the witness kernel against the brute-force references and the
independent deciders."""

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
from ufgkit.context import distinguishing, gamma_interval
from ufgkit.ufg import candidate_filter, explain_not_ufg, is_generic, is_ufg
from ufgkit.oracles import is_ufg_by_distinguishing, is_union_free_bruteforce

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
