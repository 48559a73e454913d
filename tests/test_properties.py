"""Property tests on 4 items: the interval walk, the extension filter,
the catalog step, the distinguishing sets and the witness kernel against
the brute-force references and the independent deciders; the root
search's decision against the witness scan on 3 to 5 items; and the
root search's returned order against its eager form."""

from __future__ import annotations

import random
from itertools import combinations
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ufgkit.orders import (
    BinaryRelation,
    GroundSet,
    Poset,
    PosetInterval,
    _bits_to_matrix,
    _escape,
    _matrix_to_bits,
    _size_table,
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
    distinguishing,
    gamma_interval,
    partition_distinguishing,
)
from ufgkit.ufg import (
    _certificate,
    _decides,
    _prefilter,
    candidate_filter,
    explain_not_ufg,
    is_ufg,
)
from ufgkit.connectedness import random_pool
from ufgkit.oracles import is_generic, is_ufg_by_distinguishing, is_union_free_bruteforce

from oracles import brute_force_interval, eager_escape

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
# sub-intervals anchored at a lower bound, as (lo, up) masks read against it:
# lo = lower & lo-mask and up = lower | up-mask, a sparse AND of three, so
# the root lies inside and the search must branch past a small upper bound
anchored_masks = st.tuples(
    st.integers(0, G4.full_bits),
    st.tuples(*[st.integers(0, G4.full_bits)] * 3).map(lambda t: t[0] & t[1] & t[2]),
)


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
    # the walk's bound at its root: a member exactly when the walk keeps one
    subs = [(_bits_to_matrix(G4, lo), _bits_to_matrix(G4, up)) for lo, up in outside]
    t = _escape(_bits_to_matrix(G4, lower.bits), _bits_to_matrix(G4, upper.bits), subs,
                _size_table(4))
    assert (t is None) == (not kept)
    assert t is None or _matrix_to_bits(G4, t) in {q.bits for q in kept}


def _escape_as_eager(m, allowed, subs, table):
    # the lazy search returns what the eager one does: both None, or one matrix
    t = _escape(m, allowed, subs, table)
    assert t == eager_escape(m, allowed, subs, table)
    return t


@seeded
@given(orders, st.integers(0, G4.full_bits), st.lists(sub_intervals, max_size=4),
       st.lists(anchored_masks, max_size=3))
@example(ORDERS4[0], G4.full_bits, [], [])
@example(ORDERS4[0], G4.full_bits, EVERYTHING, [])
def test_lazy_search_returns_the_eager_searchs_order(lower, extra, outside, masks):
    anchored = [(lower.bits & lo, lower.bits | up) for lo, up in masks]
    subs = [(_bits_to_matrix(G4, lo), _bits_to_matrix(G4, up)) for lo, up in anchored + outside]
    _escape_as_eager(_bits_to_matrix(G4, lower.bits), _bits_to_matrix(G4, lower.bits | extra),
                     subs, _size_table(4))


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
    # generic, so not union-free, exactly when the closure holds an order
    # outside the family; then every such order is blocked
    outside = set(gamma_interval(members).posets()) - set(members)
    assert report["reason"].startswith("not union-free") == bool(outside)
    assert len(report.get("blockers", [])) == len(outside)


ORDERS_BY_SIZE = {n: tuple(enumerate_all_posets(GroundSet.numbered(n))) for n in (3, 4, 5)}


def _orders(n, *bits):
    ground = GroundSet.numbered(n)
    return [Poset(ground, b) for b in bits]


def _root_decision(members):
    # the decider takes packed matrices: unpack the closure and the pairs
    ground = members[0].ground
    bits = [m.bits for m in members]
    loo = ufgkit.context._loo_and_or(bits, ground.full_bits)
    lower = _bits_to_matrix(ground, loo[0][0] & bits[0])
    upper = _bits_to_matrix(ground, loo[0][1] | bits[0])
    loo = [(_bits_to_matrix(ground, lo), _bits_to_matrix(ground, up)) for lo, up in loo]
    table = _size_table(ground.size)
    decided = _decides(table, lower, upper, loo)
    assert decided == (_escape_as_eager(lower, upper, loo, table) is not None)
    return decided


@seeded
@given(st.sampled_from(sorted(ORDERS_BY_SIZE)).flatmap(
    lambda n: st.lists(st.sampled_from(ORDERS_BY_SIZE[n]), min_size=2, max_size=6)))
# families that pass the prefilter and still have no witness, of 3 to 6
# members on 3 to 5 items
@example(_orders(3, 0, 48, 20))
@example(_orders(4, 256, 56, 2562))
@example(_orders(4, 3072, 264, 36, 3))
@example(_orders(4, 640, 2624, 2064, 2562, 293))
@example(_orders(5, 90144, 872562, 278782, 319659))
@example(_orders(5, 984896, 278688, 332080, 55306, 43529))
@example(_orders(5, 7504, 49160, 2696, 722004, 487474, 991745))
def test_root_search_decides_as_is_ufg(family):
    # exact without the prefilter too: a family it turns away has no
    # order outside the leave-one-out closures either
    members = canonical_family(family)
    if len(members) >= 2:
        assert _root_decision(members) == (is_ufg(members) is not None)


def test_root_search_decides_as_the_witness_scan_on_whole_spaces():
    # every family of 2 to 4 orders on 3 items, and of 2 to 6 orders of
    # enum5's pool on 5 items: the verdicts are the witness scan's, also
    # on the families that pass the prefilter without a witness
    pool5 = random_pool(GroundSet.numbered(5), random.Random("pool:0"), 12)
    for space, sizes, expected in ((ORDERS_BY_SIZE[3], (2, 3, 4), 337),
                                   (pool5, (2, 3, 4, 5, 6), 94)):
        full = space[0].ground.full_bits
        unwitnessed = 0
        for size in sizes:
            for members in combinations(space, size):
                witnessed = is_ufg(members) is not None
                assert _root_decision(members) == witnessed
                passes = _prefilter([m.bits for m in members], full) is not None
                unwitnessed += passes and not witnessed
        assert unwitnessed == expected


@seeded
@given(st.lists(orders, max_size=5))
@example([])
@example([ORDERS4[5]])
@example([ORDERS4[3], ORDERS4[3]])  # a duplicate lies in the closure of the others
def test_leave_one_out_closures_are_their_definition(family):
    # pair i is the AND and OR of every member but member i, computed
    # naively; one member leaves the closure of nothing, (full, 0); and the
    # prefilter returns the same pairs unless a member lies in its own pair
    bits = [m.bits for m in family]
    expected = []
    for i in range(len(bits)):
        lo, up = G4.full_bits, 0
        for b in bits[:i] + bits[i + 1:]:
            lo &= b
            up |= b
        expected.append((lo, up))
    loo = ufgkit.context._loo_and_or(bits, G4.full_bits)
    assert loo == expected
    if len(bits) == 1:
        assert loo == [(G4.full_bits, 0)]
    covered = any(not (lo & ~b or b & ~up) for b, (lo, up) in zip(bits, expected))
    assert _prefilter(bits, G4.full_bits) == (None if covered else expected)


def _prefilter_passes(members):
    return _prefilter([m.bits for m in members], G4.full_bits) is not None


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


parents = st.lists(st.integers(0, len(ORDERS4) - 1), min_size=1, max_size=4, unique=True)


@seeded
@given(parents)
@example([0])  # singleton parents: every child inserts at the end ...
@example([len(ORDERS4) - 1])  # ... or at position 0
@example([7])
@example([0, 100, len(ORDERS4) - 1])  # both ends are taken: only inner positions
@example([3, 40, 41, 150])
def test_catalog_step_is_the_prefilter_of_the_child(indices):
    # for every k outside the parent, the step returns the sorted child
    # beside the prefilter's pairs on the child's bits, unpacked to the
    # catalog's matrices, or None where the prefilter says None; and its
    # verdict is whether the child is ufg
    catalog = ufgkit.ufg.UfgCatalog(G4, ORDERS4, 6)  # every order on 4 items

    def matrices(loo):
        return None if loo is None else [
            (_bits_to_matrix(G4, lo), _bits_to_matrix(G4, up)) for lo, up in loo]

    family = tuple(sorted(indices))
    loo = matrices(ufgkit.context._loo_and_or([ORDERS4[i].bits for i in family], G4.full_bits))
    if len(family) == 1:
        assert catalog.singleton == loo
        loo = catalog.singleton
    before = list(loo)
    for k in range(len(ORDERS4)):
        if k in family:
            continue
        child = tuple(sorted(family + (k,)))
        expected = matrices(_prefilter([ORDERS4[i].bits for i in child], G4.full_bits))
        state = catalog.step(family, loo, k)
        assert (None if state is None else state[:2]) == (
            None if expected is None else (child, expected))
        if expected is not None:
            assert state[2] == (is_ufg(ORDERS4[i] for i in child) is not None)
    assert loo == before  # the step leaves the parent's pairs as they were


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
    cert = _certificate(members, q.bits)
    assert len(calls) == 0  # the certificate stores no distinguishing sets
    cert.distinguishing()
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


def test_catalog_step_makes_no_leave_one_out_pass(corr, monkeypatch):
    # a child decided through the step takes its pairs from its parent's:
    # no prefilter and no leave-one-out pass, and the kernel does not
    # filter it again
    _, p1, p2, p3, _ = corr
    calls = []

    def counting(original):
        def wrapped(bits_list, full):
            calls.append(original.__name__)
            return original(bits_list, full)
        return wrapped

    monkeypatch.setattr(ufgkit.ufg, "_prefilter", counting(ufgkit.ufg._prefilter))
    monkeypatch.setattr(ufgkit.context, "_loo_and_or", counting(ufgkit.context._loo_and_or))
    monkeypatch.setattr(ufgkit.ufg, "_loo_and_or", counting(ufgkit.ufg._loo_and_or))
    pool = canonical_family([p1, p2, p3])
    catalog = ufgkit.ufg.UfgCatalog(p1.ground, pool, 3)
    pair = catalog.step((0,), catalog.singleton, 1)
    assert catalog.step(*pair[:2], 2)[2]  # the three orders are ufg
    assert calls == []
