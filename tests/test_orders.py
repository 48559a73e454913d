"""Relation algebra: construction, validation, closure, intervals."""

from __future__ import annotations

import hashlib
import random
from itertools import islice

import pytest

from ufgkit.errors import (
    DuplicateLabel,
    EmptyFamily,
    EmptyGroundSet,
    GroundSetTooLarge,
    IndexOutOfRange,
    MixedGroundSets,
    NotAntisymmetric,
    NotTransitive,
    ReflexivePairRejected,
    UnknownLabel,
)
from ufgkit.orders import (
    _bits_to_matrix,
    _interval_bits,
    _matrix_to_bits,
    _order_bits,
    _size_table,
    _validate_poset,
    BinaryRelation,
    GroundSet,
    Poset,
    PosetInterval,
    canonical_family,
    canonical_key,
    complete_relation,
    empty_poset,
    enumerate_all_posets,
    make_poset,
    transitive_closure,
)
from ufgkit.context import gamma_interval
from ufgkit.oracles import intersect_family, union_family

from oracles import (
    brute_force_interval,
    brute_force_strict_posets,
    naive_transitive_closure,
)


# --- ground sets -------------------------------------------------------------


def test_ground_set_rejects_empty():
    with pytest.raises(EmptyGroundSet):
        GroundSet([])


def test_ground_set_rejects_duplicates():
    with pytest.raises(DuplicateLabel):
        GroundSet(["a", "b", "a"])


def test_ground_set_index_roundtrip():
    g = GroundSet(["a", "b", "a1"])
    assert [g.index(l) for l in g.labels] == [0, 1, 2]
    for k in range(g.pair_count):
        i, j = g.pair_at(k)
        assert g.pair_index(i, j) == k
    with pytest.raises(UnknownLabel):
        g.index("z")


# --- poset construction ------------------------------------------------------


def test_make_poset_counterexample_literal(corr):
    ground, p1, _, _, _ = corr
    assert p1.label_pairs() == [("a", "b"), ("a1", "c1")]
    assert len(p1) == 2


def test_empty_relation_is_a_poset():
    g = GroundSet(["a", "b"])
    assert make_poset(g, []).bits == 0


def test_make_poset_rejects_missing_transitive_pair():
    g = GroundSet(["a", "b", "c"])
    with pytest.raises(NotTransitive) as exc:
        make_poset(g, [("a", "b"), ("b", "c")])
    assert exc.value.triple == ("a", "b", "c")


def test_make_poset_rejects_two_cycle():
    g = GroundSet(["a", "b"])
    with pytest.raises(NotAntisymmetric) as exc:
        make_poset(g, [("a", "b"), ("b", "a")])
    assert exc.value.pair == ("a", "b")


def test_make_poset_rejects_reflexive_pair():
    g = GroundSet(["a", "b"])
    with pytest.raises(ReflexivePairRejected):
        make_poset(g, [("a", "a")])


def test_make_poset_rejects_unknown_label():
    g = GroundSet(["a", "b"])
    with pytest.raises(UnknownLabel):
        make_poset(g, [("a", "z")])


def test_relation_bits_bounds_checked():
    g = GroundSet(["a", "b"])
    with pytest.raises(IndexOutOfRange):
        BinaryRelation(g, 1 << g.pair_count)
    with pytest.raises(IndexOutOfRange):
        BinaryRelation.from_pairs(g, [(0, 5)])


# --- transitive closure ------------------------------------------------------


def test_transitive_closure_adds_composite():
    g = GroundSet(["a", "b", "c"])
    rel = BinaryRelation.from_labels(g, [("a", "b"), ("b", "c")])
    assert transitive_closure(rel).pairs == {(0, 1), (1, 2), (0, 2)}


def test_transitive_closure_fixed_points():
    g = GroundSet(["a", "b"])
    assert transitive_closure(BinaryRelation(g, 0)).bits == 0
    cyc = BinaryRelation.from_labels(g, [("a", "b"), ("b", "a")])
    # strict storage keeps the 2-cycle as-is; poset validation rejects it later
    assert transitive_closure(cyc).pairs == cyc.pairs
    with pytest.raises(NotAntisymmetric):
        Poset(g, cyc.bits)


def test_transitive_closure_matches_naive_oracle():
    rng = random.Random(20240811)
    g = GroundSet.numbered(4)
    for _ in range(200):
        bits = rng.getrandbits(g.pair_count)
        rel = BinaryRelation(g, bits)
        closed = transitive_closure(rel)
        assert closed.pairs == naive_transitive_closure(set(rel.pairs))
        assert transitive_closure(closed).bits == closed.bits  # idempotent


def test_transitive_closure_of_cycles_keeps_the_diagonal_implicit():
    # the packed matrix marks an item on a cycle as reaching itself; the
    # closure must drop exactly those diagonal bits and nothing else
    rng = random.Random(4231)
    for n in range(2, 7):
        g = GroundSet.numbered(n)
        for _ in range(50):
            a, b = rng.sample(range(n), 2)
            bits = rng.getrandbits(g.pair_count) & rng.getrandbits(g.pair_count)
            bits |= 1 << g.pair_index(a, b) | 1 << g.pair_index(b, a)
            rel = BinaryRelation(g, bits)
            closed = transitive_closure(rel)
            assert closed.pairs == naive_transitive_closure(set(rel.pairs))
            assert transitive_closure(closed).bits == closed.bits


def test_matrix_packing_roundtrip():
    rng = random.Random(8)
    for n in range(1, 9):
        g = GroundSet.numbered(n)
        for k in range(g.pair_count):
            i, j = g.pair_at(k)
            assert _bits_to_matrix(g, 1 << k) == 1 << i * n + j
            assert _matrix_to_bits(g, 1 << i * n + j) == 1 << k
        for _ in range(200):
            bits = rng.getrandbits(g.pair_count)
            assert _matrix_to_bits(g, _bits_to_matrix(g, bits)) == bits


# --- family intersection / union ---------------------------------------------


def test_intersect_counterexample_family_is_empty(corr):
    _, p1, p2, p3, _ = corr
    assert intersect_family([p1, p2, p3]).bits == 0


def test_intersect_singleton_is_identity(corr):
    _, p1, _, _, _ = corr
    assert intersect_family([p1]) == p1


def test_intersect_reversed_chains_is_empty():
    g = GroundSet(["a", "b", "c"])
    up = make_poset(g, [("a", "b"), ("b", "c"), ("a", "c")])
    down = make_poset(g, [("c", "b"), ("b", "a"), ("c", "a")])
    assert intersect_family([up, down]).bits == 0


def test_union_counterexample_family(corr):
    ground, p1, p2, p3, _ = corr
    union = union_family([p1, p2, p3])
    want = {("a", "b"), ("a1", "c1"), ("a1", "b1"), ("b1", "c1")}
    assert set(union.label_pairs()) == want


def test_union_need_not_be_a_poset():
    g = GroundSet(["a", "b"])
    ab = make_poset(g, [("a", "b")])
    ba = make_poset(g, [("b", "a")])
    union = union_family([ab, ba])
    assert union.pairs == {(0, 1), (1, 0)}
    with pytest.raises(NotAntisymmetric):
        Poset(g, union.bits)


def test_family_ops_reject_empty_and_mixed():
    g = GroundSet(["a", "b"])
    h = GroundSet(["a", "c"])
    with pytest.raises(EmptyFamily):
        intersect_family([])
    with pytest.raises(EmptyFamily):
        union_family([])
    with pytest.raises(MixedGroundSets):
        intersect_family([empty_poset(g), empty_poset(h)])


def test_intersection_of_random_posets_validates(pool3):
    rng = random.Random(7)
    for _ in range(100):
        family = rng.sample(pool3, rng.randint(1, 4))
        inter = intersect_family(family)
        Poset(inter.ground, inter.bits)  # must not raise


# --- intervals ----------------------------------------------------------------


def test_interval_membership_counterexample(corr):
    _, p1, p2, p3, q = corr
    assert gamma_interval([p1, p2, p3]).contains(q)
    assert not gamma_interval([p1, p2]).contains(q)


def test_degenerate_interval(corr):
    _, p1, _, _, _ = corr
    iv = gamma_interval([p1])
    assert iv.contains(p1)
    assert list(iv.posets()) == [p1]


def test_interval_rejects_mixed_grounds():
    g = GroundSet(["a", "b"])
    h = GroundSet(["a", "c"])
    with pytest.raises(MixedGroundSets):
        PosetInterval(empty_poset(g), complete_relation(h))
    iv = PosetInterval(empty_poset(g), complete_relation(g))
    with pytest.raises(MixedGroundSets):
        iv.contains(empty_poset(h))


def test_interval_requires_nested_bounds():
    g = GroundSet(["a", "b"])
    ab = make_poset(g, [("a", "b")])
    with pytest.raises(ValueError):
        PosetInterval(ab, BinaryRelation(g, 0))


def test_interval_outside_shapes_identity(corr):
    _, p1, p2, p3, q = corr
    iv = gamma_interval([p1, p2, p3])
    rest = gamma_interval([p1, p2])
    cut = PosetInterval(iv.lower, iv.upper, [(rest.lower.bits, rest.upper.bits)])
    assert cut.outside == ((rest.lower.bits, rest.upper.bits),)
    assert "outside=" in repr(cut) and "outside=" not in repr(iv)
    assert cut.contains(q) and not cut.contains(p1)


def test_interval_stream_counterexample_contains_q(corr):
    _, p1, p2, p3, q = corr
    members = list(gamma_interval([p1, p2, p3]).posets())
    assert q in members


def test_interval_stream_is_canonical_and_complete(g3):
    iv = PosetInterval(empty_poset(g3), complete_relation(g3))
    members = list(iv.posets())
    keys = [canonical_key(p) for p in members]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(members)
    assert members[0].bits == 0  # lower bound first
    assert all(iv.contains(p) for p in members)
    assert {frozenset(p.pairs) for p in members} == set(
        brute_force_strict_posets(3)
    )


def test_random_intervals_match_brute_force(g3, pool3):
    rng = random.Random(99)
    for _ in range(40):
        lower = rng.choice(pool3)
        upper = BinaryRelation(g3, lower.bits | rng.getrandbits(g3.pair_count))
        iv = PosetInterval(lower, upper)
        got = {frozenset(p.pairs) for p in iv.posets()}
        want = brute_force_interval(lower, upper.pairs)
        assert got == want


def test_nested_intervals_are_monotone(g3, pool3):
    rng = random.Random(5)
    for _ in range(40):
        fam_small = rng.sample(pool3, 2)
        fam_big = fam_small + rng.sample(pool3, 2)
        inner = {p.bits for p in gamma_interval(fam_small).posets()}
        outer = {p.bits for p in gamma_interval(fam_big).posets()}
        assert inner <= outer


# --- full enumeration ---------------------------------------------------------


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 19), (4, 219), (5, 4231)])
def test_poset_counts(n, count):
    # OEIS A001035, streamed in strictly increasing canonical-key order
    keys = [canonical_key(p) for p in enumerate_all_posets(GroundSet.numbered(n))]
    assert len(keys) == count
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumerate_all_matches_brute_force():
    for n in (1, 2, 3):
        g = GroundSet.numbered(n)
        got = {frozenset(p.pairs) for p in enumerate_all_posets(g)}
        assert got == set(brute_force_strict_posets(n))


def test_generated_posets_are_transitively_closed(pool3):
    for p in pool3:
        assert transitive_closure(p).bits == p.bits


def test_leaves_equal_checked_posets():
    # the walk's leaves skip Poset.__init__: each must be indistinguishable
    # from the order the validating constructor builds from the same bits
    g = GroundSet.numbered(5)
    leaves = list(enumerate_all_posets(g))
    assert len(leaves) == 4231
    for p in leaves:
        assert type(p) is Poset and p.ground is g
        checked = Poset(g, p.bits)
        assert p == checked and hash(p) == hash(checked)
        assert canonical_key(p) == canonical_key(checked)
        assert repr(p) == repr(checked)
        _validate_poset(g, p.bits)


def test_six_item_stream_is_pinned():
    # the bits of every order on 6 items in stream order: a walk that
    # changes the order, or any order, changes the digest
    bits = [p.bits for p in enumerate_all_posets(GroundSet.numbered(6))]
    assert len(bits) == 130023
    assert hashlib.sha256("\n".join(map(str, bits)).encode()).hexdigest() == (
        "982cb50fba30f188e0154d5bf29335db8e374d9d9da784b3dc40060ea3d07ffb"
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_step_table_matches_pair_positions(n):
    g = GroundSet.numbered(n)
    table = _size_table(n)
    # rows are built on first use, keyed by matrix bit; fill every one,
    # then check them all
    cells = [i * n + j for i, j in map(g.pair_at, range(g.pair_count))]
    rows = [table.step(c) for c in cells]
    assert rows == [table.by_cell[c] for c in cells]
    assert len(rows) == g.pair_count  # none for one item
    for k, row in enumerate(rows):
        i, j = g.pair_at(k)
        assert row == (1 << k, 1 << i * n + j, 1 << j * n + i, i, 1 << i * n, j * n, 1 << j)
        assert row[1] == _bits_to_matrix(g, 1 << k)


@pytest.mark.parametrize("n", range(1, 8))
def test_size_table_matches_its_definitions(n):
    g = GroundSet.numbered(n)
    assert (g.pair_count, g.full_bits) == (n * (n - 1), 2 ** (n * (n - 1)) - 1)
    table = _size_table(n)
    assert table is _size_table(n)  # built once per item count
    assert table.col0 == sum(1 << x * n for x in range(n))  # Warshall's first column
    assert table.row_mask == 2 ** n - 1
    assert table.diagonal == sum(1 << i * n + i for i in range(n))
    cells = [1 << i * n + j for i, j in map(g.pair_at, range(g.pair_count))]
    assert list(table.cells) == cells
    # the step rows by matrix bit once filled, None on the diagonal
    for i, j in map(g.pair_at, range(g.pair_count)):
        table.step(i * n + j)
    assert all(table.by_cell[i * (n + 1)] is None for i in range(n))
    # the shifts hold every off-diagonal cell once, each cell s bits above
    # the pair_index position of its pair
    held = []
    for s, mask in table.shifts:
        for i in range(n):
            for j in range(n):
                if mask >> i * n + j & 1:
                    assert g.pair_index(i, j) == i * n + j - s
                    held.append(1 << i * n + j)
    assert sorted(held) == sorted(cells)
    # canonical_key gives the per-pair encoding on every single pair
    for k in range(g.pair_count):
        assert canonical_key(BinaryRelation(g, 1 << k)) == _per_pair_key(BinaryRelation(g, 1 << k))
    assert canonical_key(complete_relation(g)) == _per_pair_key(complete_relation(g))


def test_canonical_family_on_a_wide_ground_builds_no_size_table():
    # the table's walk steps grow as n**4 bits: keying a family walks
    # nothing, so it must not build them
    g = GroundSet.numbered(50)
    members = [Poset(g, 1 << k) for k in (0, 7, 2449)]
    before = _size_table.cache_info()
    family = canonical_family(members)
    assert _size_table.cache_info() == before
    assert [canonical_key(p) for p in family] == sorted(_per_pair_key(p) for p in members)


def test_a_walk_on_a_wide_ground_fills_only_the_rows_it_meets():
    # three one-pair orders on 340 items: the closure walk meets 3 pairs
    g = GroundSet.numbered(340)
    ks = [g.pair_index(0, 1), g.pair_index(2, 3), g.pair_index(4, 5)]
    assert len(list(_interval_bits(g, 0, sum(1 << k for k in ks)))) == 8
    table = _size_table(340)
    filled = [c for c, row in enumerate(table.by_cell) if row is not None]
    assert filled == [i * 340 + j for i, j in map(g.pair_at, ks)]


def test_row_walk_is_the_pair_walk_on_the_whole_space():
    for n in range(1, 7):
        g = GroundSet.numbered(n)
        assert list(_order_bits(n)) == list(_interval_bits(g, 0, g.full_bits))


@pytest.mark.parametrize("n", [7, 8, 9, 12])
def test_row_walk_is_the_pair_walk_on_the_first_orders_of_wider_grounds(n):
    # deep rows narrowed from their parents, rows of more than _LIST_ITEMS
    # candidates split lazily, and from 9 items rows u >= 256 spread past
    # the byte table
    g = GroundSet.numbered(n)
    assert list(islice(_order_bits(n), 30000)) == list(
        islice(_interval_bits(g, 0, g.full_bits), 30000))


def test_a_closure_of_the_whole_space_streams_through_either_walk():
    # a chain and its reverse: their AND is empty and their OR complete
    g = GroundSet.numbered(4)
    up = make_poset(g, [(f"x{a}", f"x{b}") for a in range(1, 5) for b in range(a + 1, 5)])
    down = make_poset(g, [(b, a) for a, b in up.label_pairs()])
    iv = gamma_interval([up, down])
    assert (iv.lower.bits, iv.upper.bits, iv.outside) == (0, g.full_bits, ())
    streamed = [q.bits for q in iv.posets()]
    assert len(streamed) == 219
    assert streamed == list(_interval_bits(g, 0, g.full_bits))


def test_row_walk_on_a_wide_ground_starts_at_once():
    # the first orders on 40 items, lazily split, and no size table built
    g = GroundSet.numbered(40)
    before = _size_table.cache_info()
    first = [p.bits for p in islice(enumerate_all_posets(g, cap=40), 50)]
    assert _size_table.cache_info() == before
    assert first == list(islice(_interval_bits(g, 0, g.full_bits), 50))


def test_sub_interval_holding_every_member_empties_the_walk(g3):
    lower, upper = make_poset(g3, [("x1", "x2")]).bits, g3.full_bits
    assert list(_interval_bits(g3, lower, upper, [(lower, upper)])) == []
    assert list(_interval_bits(g3, lower, upper, [(0, g3.full_bits), (upper, 0)])) == []


def test_sub_interval_holding_no_member_changes_nothing(g3):
    lower, upper = make_poset(g3, [("x1", "x2")]).bits, g3.full_bits
    plain = list(_interval_bits(g3, lower, upper))
    assert plain == [p.bits for p in enumerate_all_posets(g3) if p.has_pair(0, 1)]
    x2_x1 = 1 << g3.pair_index(1, 0)
    none_held = [
        (x2_x1, g3.full_bits),  # every member lacks (x2, x1)
        (0, 0),  # every member holds (x1, x2)
        (g3.full_bits, 0),  # empty
    ]
    for outside in ([sub] for sub in none_held):
        assert list(_interval_bits(g3, lower, upper, outside)) == plain
    assert list(_interval_bits(g3, lower, upper, none_held)) == plain


def test_enumeration_cap(monkeypatch):
    g = GroundSet.numbered(7)
    with pytest.raises(GroundSetTooLarge):
        enumerate_all_posets(g)
    # the default cap is read at call time
    monkeypatch.setattr("ufgkit.orders.DEFAULT_GROUND_CAP", 3)
    with pytest.raises(GroundSetTooLarge):
        enumerate_all_posets(GroundSet.numbered(4))
    assert sum(1 for _ in enumerate_all_posets(GroundSet.numbered(4), cap=4)) == 219
    # an explicit cap beats the default, both ways
    monkeypatch.setattr("ufgkit.orders.DEFAULT_GROUND_CAP", 4)
    assert sum(1 for _ in enumerate_all_posets(GroundSet.numbered(4))) == 219
    with pytest.raises(GroundSetTooLarge):
        enumerate_all_posets(GroundSet.numbered(4), cap=2)


def test_zero_items_rejected_before_enumeration():
    with pytest.raises(EmptyGroundSet):
        GroundSet.numbered(0)


# --- canonical keys -----------------------------------------------------------


def test_canonical_key_examples():
    g = GroundSet(["a", "b"])
    assert canonical_key(empty_poset(g)) == b"\x00"
    assert canonical_key(make_poset(g, [("a", "b")])) == b"\x80"
    assert canonical_key(make_poset(g, [("b", "a")])) == b"\x40"


def test_canonical_key_injective(pool3):
    keys = {canonical_key(p) for p in pool3}
    assert len(keys) == len(pool3)


def test_canonical_key_stable_across_equal_values(g3):
    a = make_poset(g3, [("x1", "x2")])
    b = make_poset(g3, [("x1", "x2")])
    assert a == b and canonical_key(a) == canonical_key(b)


def _per_pair_key(rel: BinaryRelation) -> bytes:
    # an independent encoding: one shift per pair position, MSB first
    total = rel.ground.pair_count
    acc = 0
    for k in range(total):
        acc = (acc << 1) | ((rel.bits >> k) & 1)
    acc <<= (-total) % 8
    return acc.to_bytes((total + 7) // 8 or 1, "big")


def test_canonical_key_matches_per_pair_encoding():
    for n in range(1, 5):
        for p in enumerate_all_posets(GroundSet.numbered(n)):
            assert canonical_key(p) == _per_pair_key(p)
    rng = random.Random(29)
    for n in range(1, 9):
        g = GroundSet.numbered(n)
        rels = [BinaryRelation(g, g.full_bits)]
        rels += [BinaryRelation(g, rng.getrandbits(g.pair_count)) for _ in range(40)]
        for rel in rels:
            assert canonical_key(rel) == _per_pair_key(rel)
    assert canonical_key(empty_poset(GroundSet.numbered(1))) == b"\x00"


def test_canonical_family_dedupes_and_sorts(g2):
    ab = make_poset(g2, [("x1", "x2")])
    ba = make_poset(g2, [("x2", "x1")])
    # the (x2,x1) key 0x40 sorts before the (x1,x2) key 0x80
    assert canonical_family([ab, ba, ab]) == (ba, ab)


def test_canonical_family_on_equal_distinct_ground_sets():
    g, h = GroundSet.numbered(2), GroundSet.numbered(2)
    assert g == h and g is not h
    ab, ba = make_poset(g, [("x1", "x2")]), make_poset(h, [("x2", "x1")])
    assert canonical_family([ab, ba, make_poset(h, [("x1", "x2")])]) == (ba, ab)
    with pytest.raises(MixedGroundSets):
        canonical_family([ab, empty_poset(GroundSet(["x1", "x3"]))])


def test_label_pairs_follow_pair_positions():
    g = GroundSet.numbered(4)
    orders = list(enumerate_all_posets(g))
    assert len(orders) == 219
    for p in orders:
        pairs = sorted(p.pairs, key=lambda pair: g.pair_index(*pair))
        assert p.label_pairs() == [(g.label(i), g.label(j)) for i, j in pairs]


def test_relations_hold_only_their_ground_and_bits():
    assert BinaryRelation.__slots__ == ("ground", "bits")
    assert Poset.__slots__ == ()
