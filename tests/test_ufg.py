"""Union-free generic detection, certificates, filters and enumerators."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from bisect import bisect
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufgkit.errors import CombinatorialBudgetExceeded, MixedGroundSets, UfgkitError
from ufgkit.orders import (
    BinaryRelation,
    GroundSet,
    Poset,
    canonical_family,
    empty_poset,
    enumerate_all_posets,
    make_poset,
    transitive_closure,
)
from ufgkit import orders, ufg
from ufgkit.context import _loo_and_or, gamma_interval
from ufgkit.ufg import (
    UfgCatalog,
    UfgCertificate,
    _blocker,
    _is_ufg_sorted,
    _prefilter,
    _witness_interval,
    candidate_filter,
    default_max_family_size,
    enumerate_ufg_connected,
    enumerate_ufg_exhaustive,
    explain_not_ufg,
    is_ufg,
    is_witness,
)
from ufgkit.connectedness import random_pool
from ufgkit.oracles import is_generic, is_ufg_by_distinguishing, is_union_free_bruteforce


def _bits_key(S):
    """Order-insensitive identity of a family: its members' sorted bits."""
    return tuple(sorted({m.bits for m in S}))


# --- the generic condition -------------------------------------------------------


def test_singletons_are_not_generic(corr):
    _, p1, _, _, _ = corr
    assert not is_generic([p1])


def test_counterexample_family_is_generic(corr):
    _, p1, p2, p3, _ = corr
    assert is_generic([p1, p2, p3])


def test_interval_closed_families_are_not_generic(g3, pool3):
    # take every order inside some closure: the closure adds nothing new
    rng = random.Random(41)
    for _ in range(20):
        fam = rng.sample(pool3, 2)
        closed = tuple(gamma_interval(fam).posets())
        assert not is_generic(closed)


# --- the union-free condition ------------------------------------------------------


def test_counterexample_family_is_union_free(corr):
    _, p1, p2, p3, _ = corr
    assert is_union_free_bruteforce([p1, p2, p3])


def test_redundant_member_breaks_union_freeness(corr):
    # any member of the closure of the others is covered by a proper subset
    ground, p1, p2, _, _ = corr
    r = empty_poset(ground)  # the intersection, inside gamma({p1, p2})
    assert gamma_interval([p1, p2]).contains(r)
    assert not is_union_free_bruteforce([p1, p2, r])


def test_singleton_union_free_vacuously(corr):
    _, p1, _, _, _ = corr
    assert is_union_free_bruteforce([p1])
    assert is_ufg([p1]) is None  # still not ufg: the generic condition fails


def test_reduction_matches_bruteforce(pool3):
    rng = random.Random(43)
    for _ in range(150):
        fam = rng.sample(pool3, rng.randint(2, 4))
        # a non-generic family of two or more is covered by its singletons
        assert (is_ufg(fam) is not None) == is_union_free_bruteforce(fam)


# --- witnesses and certificates -------------------------------------------------------


def test_counterexample_certificate(corr):
    ground, p1, p2, p3, q = corr
    cert = is_ufg([p1, p2, p3])
    assert cert is not None
    cert.validate()
    # canonical enumeration meets {(a1,b1),(a1,c1),(b1,c1)} before q itself
    assert set(cert.witness.label_pairs()) == {
        ("a1", "b1"),
        ("a1", "c1"),
        ("b1", "c1"),
    }
    assert is_witness([p1, p2, p3], q)
    witnesses = [w.bits for w in _witness_interval(canonical_family([p1, p2, p3])).posets()]
    assert witnesses == [cert.witness.bits, q.bits]
    for d in cert.distinguishing():
        assert d.attributes, d.member


def test_validate_rejects_broken_certificates(corr):
    _, p1, p2, p3, _ = corr
    cert = is_ufg([p1, p2, p3])
    cert.validate()
    broken = {
        "canonical order": UfgCertificate(cert.family[::-1], cert.witness),
        "witness fails": UfgCertificate(cert.family, cert.family[0]),
    }
    for message, bad in broken.items():
        with pytest.raises(AssertionError, match=message):
            bad.validate()


VALIDATE_MEMBER_WITNESS = """
from ufgkit import corrigendum_inputs, is_ufg
from ufgkit.ufg import UfgCertificate

_, p1, p2, p3, _ = corrigendum_inputs()
c = is_ufg([p1, p2, p3])
print("debug:", __debug__)
try:
    UfgCertificate(c.family, c.family[0]).validate()
except AssertionError as exc:
    print("rejected:", exc)
"""


def test_validate_checks_under_python_optimize():
    # asserts vanish under -O; validate must not
    src = str(Path(ufg.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", VALIDATE_MEMBER_WITNESS],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "debug: False\nrejected: witness fails re-validation\n"


def test_two_member_counterexample_subfamily(corr):
    ground, p1, p2, _, _ = corr
    cert = is_ufg([p1, p2])
    assert cert is not None
    assert cert.witness.bits == 0  # the empty order comes first canonically
    other = make_poset(ground, [("a", "b"), ("a1", "b1")])
    assert is_witness([p1, p2], other)


def test_reversed_forty_item_chains_witness_is_empty_order():
    # the interval walk is as deep as there are free pairs (1,560 here)
    g = GroundSet.numbered(40)
    up = BinaryRelation.from_pairs(g, [(i, i + 1) for i in range(39)])
    down = BinaryRelation.from_pairs(g, [(i + 1, i) for i in range(39)])
    chains = [Poset(g, transitive_closure(r).bits) for r in (up, down)]
    cert = is_ufg(chains)
    assert cert is not None
    assert cert.witness.bits == 0


def test_duplicates_collapse_to_singleton(corr):
    _, p1, _, _, _ = corr
    assert is_ufg([p1, p1]) is None
    assert is_ufg([]) is None  # fewer than two orders: None without error


def test_incomparable_pairs_are_ufg(pool3):
    rng = random.Random(47)
    for _ in range(60):
        a, b = rng.sample(pool3, 2)
        nested = a.is_subset_of(b) or b.is_subset_of(a)
        cert = is_ufg([a, b])
        if not nested:
            assert cert is not None
        if cert is not None:
            cert.validate()


def test_witness_requires_same_ground(corr, g2):
    _, p1, p2, _, _ = corr
    with pytest.raises(MixedGroundSets):
        is_witness([p1, p2], empty_poset(g2))


# --- decider agreement -----------------------------------------------------------------


def test_three_deciders_agree_on_samples(pool3):
    rng = random.Random(53)
    for _ in range(200):
        fam = rng.sample(pool3, rng.randint(2, 4))
        by_witness = is_ufg(fam) is not None
        by_attributes = is_ufg_by_distinguishing(fam) is not None
        by_conditions = is_generic(fam) and is_union_free_bruteforce(fam)
        assert by_witness == by_attributes == by_conditions


def test_deciders_agree_exhaustively_on_two_items(g2):
    pool = tuple(enumerate_all_posets(g2))
    for size in (2, 3):
        for fam in combinations(pool, size):
            assert (is_ufg(fam) is not None) == (
                is_ufg_by_distinguishing(fam) is not None
            )


# --- enumerators ------------------------------------------------------------------------


def test_two_item_catalog_is_the_pair_of_reversed_chains(g2):
    catalog = enumerate_ufg_exhaustive(g2)
    assert catalog.count_by_size() == {2: 1}
    (cert,) = catalog.certificates()
    assert {m.label_pairs()[0] for m in cert.family} == {("x1", "x2"), ("x2", "x1")}
    assert cert.witness.bits == 0
    assert enumerate_ufg_connected(g2).same_families(catalog)


def test_three_item_catalog_regression(catalog3):
    # frozen from the exhaustive run, cross-checked by the connected strategy
    assert catalog3.count_by_size() == {2: 141, 3: 140}
    assert len(catalog3) == 281
    # empirical report on the structural size bound: far from tight here
    observed_max = max(c.size for c in catalog3.certificates())
    assert observed_max == 3 < default_max_family_size(catalog3.ground)


def test_single_item_ground_has_no_families():
    g1 = GroundSet.numbered(1)
    assert len(enumerate_ufg_exhaustive(g1)) == 0
    assert len(enumerate_ufg_connected(g1)) == 0


def test_connected_equals_exhaustive_on_three_items(g3, catalog3):
    connected = enumerate_ufg_connected(g3)
    assert connected.same_families(catalog3)


def test_counterexample_pool_catalogs(corr):
    ground, p1, p2, p3, _ = corr
    pool = (p1, p2, p3)
    exhaustive = enumerate_ufg_exhaustive(ground, premises=pool)
    assert exhaustive.count_by_size() == {2: 3, 3: 1}
    assert exhaustive.get((0, 1, 2)).family == canonical_family(pool)
    connected = enumerate_ufg_connected(ground, premises=pool)
    assert connected.same_families(exhaustive)
    seed = tuple(sorted(connected.pool.index(p) for p in (p1, p2)))
    assert connected.get(seed) is not None  # the size-2 seed it grew from


def test_max_size_one_gives_empty_catalog(g2):
    assert len(enumerate_ufg_exhaustive(g2, max_size=1)) == 0
    assert len(enumerate_ufg_connected(g2, max_size=1)) == 0


def test_identical_premises_give_empty_catalog(corr):
    ground, p1, _, _, _ = corr
    assert len(enumerate_ufg_connected(ground, premises=[p1, p1, p1])) == 0


def test_budget_is_enforced(g3):
    with pytest.raises(CombinatorialBudgetExceeded):
        enumerate_ufg_exhaustive(g3, budget=10)
    with pytest.raises(CombinatorialBudgetExceeded):
        enumerate_ufg_connected(g3, budget=10)


def test_budget_counts_every_subset_not_the_pruned_tree(g3):
    # 480,472 subsets of 2..12 of the 19 orders, though the tree opens few
    with pytest.raises(CombinatorialBudgetExceeded):
        enumerate_ufg_exhaustive(g3, budget=480_471)
    assert len(enumerate_ufg_exhaustive(g3, budget=480_472)) == 281


def test_connected_budget_counts_tested_families(g3):
    # 606 families tested on 3 items up to size 6: pairs, then opened children
    assert len(enumerate_ufg_connected(g3, max_size=6, budget=606)) == 281
    with pytest.raises(CombinatorialBudgetExceeded):
        enumerate_ufg_connected(g3, max_size=6, budget=605)


@pytest.mark.parametrize(
    "items, pool_seed, found, tested, rejected",
    [(3, None, 281, 606, 2_162), (5, 0, 548, 640, 1_155)],
)
def test_connected_decides_each_family_once(
    monkeypatch, items, pool_seed, found, tested, rejected
):
    # each child is opened from its canonical parent only, so no family
    # reaches the root search twice; a call is keyed by its closure and
    # its leave-one-out closures, the matrices the step hands over
    ground = GroundSet.numbered(items)
    if pool_seed is None:
        kwargs = {"max_size": 6}
    else:  # the pools of acceptance criterion 6
        pool = random_pool(ground, random.Random(f"pool:{pool_seed}"), 12)
        kwargs = {"premises": pool}
    decided = []

    decides = ufg._decides

    def spy(table, lower, upper, loo):
        loo = tuple(loo)
        decided.append((lower, upper, loo))
        return decides(table, lower, upper, loo)

    monkeypatch.setattr(ufg, "_decides", spy)
    catalog = enumerate_ufg_connected(ground, **kwargs)
    assert len(set(decided)) == len(decided) == catalog.stats["families_tested"] == tested
    assert catalog.stats["filter_rejections"] == rejected
    assert len(catalog) == found


def _tuple_rule_steps(keys, size, max_size):
    """The ``(family, k)`` steps of the connected enumerator under the
    tuple parent rule: a child is stepped unless removing one of its
    members below k leaves a family of the level.  ``keys`` are the ufg
    families, the children that reach the next level."""
    level = [(i,) for i in range(size)]
    steps = []
    for _ in range(1, max_size):
        members = set(level)
        grown = []
        for family in level:
            for k in range(size):
                pos = bisect(family, k)
                if pos and family[pos - 1] == k:
                    continue
                child = family[:pos] + (k,) + family[pos:]
                if any(child[:j] + child[j + 1:] in members for j in range(pos)):
                    continue
                steps.append((family, k))
                if child in keys:
                    grown.append(child)
        level = grown
    return steps


def _check_connected_steps(ground, pool=None, max_size=None):
    """The connected enumerator steps the children the tuple rule opens,
    in the same order; the ufg families come from the exhaustive tree."""
    steps = []
    step = UfgCatalog.step

    def spy(self, family, loo, k):
        steps.append((family, k))
        return step(self, family, loo, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(UfgCatalog, "step", spy)
        catalog = enumerate_ufg_connected(ground, max_size=max_size, premises=pool)
    keys = enumerate_ufg_exhaustive(ground, max_size=max_size, premises=pool).keys()
    assert steps == _tuple_rule_steps(keys, len(catalog.pool), catalog.max_size)
    assert catalog.keys() == keys
    return steps


def test_connected_steps_follow_the_tuple_rule_on_three_items(g3):
    steps = _check_connected_steps(g3, max_size=6)
    assert len(steps) == 606 + 2_162  # every step is tested or rejected


@pytest.mark.parametrize("seed", range(3))
def test_connected_steps_follow_the_tuple_rule_on_random_pools(seed):
    # the pools of acceptance criterion 6
    g5 = GroundSet.numbered(5)
    _check_connected_steps(g5, random_pool(g5, random.Random(f"pool:{seed}"), 12))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 2**32), st.integers(2, 9))
def test_connected_steps_follow_the_tuple_rule_on_four_items(seed, size):
    g4 = GroundSet.numbered(4)
    _check_connected_steps(g4, random_pool(g4, random.Random(seed), size))


def _all_subsets_catalog(pool, max_size):
    """Every subset decided by the witness scan: the tree without pruning."""
    found = {}
    for size in range(2, max_size + 1):
        for combo in combinations(pool, size):
            cert = _is_ufg_sorted(combo)
            if cert is not None:
                found[_bits_key(combo)] = cert
    return found


def _certificates_by_key(catalog):
    return {_bits_key(c.family): c for c in catalog.certificates()}


def test_tree_equals_all_subsets_on_three_items(catalog3, pool3):
    plain = _all_subsets_catalog(pool3, default_max_family_size(catalog3.ground))
    # family, witness and per-member distinguishing sets, certificate by certificate
    assert _certificates_by_key(catalog3) == plain
    assert catalog3.stats["families_tested"] == 637
    assert catalog3.stats["filter_rejections"] == 2_282


@pytest.mark.parametrize("seed", range(3))
def test_tree_equals_all_subsets_on_random_pools(seed):
    # the pools of acceptance criterion 6
    g5 = GroundSet.numbered(5)
    pool = random_pool(g5, random.Random(f"pool:{seed}"), 12)
    catalog = enumerate_ufg_exhaustive(g5, premises=pool)
    assert _certificates_by_key(catalog) == _all_subsets_catalog(pool, len(pool))


def _first_plain_witness(S):
    """The first order of the plain closure walk that is no member of S and
    lies in no leave-one-out closure: the witness, found without the kernel."""
    bits = [m.bits for m in S]
    loo = _loo_and_or(bits, S[0].ground.full_bits)
    return next(q.bits for q in gamma_interval(S).posets()
                if q.bits not in bits and _blocker(q.bits, loo) is None)


@pytest.mark.parametrize(
    "items, pool_seed, found", [(3, None, 281), (5, 0, 548)], ids=["3-items", "pool:0"]
)
def test_catalog_witnesses_are_the_first_plain_walk_witnesses(catalog3, items, pool_seed, found):
    # a catalog certificate is walked by the witness scan on read, so the
    # all-subsets comparison checks only its keys independently; here each
    # witness is checked against the plain walk instead
    if pool_seed is None:
        catalog = catalog3
    else:
        ground = GroundSet.numbered(items)
        pool = random_pool(ground, random.Random(f"pool:{pool_seed}"), 12)
        catalog = enumerate_ufg_exhaustive(ground, premises=pool)
    certificates = catalog.certificates()
    assert len(certificates) == found
    for family, cert in zip(catalog.families(), certificates):
        assert cert.family == tuple(catalog.pool[i] for i in family)
        assert cert.witness.bits == _first_plain_witness(cert.family)


def test_tree_equals_distinguishing_decider_on_three_items(catalog3, pool3):
    # the catalog reaches size 12; equality also shows it has nothing past 4
    assert catalog3.pool == pool3
    oracle = {
        combo
        for size in range(2, 5)
        for combo in combinations(range(len(pool3)), size)
        if is_ufg_by_distinguishing([pool3[i] for i in combo]) is not None  # witness 0 is falsy
    }
    assert catalog3.keys() == oracle


def _no_walk(*args, **kwargs):
    raise AssertionError("a witness was walked")


@pytest.mark.parametrize("items, pool_seed", [(3, None), (5, 0)], ids=["3-items", "pool:0"])
def test_counting_catalog_finds_the_exhaustive_keys(monkeypatch, items, pool_seed):
    # the whole 3-item space, and enum5's pool: a fresh catalog walked as
    # the exhaustive tree finds its keys at the same cost in steps, the
    # connected enumerator finds them too, and none of the three walks to
    # a witness while it enumerates
    ground = GroundSet.numbered(items)
    pool = None if pool_seed is None else random_pool(
        ground, random.Random(f"pool:{pool_seed}"), 12)
    exhaustive = enumerate_ufg_exhaustive(ground, premises=pool)
    monkeypatch.setattr(ufg, "_is_ufg_sorted", _no_walk)
    monkeypatch.setattr(orders, "_interval_bits", _no_walk)
    counted = UfgCatalog(ground, exhaustive.pool, exhaustive.max_size)
    for family, _, verdict in counted.walk(range(len(counted.pool))):
        if verdict:
            counted.add(family)
    connected = enumerate_ufg_connected(ground, premises=pool)
    assert counted.keys() == connected.keys() == exhaustive.keys()
    assert counted.count_by_size() == exhaustive.count_by_size()
    for stat in ("families_tested", "filter_rejections"):
        assert counted.stats[stat] == exhaustive.stats[stat]


def test_four_item_slice_is_pinned():
    # the slice of the exhaustive tree over all 219 orders on 4 items whose
    # families start at pool index 150, up to size 6; the certificates read
    # back, walked on read, hold
    ground = GroundSet.numbered(4)
    pool = tuple(enumerate_all_posets(ground))
    assert len(pool) == 219
    catalog = UfgCatalog(ground, pool, 6)
    for family, _, verdict in catalog.walk([150]):
        if verdict:
            catalog.add(family)
    assert catalog.count_by_size() == {2: 66, 3: 1163, 4: 3351, 5: 1524, 6: 144}
    assert catalog.stats["families_tested"] == 14039
    for family in catalog.families()[::500]:
        catalog.get(family).validate()


def test_a_certificate_is_walked_once_on_first_read(monkeypatch, pool3, g3):
    # the tree adds keys only; the first get walks the witness scan, a
    # second one returns the same object, and a family not held gets None
    walked = []
    scan = ufg._is_ufg_sorted

    def spy(members):
        walked.append(members)
        return scan(members)

    monkeypatch.setattr(ufg, "_is_ufg_sorted", spy)
    catalog = UfgCatalog(g3, pool3, 3)
    for family, _, verdict in catalog.walk(range(len(pool3))):
        if verdict:
            catalog.add(family)
    assert walked == []
    family = catalog.families()[0]
    cert = catalog.get(family)
    assert catalog.get(family) is cert
    assert walked == [tuple(pool3[i] for i in family)]
    cert.validate()
    assert catalog.get((0,)) is None  # a single order is never ufg
    assert len(walked) == 1


def test_a_ufg_step_stores_nothing(corr):
    # the step returns its verdict and keeps no family, not even a ufg one:
    # a caller that keeps families adds them
    _, p1, p2, p3, _ = corr
    catalog = UfgCatalog(p1.ground, canonical_family([p1, p2, p3]), 3)
    pair = catalog.step((0,), catalog.singleton, 1)
    child, _, verdict = catalog.step(*pair[:2], 2)
    assert child == (0, 1, 2) and verdict
    assert len(catalog) == 0
    assert child not in catalog
    assert catalog.stats["families_tested"] == 2


def test_the_walk_yields_each_passing_child_once_and_stores_nothing(g3, pool3):
    # all 19 orders on 3 items up to size 4: the walk yields every subset
    # of 2..4 pool indices the prefilter passes, each once, with the
    # decider's verdict, and keeps none of them; a catalog that stops at
    # one member has no child to yield
    catalog = UfgCatalog(g3, pool3, 4)
    walked = [(family, verdict) for family, _, verdict in catalog.walk(range(len(pool3)))]
    passing = [
        combo
        for size in range(2, 5)
        for combo in combinations(range(len(pool3)), size)
        if _prefilter([pool3[i].bits for i in combo], g3.full_bits) is not None
    ]
    assert len(passing) == 618
    assert sorted(family for family, _ in walked) == sorted(passing)
    for family, verdict in walked:
        assert verdict == (is_ufg([pool3[i] for i in family]) is not None)
    assert len(catalog) == 0
    singles = UfgCatalog(g3, pool3, 1)
    assert list(singles.walk(range(len(pool3)))) == []
    assert singles.stats["families_tested"] == 0


@pytest.mark.parametrize("n", range(3, 8))
def test_one_pair_orders_attain_the_pair_count_bound(n):
    # the C(n,2) orders that each hold one pair a<b, a before b in the
    # ground's order: a ufg family whose witness is the chain, since
    # dropping the member a<b drops (a,b) from the union
    ground = GroundSet.numbered(n)
    family = [Poset(ground, 1 << ground.pair_index(a, b))
              for a in range(n) for b in range(a + 1, n)]
    assert len(family) == n * (n - 1) // 2
    chain = sum(1 << ground.pair_index(a, b) for a in range(n) for b in range(a + 1, n))
    cert = is_ufg(family)
    assert cert is not None and cert.witness.bits == chain
    if n <= 4:
        assert is_ufg_by_distinguishing(family) == cert.witness


def test_premises_must_share_the_ground(g2, g3):
    with pytest.raises(MixedGroundSets):
        enumerate_ufg_exhaustive(g3, premises=[empty_poset(g2)])


def test_default_max_family_size_is_the_attribute_count(g3):
    assert default_max_family_size(g3) == 12


def test_catalog_keys_are_sorted_tuples(catalog3):
    pool = catalog3.pool
    assert pool == canonical_family(pool)
    for key in catalog3.keys():
        assert all(0 <= i < len(pool) for i in key)
        assert all(a < b for a, b in zip(key, key[1:]))
        assert catalog3.get(key).family == tuple(pool[i] for i in key)


# --- candidate filter ----------------------------------------------------------------


def test_filter_rejects_closure_members(corr):
    _, p1, p2, p3, q = corr
    assert not candidate_filter([p1, p2, p3], q)


def test_filter_rejects_duplicate_rows(corr):
    ground, p1, p2, _, _ = corr
    twin = make_poset(ground, [("a", "b"), ("a1", "c1")])  # same row as p1
    assert not candidate_filter([p1, p2], twin)


def test_filter_keeps_the_real_extension(corr):
    _, p1, p2, p3, _ = corr
    assert candidate_filter([p1, p2], p3)


def test_filter_requires_same_ground(corr, g2):
    _, p1, p2, _, _ = corr
    with pytest.raises(MixedGroundSets):
        candidate_filter([p1, p2], empty_poset(g2))


def test_filter_canonicalises_once_and_opens_no_closure(corr, monkeypatch):
    import ufgkit.ufg

    _, p1, p2, p3, _ = corr
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for name in ("canonical_family", "gamma_interval"):
        monkeypatch.setattr(ufgkit.ufg, name, counting(name, getattr(ufgkit.ufg, name)))
    assert candidate_filter([p2, p1, p2], p3)
    assert calls == ["canonical_family"]


def test_filter_soundness_sampled(catalog3, pool3):
    rng = random.Random(59)
    certs = catalog3.certificates()
    for _ in range(300):
        cert = rng.choice(certs)
        p = rng.choice(pool3)
        if any(p.bits == m.bits for m in cert.family):
            continue
        if not candidate_filter(cert.family, p):
            assert is_ufg(cert.family + (p,)) is None


# --- monotonicity does not hold in either direction -------------------------------------


def test_ufg_family_with_non_ufg_superset(g3):
    s1 = empty_poset(g3)
    s2 = make_poset(g3, [("x3", "x1"), ("x3", "x2")])
    extra = make_poset(g3, [("x3", "x2")])
    assert is_ufg([s1, s2]) is not None
    assert is_ufg([s1, s2, extra]) is None


def test_non_ufg_family_with_ufg_superset(g3):
    # singletons are never ufg, their incomparable extensions are
    chain = make_poset(g3, [("x1", "x2")])
    other = make_poset(g3, [("x2", "x1")])
    assert is_ufg([chain]) is None
    assert is_ufg([chain, other]) is not None


def test_every_pair_inside_an_ufg_triple_is_ufg(catalog3):
    # on three items the only non-ufg subfamilies of ufg families are
    # singletons: frozen empirical fact from the exhaustive catalog
    keys = catalog3.keys()
    for key in keys:
        if len(key) != 3:
            continue
        for sub in combinations(key, 2):
            assert sub in keys


def test_pruned_kernel_matches_filtered_plain_walk():
    # acceptance-6 pool 0: the pruned walk yields exactly the plain walk's
    # leaves that escape every leave-one-out closure, in the same order.
    # Every family of 2 to 4 members, and the 149 of 5 and 6 members that
    # pass the prefilter: the deep intervals, 61 of them without a witness
    g5 = GroundSet.numbered(5)
    pool = random_pool(g5, random.Random("pool:0"), 12)
    deep = [S for size in (5, 6) for S in combinations(pool, size)
            if _prefilter([m.bits for m in S], g5.full_bits) is not None]
    assert len(deep) == 149
    empty = 0
    for S in [S for size in range(2, 5) for S in combinations(pool, size)] + deep:
        loo = _loo_and_or([m.bits for m in S], g5.full_bits)
        plain = [q.bits for q in gamma_interval(S).posets() if _blocker(q.bits, loo) is None]
        witnesses = _witness_interval(S)  # None: prefiltered, no witnesses
        assert ([] if witnesses is None else [q.bits for q in witnesses.posets()]) == plain
        empty += len(S) > 4 and not plain
    assert empty == 61


# --- failure explanations ----------------------------------------------------------------


def test_explanations_name_the_failure(corr):
    ground, p1, p2, _, _ = corr
    single = explain_not_ufg([p1])
    assert "single order" in single["reason"]
    r = empty_poset(ground)
    covered = explain_not_ufg([p1, p2, r])
    assert "union-free" in covered["reason"]
    assert covered["blockers"]
    closed = [make_poset(ground, [("a", "b")]), make_poset(ground, [("a", "b"), ("a1", "b1")])]
    assert explain_not_ufg(closed) == {"ufg": False, "reason": (
        "not generic: the closure holds no order beyond the family")}
    for entry in covered["blockers"]:
        fam = [p1, p2, r]
        rest = [m for m in canonical_family(fam) if m != entry["covered_without"]]
        assert gamma_interval(rest).contains(entry["candidate"])


def test_explain_not_ufg_rejects_an_ufg_family(corr):
    _, p1, p2, p3, _ = corr
    with pytest.raises(UfgkitError, match="witness"):
        explain_not_ufg([p1, p2, p3])
