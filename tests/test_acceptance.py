"""Acceptance suite: the eight exit criteria, each timed against its budget.

Every test prints one ``ACCEPTANCE <n> ...: PASS/FAIL`` line (visible with
``pytest -s`` or on failure).  All checks are exact; the budgets are wall
clock bounds.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from itertools import combinations

from ufgkit.orders import GroundSet, canonical_family, enumerate_all_posets
from ufgkit.context import gamma_interval
from ufgkit.ufg import (
    candidate_filter,
    enumerate_ufg_connected,
    enumerate_ufg_exhaustive,
    is_ufg,
    is_witness,
)
from ufgkit.connectedness import (
    falsification_search,
    random_pool,
    run_corrigendum,
    verify_connectedness,
)
from ufgkit.oracles import (
    gamma_explicit,
    is_generic,
    is_ufg_by_distinguishing,
    is_union_free_bruteforce,
)

from oracles import brute_force_strict_posets


@contextmanager
def criterion(ident: int, title: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {ident} {title}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {ident} {title}: PASS ({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"{title}: {elapsed:.1f}s exceeds {budget_s:.0f}s"


def _families_up_to(pool, max_size):
    for size in range(1, max_size + 1):
        yield from combinations(pool, size)


def test_criterion_1_counterexample_golden(corr):
    with criterion(1, "counterexample golden scenario", 1.0):
        ground, p1, p2, p3, q = corr
        assert p1.label_pairs() == [("a", "b"), ("a1", "c1")]
        assert p2.label_pairs() == [("a1", "b1")]
        assert p3.label_pairs() == [("b1", "c1")]
        assert q.label_pairs() == [("a", "b"), ("a1", "b1"), ("a1", "c1"), ("b1", "c1")]
        family = (p1, p2, p3)
        assert is_ufg(family) is not None
        assert is_witness(family, q)
        assert gamma_interval(family).contains(q)
        subsets = [T for k in (1, 2) for T in combinations(family, k)]
        assert len(subsets) == 6
        assert all(not gamma_interval(T).contains(q) for T in subsets)
        scenario = run_corrigendum()
        assert scenario.all_passed


def test_criterion_2_closure_axioms(pool3):
    with criterion(2, "closure axioms, all families of size <= 3", 10.0):
        checked = 0
        for S in _families_up_to(pool3, 3):
            closure = set(gamma_interval(S).posets())
            assert set(S) <= closure  # extensive
            assert set(gamma_interval(tuple(closure)).posets()) == closure  # idempotent
            for k in range(1, len(S)):
                for T in combinations(S, k):  # isotone on every subfamily
                    assert set(gamma_interval(T).posets()) <= closure
            checked += 1
        assert checked == 1159


def test_criterion_3_closure_oracle_equivalence(pool3):
    with criterion(3, "interval closure equals derivation closure", 30.0):
        for S in _families_up_to(pool3, 3):
            assert gamma_explicit(S) == frozenset(gamma_interval(S).posets())


def test_criterion_4_three_deciders_agree(pool3):
    with criterion(4, "witness, attribute and condition deciders agree", 300.0):
        checked = 0
        for size in (2, 3, 4):
            for S in combinations(pool3, size):
                by_witness = is_ufg(S) is not None
                by_attributes = is_ufg_by_distinguishing(S) is not None
                by_conditions = is_generic(S) and is_union_free_bruteforce(S)
                assert by_witness == by_attributes == by_conditions, S
                checked += 1
        assert checked == 5016


def test_criterion_5_connectedness_holds(g3):
    with criterion(5, "predecessor property: exhaustive + seeded stress", 1200.0):
        t0 = time.perf_counter()
        report = verify_connectedness(g3)
        assert report.violations == []
        assert report.checked == report.connected == 140
        assert time.perf_counter() - t0 < 600.0
        t0 = time.perf_counter()
        stress = falsification_search([4], 10_000, seed=0)
        assert stress.violation is None
        assert stress.trials == 10_000
        assert stress.families_checked > 0
        assert time.perf_counter() - t0 < 600.0


def test_criterion_6_enumerator_equivalence(g3):
    with criterion(6, "connected growth equals exhaustive search", 600.0):
        exhaustive = enumerate_ufg_exhaustive(g3, max_size=6)
        connected = enumerate_ufg_connected(g3, max_size=6)
        assert connected.same_families(exhaustive)
        g5 = GroundSet.numbered(5)
        for seed in range(20):
            rng = random.Random(f"pool:{seed}")
            pool = random_pool(g5, rng, 12)
            assert len(pool) <= 12
            ex = enumerate_ufg_exhaustive(g5, premises=pool)
            co = enumerate_ufg_connected(g5, premises=pool)
            assert ex.same_families(co), f"pool seed {seed}"


def test_criterion_7_poset_count_regression():
    with criterion(7, "order counts by two independent methods", 5.0):
        expected = {1: 1, 2: 3, 3: 19, 4: 219}
        for n, count in expected.items():
            ground = GroundSet.numbered(n)
            via_dfs = [frozenset(p.pairs) for p in enumerate_all_posets(ground)]
            assert len(via_dfs) == count
            if n <= 3:  # the filter oracle walks all 2^(n(n-1)) relations
                via_filter = brute_force_strict_posets(n)
                assert set(via_dfs) == set(via_filter)
                assert len(via_filter) == count
        # n = 4 cross-check: filter oracle over 4096 candidate relations
        assert set(frozenset(p.pairs) for p in enumerate_all_posets(GroundSet.numbered(4))) == set(
            brute_force_strict_posets(4)
        )


def test_criterion_8_filter_soundness(g3, pool3, catalog3):
    with criterion(8, "candidate filter never rejects a real extension", 300.0):
        rejected = 0
        for cert in catalog3.certificates():
            fam_bits = {m.bits for m in cert.family}
            for p in pool3:
                if p.bits in fam_bits:
                    continue
                if candidate_filter(cert.family, p):
                    continue
                rejected += 1
                merged = canonical_family(cert.family + (p,))
                assert is_ufg(merged) is None, (cert.family, p)
        assert rejected > 0  # the filter does real work on this ground set
