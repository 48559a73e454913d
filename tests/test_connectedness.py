"""Predecessor checks, the golden scenario, and the falsification search."""

from __future__ import annotations

import random

import pytest

import ufgkit.connectedness
from ufgkit.errors import FamilyTooSmall, NotUfgInput
from ufgkit.orders import GroundSet, Poset, empty_poset, make_poset
from ufgkit.connectedness import (
    SCENARIO_CHECKS,
    falsification_search,
    has_predecessor,
    random_pool,
    random_poset,
    run_corrigendum,
    verify_connectedness,
)
from ufgkit import jsonio


def test_predecessor_of_counterexample_family(corr):
    _, p1, p2, p3, _ = corr
    found = has_predecessor([p1, p2, p3])
    assert found is not None
    subset, cert = found
    # p3 is canonically first, so it is removed first and {p1, p2} wins
    assert set(subset) == {p1, p2}
    cert.validate()


def test_predecessor_preconditions(corr, g3):
    _, p1, p2, _, _ = corr
    with pytest.raises(FamilyTooSmall):
        has_predecessor([p1, p2])
    not_ufg = [
        empty_poset(g3),
        make_poset(g3, [("x1", "x2")]),
        make_poset(g3, [("x1", "x2"), ("x1", "x3")]),
    ]
    with pytest.raises(NotUfgInput):
        has_predecessor(not_ufg)


def test_connectedness_over_counterexample_pool(corr):
    ground, p1, p2, p3, _ = corr
    report = verify_connectedness(ground, premises=[p1, p2, p3])
    assert report.checked == 1
    assert report.connected == 1
    assert report.violations == []
    assert len(report.predecessors) == 1


def test_connectedness_small_max_size(g3):
    report = verify_connectedness(g3, max_size=2)
    assert report.checked == 0
    assert report.connected == 0
    assert report.violations == []


def test_connectedness_lookup_is_has_predecessor(g3, monkeypatch):
    def no_decider(members, loo=None):
        raise AssertionError("decider called after the enumeration")

    report = verify_connectedness(g3)
    assert (report.checked, report.connected, report.violations) == (140, 140, [])
    monkeypatch.setattr(ufgkit.connectedness, "_is_ufg_sorted", no_decider)
    # the lookup report is built with the decider gone from the module
    with pytest.raises(AssertionError, match="decider called"):
        has_predecessor(report.predecessors[0]["family"])
    assert verify_connectedness(g3).predecessors == report.predecessors
    monkeypatch.undo()
    for entry in report.predecessors:
        subset, cert = has_predecessor(entry["family"])
        assert subset == entry["predecessor"]
        assert cert.witness == entry["witness"]


def test_connectedness_two_items(g2):
    # only one ufg family exists there and it has size 2: nothing to check
    report = verify_connectedness(g2)
    assert report.checked == 0 and not report.violations


def test_corrigendum_scenario_passes():
    scenario = run_corrigendum()
    assert [c.name for c in scenario.checks] == list(SCENARIO_CHECKS)
    assert scenario.all_passed, [c for c in scenario.checks if not c.passed]


def test_random_posets_are_valid_and_seeded():
    g = GroundSet.numbered(4)
    rng = random.Random(67)
    for _ in range(50):
        p = random_poset(g, rng)
        Poset(g, p.bits)  # must validate
    again = [random_poset(g, random.Random(5)).bits for _ in range(5)]
    first = [random_poset(g, random.Random(5)).bits for _ in range(5)]
    assert again == first


def test_random_pool_is_canonical():
    g = GroundSet.numbered(4)
    pool = random_pool(g, random.Random(71), 10)
    assert len({p.bits for p in pool}) == len(pool)


def test_falsification_rejects_zero_budget():
    with pytest.raises(ValueError):
        falsification_search([3], 0, seed=1)
    with pytest.raises(ValueError):
        falsification_search([], 5, seed=1)


def test_falsification_small_run_finds_nothing():
    report = falsification_search([3], 60, seed=2)
    assert report.violation is None
    assert report.trials == 60
    assert report.families_checked > 0


def test_falsification_is_deterministic_and_thread_invariant():
    a = falsification_search([3, 4], 40, seed=9)
    b = falsification_search([3, 4], 40, seed=9)
    c = falsification_search([3, 4], 40, seed=9, threads=4)
    obj_a = jsonio.dumps_canonical(jsonio.falsification_to_obj(a))
    obj_b = jsonio.dumps_canonical(jsonio.falsification_to_obj(b))
    obj_c = jsonio.dumps_canonical(jsonio.falsification_to_obj(c))
    assert obj_a == obj_b == obj_c
    different = falsification_search([3, 4], 40, seed=10)
    assert jsonio.dumps_canonical(jsonio.falsification_to_obj(different)) != obj_a
