"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402
from run import Batch  # noqa: E402
from speed import Speedometer  # noqa: E402

workloads.load_package()

from ufgkit import corrigendum_inputs, orders, ufg  # noqa: E402


def test_self_time_subtracts_only_direct_children(monkeypatch):
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    monkeypatch.setattr(spans, "perf_counter", lambda: next(clock))
    rec = spans.SpanRecorder()
    root = rec.open(rec.name_id("root"))  # [0, 10]
    a = rec.open(rec.name_id("a"))  # [1, 4]
    leaf = rec.open(rec.name_id("leaf"))  # [2, 3]
    rec.close(leaf)
    rec.close(a)
    b = rec.open(rec.name_id("b"))  # [5, 9]
    rec.close(b)
    rec.close(root)
    assert list(rec.parent) == [-1, root, a, root]
    assert rec.self_times() == [3.0, 2.0, 1.0, 4.0]
    totals = rec.totals()
    assert totals["root"] == {"calls": 1, "self_s": 3.0}
    assert totals["a"] == {"calls": 1, "self_s": 2.0}


def test_traced_run_partitions_time_and_restores_modules():
    from ufgkit import connectedness

    _, p1, p2, p3, _ = corrigendum_inputs()
    original = ufg._is_ufg_sorted
    original_walk = orders.PosetInterval.posets
    rec = spans.SpanRecorder()
    with spans.traced(rec):
        assert connectedness._is_ufg_sorted is not original  # imported copy wrapped too
        cert = ufg.is_ufg([p1, p2, p3])
    assert cert is not None
    assert ufg._is_ufg_sorted is original and connectedness._is_ufg_sorted is original
    assert orders.PosetInterval.posets is original_walk

    # every span lies inside its parent, and self times add up to the root
    for k, p in enumerate(rec.parent):
        if p >= 0:
            assert rec.start[p] <= rec.start[k] <= rec.end[k] <= rec.end[p]
    (root,) = [k for k, p in enumerate(rec.parent) if p < 0]
    assert rec.names[rec.name[root]] == spans.ROOT
    assert sum(rec.self_times()) == pytest.approx(rec.end[root] - rec.start[root])

    layers = spans.layer_metrics(rec, jobs=1)
    assert layers["ufg.decide_calls"] == 1
    assert layers["ufg.decide_witness_calls"] == 1
    assert layers["ufg.witness_ratio"] == 1.0
    assert layers["orders.interval_leaves"] >= 1
    assert layers["context.gamma_interval_calls"] == 1
    assert layers["ufg.leaves_per_decide"] == layers["orders.interval_leaves"]


def test_prefiltered_decider_call_opens_no_interval():
    _, p1, _, _, _ = corrigendum_inputs()
    rec = spans.SpanRecorder()
    with spans.traced(rec):
        assert ufg.is_ufg([p1, p1]) is None  # one distinct order: never ufg
        assert ufg._is_ufg_sorted((p1, p1)) is None  # no distinguishing pair: prefiltered
    layers = spans.layer_metrics(rec, jobs=1)
    assert layers["ufg.decide_nowitness_calls"] == 2
    assert layers["ufg.decide_prefiltered"] == 2
    assert layers["orders.interval_leaves"] == 0


class _CorruptedFalsify(workloads.Falsify4):
    budget = 20

    def run(self, inp):
        report = super().run(inp)
        report.families_checked += 1
        return report


class _SmallFalsify(workloads.Falsify4):
    budget = 20


def _batch(wl, seed=0):
    inp = wl.inputs(seed)
    return Batch(wl, inp, wl.reference(inp, workloads.load_references()))


def test_corrupted_output_counts_as_failed():
    good = _batch(_SmallFalsify())
    bad = _batch(_CorruptedFalsify())
    for _ in range(2):
        good.job()
        bad.job()
    assert (good.failed, good.attempted) == (0, 2)
    assert (bad.failed, bad.attempted) == (2, 2)


def test_traced_job_records_spans_and_untraced_job_none():
    batch = _batch(_SmallFalsify())
    rec = spans.SpanRecorder()
    assert batch.job(rec) is not None
    assert spans.layer_metrics(rec, jobs=1)["connectedness.trials"] == _SmallFalsify.budget
    assert batch.job() is not None and batch.failed == 0


def test_posets6_check_rejects_reordered_or_missing_orders():
    wl = workloads.Posets6()
    inp = wl.inputs(0)
    ref = wl.reference(inp, workloads.load_references())
    out = wl.run(wl.prepare(inp))
    assert wl.check(inp, list(out), ref)
    swapped = list(out)
    swapped[10], swapped[11] = swapped[11], swapped[10]
    assert not wl.check(inp, swapped, ref)
    assert not wl.check(inp, out[:-1], ref)
    not_an_order = list(out)
    not_an_order[-1] = (1 << 30) - 1  # every pair in both directions
    assert not wl.check(inp, not_an_order, ref)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    wl = workloads.WORKLOADS[name]
    assert wl.inputs(7) == wl.inputs(7)


def test_falsify4_inputs_follow_the_seed():
    wl = workloads.WORKLOADS["falsify4"]
    assert wl.inputs(1) != wl.inputs(2)


def test_speedometer_samples_and_scales():
    with Speedometer() as speed:
        sum(i * i for i in range(200_000))
    assert speed.samples and speed.spent_s > 0
    assert speed.scale() > 0
