"""Predecessor checks, the golden scenario, and the falsification search."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import threading
from itertools import combinations
from pathlib import Path

import pytest

import ufgkit.cli
import ufgkit.connectedness
import ufgkit.orders
import ufgkit.ufg
from ufgkit.errors import EmptyFamily, FamilyTooSmall, NotAntisymmetric, NotUfgInput
from ufgkit.orders import (
    CLOSED_ITEMS,
    BinaryRelation,
    GroundSet,
    Poset,
    _matrix_to_bits,
    _size_table,
    canonical_family,
    canonical_key,
    empty_poset,
    make_poset,
    transitive_closure,
)
from ufgkit.connectedness import (
    POOL_SIZE,
    _run_trial,
    falsification_search,
    has_predecessor,
    random_pool,
    random_poset,
    run_corrigendum,
    verify_connectedness,
)
from ufgkit import is_ufg, jsonio
from ufgkit.oracles import is_ufg_by_distinguishing
from ufgkit.ufg import NOT_UFG_REASONS, default_max_family_size

SRC = str(Path(ufgkit.connectedness.__file__).resolve().parent.parent)


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


def test_connectedness_walks_only_the_predecessors_it_writes(g3, monkeypatch):
    # predecessors are found by lookup; a certificate is walked once, on
    # its first read, and only for a predecessor the report writes
    walked = []
    scan = ufgkit.ufg._is_ufg_sorted

    def spy(members):
        walked.append(members)
        return scan(members)

    monkeypatch.setattr(ufgkit.ufg, "_is_ufg_sorted", spy)
    report = verify_connectedness(g3)
    written = {entry["predecessor"] for entry in report.predecessors}
    assert len(walked) == len(set(walked)) == len(written) < report.checked
    assert set(walked) == written


def test_connectedness_two_items(g2):
    # only one ufg family exists there and it has size 2: nothing to check
    report = verify_connectedness(g2)
    assert report.checked == 0 and not report.violations


def test_a_triple_with_no_ufg_pair_is_reported_with_its_trail(g3, monkeypatch, capsys):
    # the path a counterexample to connectedness would take: the catalog
    # loses the three pairs of its first ufg triple, so that triple has no
    # predecessor; the pairs really are ufg, so their analysis is canned
    enumerate_exhaustive = ufgkit.connectedness.enumerate_ufg_exhaustive
    dropped = []

    def without_the_first_triples_pairs(*args, **kwargs):
        catalog = enumerate_exhaustive(*args, **kwargs)
        triple = next(f for f in catalog.families() if len(f) == 3)
        for j in range(3):
            del catalog._families[triple[:j] + triple[j + 1:]]
        dropped.append(tuple(catalog.pool[i] for i in triple))
        return catalog

    canned = {"ufg": False, "reason": NOT_UFG_REASONS[1]}  # not generic: no blockers
    monkeypatch.setattr(ufgkit.connectedness, "enumerate_ufg_exhaustive",
                        without_the_first_triples_pairs)
    monkeypatch.setattr(ufgkit.connectedness, "explain_not_ufg", lambda rest: dict(canned))
    report = verify_connectedness(g3)
    assert [v.family for v in report.violations] == dropped
    assert (report.checked, report.connected) == (140, 139)
    assert report.checked == report.connected + len(report.violations)
    (v,) = report.violations
    assert v.certificate.family == v.family
    for j, entry in enumerate(v.leave_one_out):  # entry j removes member j
        assert entry["removed"] == v.family[j]
        assert entry["members"] == v.family[:j] + v.family[j + 1:]
        assert entry["analysis"] == canned
    obj = jsonio.violation_to_obj(v)
    again = jsonio.violation_to_obj(jsonio.violation_from_obj(obj))
    assert jsonio.dumps_canonical(again) == jsonio.dumps_canonical(obj)
    assert ufgkit.cli.main(["connectedness", "-n", "3"]) == ufgkit.cli.EXIT_VIOLATION
    assert "violations: 1\n" in capsys.readouterr().out


def test_corrigendum_scenario_passes():
    scenario = run_corrigendum()
    assert [c.name for c in scenario.checks] == [
        "posets-valid",
        "family-is-ufg-with-witness-q",
        "q-inside-closure",
        "q-outside-proper-subsets",
        "removal-of-p1-impossible",
        "predecessor-exists",
    ]
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


def test_random_poset_draws_are_pinned():
    # sha256 of the bits of 300 draws, taken before the closure moved to
    # the packed matrix: any change to the draws or the closure shows here
    digest = hashlib.sha256()
    for n in range(1, 7):
        g = GroundSet.numbered(n)
        for s in range(50):
            p = random_poset(g, random.Random(f"golden:{n}:{s}"))
            digest.update(b"%d\n" % p.bits)
    assert digest.hexdigest() == (
        "abe221e9faeafc368276f318d598b217c42b23ceecb53f730ae7fb9e8fcb9afe"
    )


def test_random_pool_is_canonical():
    g = GroundSet.numbered(4)
    pool = random_pool(g, random.Random(71), 10)
    assert len({p.bits for p in pool}) == len(pool)


def _unmemoised_pool(monkeypatch, ground, seed, size):
    """The pool the way it was first built, with the closure memo bypassed:
    ``canonical_family`` of ``size`` draws, each closed afresh.  Returns
    the pool and the RNG's next ``random()``."""
    rng = random.Random(seed)
    with monkeypatch.context() as m:
        m.setattr(ufgkit.orders, "CLOSED_ITEMS", 0)  # no ground is memoised
        _size_table(ground.size).closed.clear()
        pool = canonical_family(random_poset(ground, rng) for _ in range(size))
        assert not _size_table(ground.size).closed
    return pool, rng.random()


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("size", [1, 8, 12])
def test_random_pool_is_the_canonical_family_of_its_draws(monkeypatch, n, size):
    g = GroundSet.numbered(n)
    for seed in (f"pool:{n}:{size}", 0, 71):
        want, after = _unmemoised_pool(monkeypatch, g, seed, size)
        for _ in ("cold", "warm"):  # from a cleared memo, then from the one it filled
            rng = random.Random(seed)
            pool = random_pool(g, rng, size)
            assert [(p.ground, p.bits) for p in pool] == [(p.ground, p.bits) for p in want]
            assert all(type(p) is Poset for p in pool)
            assert rng.random() == after  # the same RNG calls, in the same order
        stored = len(_size_table(n).closed)
        assert (0 < stored <= 2 ** (n * (n - 1))) if n <= CLOSED_ITEMS else stored == 0


def test_random_pool_settles_for_the_empty_order_as_its_draws_do(monkeypatch):
    # one try per order on 6 items: a cyclic closure often ends the draw
    g = GroundSet.numbered(6)
    monkeypatch.setattr(ufgkit.orders, "RANDOM_POSET_TRIES", 1)
    want, after = _unmemoised_pool(monkeypatch, g, "empty:6", 12)
    assert want[0].bits == 0  # the fallback was reached
    rng = random.Random("empty:6")
    pool = random_pool(g, rng, 12)
    assert [p.bits for p in pool] == [p.bits for p in want]
    assert rng.random() == after


def test_random_pool_of_no_draws_is_an_empty_family():
    rng = random.Random(3)
    with pytest.raises(EmptyFamily):
        random_pool(GroundSet.numbered(4), rng, 0)
    assert rng.random() == random.Random(3).random()  # nothing was drawn


def _fresh_closure(g, m):
    """The memo entry of drawn matrix m, by another route: close the
    relation, validate it as a poset, key it; () on a cycle."""
    try:
        p = Poset(g, transitive_closure(BinaryRelation(g, _matrix_to_bits(g, m))).bits)
    except NotAntisymmetric:
        return ()
    return canonical_key(p), p.bits


def _assert_memo_holds_fresh_closures(n):
    g, table = GroundSet.numbered(n), _size_table(n)
    assert len(table.closed) <= 2 ** (n * (n - 1))  # at most every relation on n items
    for m, order in list(table.closed.items()):
        assert order == _fresh_closure(g, m)  # closed afresh, by another route


def test_closure_memo_stores_only_up_to_its_item_bound():
    # 6 items have 2**30 relations, whose draws rarely repeat: none is stored
    assert CLOSED_ITEMS == 4
    table = _size_table(6)
    table.closed.clear()
    g = GroundSet.numbered(6)
    rng = random.Random("cap:6")
    for _ in range(400):  # about 25 tries each
        random_poset(g, rng)
    assert not table.closed
    # 4 items have 2**12 relations, which the memo holds whole
    _size_table(4).closed.clear()
    g = GroundSet.numbered(4)
    rng = random.Random("cap:4")
    for _ in range(2000):
        random_poset(g, rng)
    assert _size_table(4).closed
    _assert_memo_holds_fresh_closures(4)
    test_random_poset_draws_are_pinned()  # the filled memo draws the same orders


def test_threads_sharing_a_cleared_memo_draw_what_one_thread_draws():
    # more threads than cores, switching often, all missing on a cleared memo:
    # racing stores of one relation write the same value, so no lock is needed
    g, table = GroundSet.numbered(4), _size_table(4)

    def draws(t):
        rng = random.Random(f"share:{t}")
        return [random_poset(g, rng).bits for _ in range(300)]

    count = min((os.cpu_count() or 1) + 2, 16)
    alone = {}
    for t in range(count):
        table.closed.clear()
        alone[t] = draws(t)
    table.closed.clear()
    shared = {}
    workers = [threading.Thread(target=lambda t=t: shared.update({t: draws(t)}))
               for t in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert shared == alone
    _assert_memo_holds_fresh_closures(4)


def test_closure_memo_shared_by_threads_changes_no_report():
    for sizes in ([3, 4], [5, 6]):
        reports = []
        for threads in (1, 2):
            for n in sizes:
                _size_table(n).closed.clear()
            reports.append(falsification_search(sizes, 400, 11, threads=threads))
            for n in sizes:  # 3 and 4 items fill their memos, 5 and 6 store nothing
                assert bool(_size_table(n).closed) == (n <= CLOSED_ITEMS)
                _assert_memo_holds_fresh_closures(n)
        assert reports[0] == reports[1]


def test_falsification_rejects_zero_budget():
    with pytest.raises(ValueError):
        falsification_search([3], 0, seed=1)
    with pytest.raises(ValueError):
        falsification_search([], 5, seed=1)


@pytest.mark.parametrize("threads", [0, -1])
def test_falsification_rejects_no_threads(threads):
    with pytest.raises(ValueError, match="thread count"):
        falsification_search([3], 5, seed=1, threads=threads)


@pytest.mark.parametrize("cores, workers", [(8, [4]), (2, [2]), (1, []), (None, [])])
def test_falsification_threads_are_capped_by_budget_and_cores(monkeypatch, cores, workers):
    # a million requested threads start at most one per trial and per core
    import concurrent.futures

    seen = []

    class InlinePool:  # records max_workers and maps in this thread: no thread starts
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    report = falsification_search([3], 4, 0, threads=10**6)
    assert seen == workers
    assert report == falsification_search([3], 4, 0, threads=1)


def test_import_leaves_the_thread_pool_out():
    # the executor is imported only by a run with more than one thread
    code = ("import sys, ufgkit, ufgkit.cli; "
            "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert out.stdout.strip() == "False"


def test_falsification_small_run_finds_nothing():
    report = falsification_search([3], 60, seed=2)
    assert report.violation is None
    assert report.trials == 60
    assert report.families_checked > 0


def _replayed_trial(n, seed, trial):
    """The families one falsification trial counts, replayed from its seed:
    the same draws, in the same order, with every family decided by the
    public ``is_ufg`` on its orders instead of the catalog step."""
    rng = random.Random(f"{seed}:{trial}")
    ground = GroundSet.numbered(n)
    pool = random_pool(ground, rng, POOL_SIZE)
    if len(pool) < 3:
        return []
    limit = min(len(pool), default_max_family_size(ground))

    def first_ufg(families):
        return next((f for f in families if is_ufg(pool[i] for i in f) is not None), None)

    pairs = list(combinations(range(len(pool)), 2))
    rng.shuffle(pairs)
    family = first_ufg(pairs[:30])
    grown = []
    while family is not None and len(family) < limit:
        candidates = [k for k in range(len(pool)) if k not in family]
        rng.shuffle(candidates)
        family = first_ufg(tuple(sorted(family + (k,))) for k in candidates)
        if family is not None:
            grown.append(tuple(pool[i] for i in family))
    return grown


def test_falsification_trials_match_an_independent_replay():
    # each trial counts the families of its replay, and each of those grew
    # from a ufg parent, the one counted before it or a pair for the first:
    # the invariant that lets a trial count a family without deciding its
    # predecessors
    for seed in (0, 3, 9):
        counted = 0
        for t in range(24):
            n = (3, 4)[t % 2]
            grown = _replayed_trial(n, seed, t)
            assert _run_trial(n, seed, t) == len(grown)
            for k, family in enumerate(grown):
                assert is_ufg_by_distinguishing(family) is not None
                assert has_predecessor(family) is not None
                if k == 0:
                    assert len(family) == 3
                    continue
                parent = grown[k - 1]
                (added,) = set(family) - set(parent)
                assert parent == tuple(m for m in family if m != added)
            counted += len(grown)
        assert counted > 0
        assert falsification_search([3, 4], 24, seed).families_checked == counted


def test_falsification_decides_through_the_one_decider(monkeypatch):
    # a trial decides every family through the catalog step, which calls
    # the module-global root-search decider: each counted family was one
    # of its yes verdicts
    verdicts = []
    original = ufgkit.ufg._decides

    def spy(*args):
        verdict = original(*args)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(ufgkit.ufg, "_decides", spy)
    report = falsification_search([3, 4], 24, 0)
    text = jsonio.dumps_canonical(jsonio.falsification_to_obj(report))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "828c05c76c4df9474a40a561f5bcecdad46444b5958f037e5d77c6d190845914"
    )
    assert report.families_checked == 29
    assert sum(verdicts) >= report.families_checked


def test_falsification_trials_keep_no_family(monkeypatch):
    # a trial reads the step's verdict and keeps nothing: every catalog
    # the trials make ends empty, though its steps found ufg families
    catalogs = []
    init = ufgkit.ufg.UfgCatalog.__init__

    def spy(self, *args):
        init(self, *args)
        catalogs.append(self)

    monkeypatch.setattr(ufgkit.ufg.UfgCatalog, "__init__", spy)
    report = falsification_search([3, 4], 24, 0)
    assert report.families_checked == 29
    assert catalogs and sum(c.stats["families_tested"] for c in catalogs) > 0
    assert [len(c) for c in catalogs] == [0] * len(catalogs)


@pytest.mark.parametrize("sizes, budget, seed, digest", [
    ([3], 60, 2, "baadbf1af651931061290d44309536bb1aa220623e084fca5a7ef65238dad898"),
    ([3, 4], 40, 9, "d46708f1e97c5ffa2cf80dca097a47ba7af04cab9a620cd099aa2fd27ef2aa89"),
    ([4], 100, 0, "3f917f1e54546ef2ff079ed0b6b2263e99b2169b4ac8c9ed797a58a8a5f60650"),
    ([5], 30, 4, "5e8011da6ddc4fff6948d986ee809a2e32d65dc7150179d6d660a118b7dc091f"),
    ([3, 4, 5], 50, 11, "ec28870662fbaf0e15e2c6dbf80449a547d0c62e443065c3dd48d7b5f8f14e18"),
], ids=["n3", "n3,4", "n4", "n5", "n3,4,5"])
def test_falsification_reports_are_pinned(sizes, budget, seed, digest):
    # sha256 of the canonical JSON, taken while every trial still decided
    # a predecessor for each family it counted
    report = falsification_search(sizes, budget, seed)
    text = jsonio.dumps_canonical(jsonio.falsification_to_obj(report))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
