"""Span recorder and the module patches that feed it, for the traced run.

Tracing wraps ufgkit functions from the outside: each wrapper records
one span (name, start, end, parent) per call.  A function is replaced
under its name in every ufgkit module that holds it, because a module
that did ``from .x import f`` calls its own reference, not ``x.f``.
``PosetInterval.posets`` is patched on the class; each step of the walk
(one ``next`` on the interval generator) is its own span, so the walk's
time is counted where it happens even when the caller interleaves
its own work between leaves or stops early.

Spans are kept in flat arrays for the whole traced job and reduced at
the end.  The recorder assumes one thread: the benchmark runs every
traced job with ``threads=1``.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter


def _enumerator_stats(rec, span, catalog):
    stats = catalog.stats
    rec.count(f"{span}.elapsed_s", stats["elapsed_seconds"])
    rec.count(f"{span}.tested", stats["families_tested"])
    rec.count(f"{span}.rejections", stats["filter_rejections"])


def _falsify_report(rec, span, report):
    rec.count("connectedness.trials", report.trials)
    rec.count("connectedness.families_checked", report.families_checked)


def _bytes_out(rec, span, text):
    rec.count("jsonio.bytes_out", len(text.encode("utf-8")))


# (defining module, attribute, span name, collector of the return value)
FUNCTIONS = (
    ("orders", "canonical_family", "orders.canonical_family", None),
    ("orders", "transitive_closure", "orders.transitive_closure", None),
    ("context", "gamma_interval", "context.gamma_interval", None),
    ("ufg", "_is_ufg_sorted", "ufg.decide", None),
    ("ufg", "_certificate", "ufg.certificate", None),
    ("ufg", "candidate_filter", "ufg.filter", None),
    ("ufg", "enumerate_ufg_exhaustive", "ufg.exhaustive", _enumerator_stats),
    ("ufg", "enumerate_ufg_connected", "ufg.connected", _enumerator_stats),
    ("connectedness", "has_predecessor", "connectedness.predecessor", None),
    ("connectedness", "random_pool", "connectedness.random_pool", None),
    ("connectedness", "falsification_search", "connectedness.falsify", _falsify_report),
    ("jsonio", "dumps_canonical", "jsonio.serialize", _bytes_out),
    ("jsonio", "catalog_to_obj", "jsonio.serialize", None),
    ("jsonio", "connectedness_to_obj", "jsonio.serialize", None),
    ("jsonio", "falsification_to_obj", "jsonio.serialize", None),
    ("cli", "main", "cli.main", None),
)

# Names a span can be renamed to when it closes.
DECIDE_WITNESS = "ufg.decide.witness"
DECIDE_NONE = "ufg.decide.none"
FILTER_PASS = "ufg.filter.pass"
FILTER_REJECT = "ufg.filter.reject"
INTERVAL = "orders.interval"  # walk set-up and the step that ends the walk
INTERVAL_LEAF = "orders.interval.leaf"  # a step that yields one order
ROOT = "job"


class SpanRecorder:
    """Spans in open order: name id, parent index (-1 for none), start, end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, nid: int | None = None) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        if nid is not None:
            self.name[idx] = nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        start, end, parent = self.start, self.end, self.parent
        own = [e - s for s, e in zip(start, end)]
        child = [0.0] * len(own)
        for k, p in enumerate(parent):
            if p >= 0:
                child[p] += own[k]
        return [d - c for d, c in zip(own, child)]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and total self time."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        names = self.names
        for nid, own in zip(self.name, self.self_times()):
            row = out[names[nid]]
            row["calls"] += 1
            row["self_s"] += own
        return out


def _ufgkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ufgkit" or name.startswith("ufgkit."))]


# How a span is renamed from the value its function returned.
RENAME = {
    "ufg.decide": lambda cert: DECIDE_NONE if cert is None else DECIDE_WITNESS,
    "ufg.filter": lambda keep: FILTER_PASS if keep else FILTER_REJECT,
}


def _wrap(rec: SpanRecorder, fn, span: str, collect):
    nid = rec.name_id(span)
    open_, close = rec.open, rec.close
    rename = RENAME.get(span)
    ids = {name: rec.name_id(name)
           for name in (DECIDE_NONE, DECIDE_WITNESS, FILTER_PASS, FILTER_REJECT)}

    def wrapper(*args, **kwargs):
        idx = open_(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            close(idx)
            raise
        close(idx, None if rename is None else ids[rename(result)])
        if collect is not None:
            collect(rec, span, result)
        return result

    return wrapper


def _traced_posets(rec: SpanRecorder, orig):
    setup, leaf = rec.name_id(INTERVAL), rec.name_id(INTERVAL_LEAF)
    open_, close = rec.open, rec.close

    def walk(it):
        while True:
            idx = open_(leaf)
            try:
                q = next(it)
            except StopIteration:
                close(idx, setup)
                return
            except BaseException:
                close(idx)
                raise
            close(idx)
            yield q

    def posets(self):
        idx = open_(setup)
        try:
            it = orig(self)
        finally:
            close(idx)
        return walk(it)

    return posets


@contextmanager
def traced(rec: SpanRecorder):
    """Install span wrappers on every ufgkit module; restore on exit."""
    from ufgkit import orders

    undo = []
    modules = _ufgkit_modules()
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    for home, attr, span, collect in FUNCTIONS:
        orig = getattr(by_name[home], attr)
        wrapper = _wrap(rec, orig, span, collect)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, name, orig))
                    setattr(mod, name, wrapper)
    orig_posets = orders.PosetInterval.posets
    orders.PosetInterval.posets = _traced_posets(rec, orig_posets)
    root = rec.open(rec.name_id(ROOT))
    try:
        yield rec
    finally:
        rec.close(root)
        orders.PosetInterval.posets = orig_posets
        for mod, name, orig in reversed(undo):
            setattr(mod, name, orig)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(rec: SpanRecorder, jobs: int) -> dict[str, float]:
    """Per-layer numbers for ``jobs`` traced jobs, reported per job.

    Every ``*_s`` is self time except the decider latency percentiles,
    which are whole-call durations, and the enumerator totals, which are
    the ``elapsed_seconds`` the enumerators report in ``UfgCatalog.stats``.
    """
    tot = rec.totals()
    zero = {"calls": 0, "self_s": 0.0}

    def row(*names):
        rows = [tot.get(n, zero) for n in names]
        return (sum(r["calls"] for r in rows), sum(r["self_s"] for r in rows))

    ids = {name: rec.name_id(name) for name in (
        DECIDE_WITNESS, DECIDE_NONE, INTERVAL_LEAF, "context.gamma_interval")}
    decide_ids = (ids[DECIDE_WITNESS], ids[DECIDE_NONE])
    opened: set[int] = set()
    leaves_under: dict[int, int] = {}
    durations = []
    name, parent, start, end = rec.name, rec.parent, rec.start, rec.end
    for k in range(len(rec)):
        nid = name[k]
        if nid in decide_ids:
            durations.append(end[k] - start[k])
        p = parent[k]
        if p >= 0 and name[p] in decide_ids:
            if nid == ids["context.gamma_interval"]:
                opened.add(p)
            elif nid == ids[INTERVAL_LEAF]:
                leaves_under[p] = leaves_under.get(p, 0) + 1
    durations.sort()
    prefiltered = sum(
        1 for k in range(len(rec)) if name[k] == ids[DECIDE_NONE] and k not in opened
    )

    leaves, interval_s = row(INTERVAL_LEAF)
    _, walk_s = row(INTERVAL)
    interval_s += walk_s
    decide_calls, decide_s = row(DECIDE_WITNESS, DECIDE_NONE)
    witness_calls, witness_s = row(DECIDE_WITNESS)
    nowitness_calls, nowitness_s = row(DECIDE_NONE)
    filter_calls, filter_s = row(FILTER_PASS, FILTER_REJECT)
    filter_rejects, _ = row(FILTER_REJECT)
    c = rec.counters

    per_job = {
        "orders.interval_leaves": leaves,
        "orders.interval_s": interval_s,
        "orders.canonical_family_calls": row("orders.canonical_family")[0],
        "orders.canonical_family_s": row("orders.canonical_family")[1],
        "orders.transitive_closure_calls": row("orders.transitive_closure")[0],
        "orders.transitive_closure_s": row("orders.transitive_closure")[1],
        "context.gamma_interval_calls": row("context.gamma_interval")[0],
        "context.gamma_interval_s": row("context.gamma_interval")[1],
        "ufg.decide_calls": decide_calls,
        "ufg.decide_s": decide_s,
        "ufg.decide_witness_calls": witness_calls,
        "ufg.decide_witness_s": witness_s,
        "ufg.decide_nowitness_calls": nowitness_calls,
        "ufg.decide_nowitness_s": nowitness_s,
        "ufg.decide_prefiltered": prefiltered,
        "ufg.certificate_s": row("ufg.certificate")[1],
        "ufg.filter_calls": filter_calls,
        "ufg.filter_rejects": filter_rejects,
        "ufg.filter_s": filter_s,
        "ufg.exhaustive_s": c.get("ufg.exhaustive.elapsed_s", 0.0),
        "ufg.connected_s": c.get("ufg.connected.elapsed_s", 0.0),
        "ufg.exhaustive_tested": c.get("ufg.exhaustive.tested", 0),
        "ufg.connected_tested": c.get("ufg.connected.tested", 0),
        "ufg.connected_rejections": c.get("ufg.connected.rejections", 0),
        "connectedness.predecessor_calls": row("connectedness.predecessor")[0],
        "connectedness.predecessor_s": row("connectedness.predecessor")[1],
        "connectedness.random_pool_s": row("connectedness.random_pool")[1],
        "connectedness.trials": c.get("connectedness.trials", 0),
        "connectedness.families_checked": c.get("connectedness.families_checked", 0),
        "jsonio.serialize_s": row("jsonio.serialize")[1],
        "jsonio.bytes_out": c.get("jsonio.bytes_out", 0),
        "cli.main_s": row("cli.main")[1],
    }
    out = {key: value / jobs for key, value in per_job.items()}
    out["orders.leaves_per_s"] = leaves / interval_s if interval_s else 0.0
    out["ufg.decide_p50_ms"] = 1000 * _percentile(durations, 50)
    out["ufg.decide_p99_ms"] = 1000 * _percentile(durations, 99)
    out["ufg.leaves_per_decide"] = (
        sum(leaves_under.values()) / len(opened) if opened else 0.0
    )
    out["ufg.witness_ratio"] = witness_calls / decide_calls if decide_calls else 0.0
    return out
