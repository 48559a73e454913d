"""Connectedness of union-free generic families: verify, reproduce, stress.

The connectedness claim says every ufg family of size m >= 3 contains an
ufg subfamily of size m-1.  Its original removal argument is broken; the
scenario in :func:`run_corrigendum` replays the known counterexample to
that argument while confirming the claim itself survives.  Nothing here
assumes connectedness: it is checked exhaustively where feasible and
stress-tested with seeded random pools beyond that.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from itertools import combinations

from .context import NLEQ, Attribute, gamma_interval, partition_distinguishing
from .errors import EmptyFamily, FamilyTooSmall, NotUfgInput, UfgkitError
from .orders import (
    GroundSet,
    Poset,
    _draw,
    canonical_family,
    make_poset,
)
from .ufg import (
    DEFAULT_SUBSET_BUDGET,
    UfgCatalog,
    UfgCertificate,
    _is_ufg_sorted,
    enumerate_ufg_exhaustive,
    explain_not_ufg,
    is_ufg,
    is_witness,
    default_max_family_size,
)


def has_predecessor(
    S: Iterable[Poset],
) -> tuple[tuple[Poset, ...], UfgCertificate] | None:
    """First ufg leave-one-out subfamily, removing members in canonical order.

    None means the connectedness claim fails for this family.
    """
    members = canonical_family(S)
    if len(members) < 3:
        raise FamilyTooSmall("predecessors are defined for families of size >= 3")
    if _is_ufg_sorted(members) is None:
        raise NotUfgInput("the input family is not union-free generic")
    for j in range(len(members)):
        rest = members[:j] + members[j + 1:]
        cert = _is_ufg_sorted(rest)
        if cert is not None:
            return rest, cert
    return None


@dataclass
class ConnectednessViolation:
    """A family contradicting connectedness, with a re-checkable trail."""

    family: tuple[Poset, ...]
    certificate: UfgCertificate
    leave_one_out: list[dict]  # one not-ufg analysis per removed member


def _violation(members: tuple[Poset, ...], cert: UfgCertificate) -> ConnectednessViolation:
    failures = []
    for removed in members:
        rest = tuple(m for m in members if m.bits != removed.bits)
        failures.append(
            {"removed": removed, "members": rest, "analysis": explain_not_ufg(rest)}
        )
    return ConnectednessViolation(members, cert, failures)


@dataclass
class ConnectednessReport:
    """Outcome of checking predecessors for every cataloged family."""

    ground: GroundSet
    max_size: int
    checked: int
    connected: int
    violations: list[ConnectednessViolation]
    predecessors: list[dict]  # family, predecessor, witness


def verify_connectedness(
    ground: GroundSet,
    max_size: int | None = None,
    premises: Iterable[Poset] | None = None,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> ConnectednessReport:
    """Exhaustively enumerate ufg families of the pool of
    :func:`ufgkit.ufg.enumerate_ufg_exhaustive` and check each of size >= 3.

    Every leave-one-out subfamily of a cataloged family lies in the pool
    and within ``max_size``, so it is ufg exactly when the catalog holds
    it: the predecessor is the first ``family[:j] + family[j + 1:]`` the
    catalog holds, the one :func:`has_predecessor` picks, found by lookup
    with no decider call.  Certificates are read, and so walked, only for
    the predecessors and violations the report writes.
    """
    catalog = enumerate_ufg_exhaustive(
        ground, max_size=max_size, premises=premises, budget=budget
    )
    violations: list[ConnectednessViolation] = []
    predecessors: list[dict] = []
    pool = catalog.pool
    for family in catalog.families():
        if len(family) < 3:
            continue
        for j in range(len(family)):
            sub = family[:j] + family[j + 1:]
            if sub in catalog:
                sub_cert = catalog.get(sub)
                predecessors.append(
                    {
                        "family": tuple(pool[i] for i in family),
                        "predecessor": sub_cert.family,
                        "witness": sub_cert.witness,
                    }
                )
                break
        else:
            cert = catalog.get(family)
            violations.append(_violation(cert.family, cert))
    return ConnectednessReport(
        ground=ground,
        max_size=catalog.max_size,
        checked=len(predecessors) + len(violations),
        connected=len(predecessors),
        violations=violations,
        predecessors=predecessors,
    )


# --- the golden counterexample scenario ------------------------------------

CORRIGENDUM_LABELS = ("a", "b", "a1", "b1", "c1")


def corrigendum_inputs() -> tuple[GroundSet, Poset, Poset, Poset, Poset]:
    """The fixed five-item ground set and the four literal orders."""
    ground = GroundSet(CORRIGENDUM_LABELS)
    p1 = make_poset(ground, [("a", "b"), ("a1", "c1")])
    p2 = make_poset(ground, [("a1", "b1")])
    p3 = make_poset(ground, [("b1", "c1")])
    q = make_poset(ground, [("a", "b"), ("a1", "b1"), ("b1", "c1"), ("a1", "c1")])
    return ground, p1, p2, p3, q


@dataclass
class ScenarioCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class CorrigendumScenario:
    """Literal data and assertion outcomes of the counterexample scenario."""

    ground: GroundSet
    p1: Poset
    p2: Poset
    p3: Poset
    q: Poset
    checks: list[ScenarioCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def run_corrigendum() -> CorrigendumScenario:
    """Replay the counterexample scenario and record every assertion, in
    the corrigendum's order."""
    ground, p1, p2, p3, q = corrigendum_inputs()
    family = (p1, p2, p3)
    try:
        for p in (p1, p2, p3, q):
            Poset(ground, p.bits)  # re-validate transitivity and asymmetry
    except UfgkitError:
        valid = False, "some literal fails poset validation"
    else:
        valid = True, "p1, p2, p3 and q validate as strict partial orders"
    subsets = [T for size in (1, 2) for T in combinations(family, size)]
    ab = Attribute(NLEQ, ground.index("a"), ground.index("b"))
    checks = [ScenarioCheck(*check) for check in (
        ("posets-valid", *valid),
        ("family-is-ufg-with-witness-q", is_ufg(family) is not None and is_witness(family, q),
         "the three-order family is union-free generic and q is one of its witnesses"),
        ("q-inside-closure", gamma_interval(family).contains(q),
         "q lies between the intersection and the union of the family"),
        ("q-outside-proper-subsets", not any(gamma_interval(T).contains(q) for T in subsets),
         f"q avoids the closures of all {len(subsets)} proper nonempty subfamilies"),
        ("removal-of-p1-impossible",
         ab in partition_distinguishing(family, q)[1]
         and not gamma_interval((p2, p3)).contains(q),
         "the pair (a,b) is a distinguishing non-pair of p1, yet dropping p1 "
         "loses (a,b) and (a1,c1) from the union, so q leaves the closure"),
        ("predecessor-exists", has_predecessor(family) is not None,
         "some two-member subfamily is union-free generic, so connectedness holds here"),
    )]
    return CorrigendumScenario(ground, p1, p2, p3, q, checks)


# --- seeded falsification beyond the exhaustive range -----------------------


def random_poset(ground: GroundSet, rng: random.Random) -> Poset:
    """Random order via rejection: random strict pairs, transitively closed,
    kept when the closure stays asymmetric.  Not uniform over all orders;
    good enough for stress trials.  Drawn by :func:`ufgkit.orders._draw`,
    which owns the retry bound and the closure memo."""
    return Poset(ground, _draw(ground, rng)[1], check=False)


def random_pool(ground: GroundSet, rng: random.Random, size: int) -> tuple[Poset, ...]:
    """``canonical_family`` of ``size`` :func:`random_poset` draws, from
    the same RNG calls, each distinct order built once."""
    by_key = dict(_draw(ground, rng) for _ in range(size))
    if not by_key:
        raise EmptyFamily("the family has no members")
    pool = [object.__new__(Poset) for _ in by_key]  # valid orders: no __init__ chain
    for p, key in zip(pool, sorted(by_key)):
        p.ground, p.bits = ground, by_key[key]
    return tuple(pool)


POOL_SIZE = 8  # orders each falsification trial draws


@dataclass
class FalsificationReport:
    """Deterministic record of a stress run against connectedness."""

    n_range: tuple[int, ...]
    budget: int
    seed: int
    pool_size: int
    trials: int
    families_checked: int
    violation: ConnectednessViolation | None


def _run_trial(n: int, seed: int, trial: int) -> int:
    """How many families one growth trial reaches, each one member past
    the one before, from a ufg pair of its seeded pool."""
    rng = random.Random(f"{seed}:{trial}")
    ground = GroundSet.numbered(n)
    pool = random_pool(ground, rng, POOL_SIZE)
    if len(pool) < 3:
        return 0
    # a family is a sorted tuple of pool indices, so canonical as it grows,
    # and the trial's catalog decides it, one step from the family before
    # with that family's leave-one-out closures; a trial only counts, so it
    # keeps no family and the catalog stays empty
    limit = min(len(pool), default_max_family_size(ground))
    catalog = UfgCatalog(ground, pool, limit)
    indices = list(range(len(pool)))
    pairs = [(i, j) for i in indices for j in indices[i + 1:]]
    rng.shuffle(pairs)
    for i, j in pairs[:30]:
        state = catalog.step((i,), catalog.singleton, j)
        if state is not None and state[2]:
            break
    else:
        return 0
    family, loo, _ = state
    while len(family) < limit:
        candidates = [k for k in indices if k not in family]
        rng.shuffle(candidates)
        for k in candidates:
            state = catalog.step(family, loo, k)
            if state is not None and state[2]:
                # the family it grew from, decided one step earlier, is a predecessor
                family, loo, _ = state
                break
        else:
            break
    return len(family) - 2  # one counted family per member past the pair


def falsification_search(
    n_range: Sequence[int], budget: int, seed: int, threads: int = 1
) -> FalsificationReport:
    """Run seeded random growth trials, each on a pool of :data:`POOL_SIZE`
    draws, and count the families they reach.

    A trial keeps only ufg children, so the parent of each family it
    counts is a ufg predecessor and ``violation`` stays None.  It only
    counts, so its catalog decides each child by the root search of the
    witness scan (:func:`ufgkit.ufg._decides`), with no walk to a
    witness and no certificate.  Randomness
    comes from (seed, trial index) alone: threads never change the report.
    At most ``min(threads, budget, os.cpu_count())`` worker threads run.
    """
    if budget < 1:
        raise ValueError("the trial budget must be at least 1")
    if not n_range:
        raise ValueError("n_range must name at least one ground size")
    if threads < 1:
        raise ValueError("the thread count must be at least 1")
    sizes = tuple(n_range)

    def trial(t: int) -> int:
        return _run_trial(sizes[t % len(sizes)], seed, t)

    # the pool starts a thread for each trial submitted while none is idle:
    # workers beyond the trials would idle, beyond the cores only contend
    workers = min(threads, budget, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only here: slow to import

        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(trial, range(budget)))
    else:
        counts = [trial(t) for t in range(budget)]

    return FalsificationReport(
        n_range=sizes,
        budget=budget,
        seed=seed,
        pool_size=POOL_SIZE,
        trials=budget,
        families_checked=sum(counts),
        violation=None,
    )
