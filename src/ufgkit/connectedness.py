"""Connectedness of union-free generic families: verify, reproduce, stress.

The connectedness claim says every ufg family of size m >= 3 contains an
ufg subfamily of size m-1.  Its original removal argument is broken; the
scenario in :func:`run_corrigendum` replays the known counterexample to
that argument while confirming the claim itself survives.  Nothing here
assumes connectedness: it is checked exhaustively where feasible and
stress-tested with seeded random pools beyond that.
"""

from __future__ import annotations

import random
from bisect import bisect
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations

from .context import NLEQ, Attribute, gamma_interval, partition_distinguishing
from .errors import FamilyTooSmall, NotUfgInput, UfgkitError
from .orders import (
    GroundSet,
    Poset,
    _close_matrix,
    _matrix_to_bits,
    _step_table,
    canonical_family,
    make_poset,
)
from .ufg import (
    UfgCertificate,
    _is_ufg_sorted,
    _witness_bits,
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
    if next(_witness_bits(members), None) is None:
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
    budget: int | None = None,
    cap: int | None = None,
) -> ConnectednessReport:
    """Exhaustively enumerate ufg families and check each of size >= 3.

    Every leave-one-out subfamily of a cataloged family lies in the pool
    and within ``max_size``, so it is ufg exactly when the catalog holds
    it: the predecessor is the first ``family[:j] + family[j + 1:]`` the
    catalog holds, the one :func:`has_predecessor` picks, found by lookup
    with no decider call.
    """
    kwargs = {} if budget is None else {"budget": budget}
    catalog = enumerate_ufg_exhaustive(
        ground, max_size=max_size, premises=premises, cap=cap, **kwargs
    )
    violations: list[ConnectednessViolation] = []
    predecessors: list[dict] = []
    for family in catalog.families():
        if len(family) < 3:
            continue
        cert = catalog.get(family)
        for j in range(len(family)):
            sub_cert = catalog.get(family[:j] + family[j + 1:])
            if sub_cert is not None:
                predecessors.append(
                    {
                        "family": cert.family,
                        "predecessor": sub_cert.family,
                        "witness": sub_cert.witness,
                    }
                )
                break
        else:
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


def _check_posets_valid(ground, p1, p2, p3, q):
    try:
        for p in (p1, p2, p3, q):
            Poset(ground, p.bits)  # re-validate transitivity and asymmetry
    except UfgkitError:
        return False, "some literal fails poset validation"
    return True, "p1, p2, p3 and q validate as strict partial orders"


def _check_family_ufg(ground, p1, p2, p3, q):
    family = (p1, p2, p3)
    ok = is_ufg(family) is not None and is_witness(family, q)
    return ok, (
        "the three-order family is union-free generic and q is one of its witnesses"
    )


def _check_q_inside(ground, p1, p2, p3, q):
    ok = gamma_interval((p1, p2, p3)).contains(q)
    return ok, "q lies between the intersection and the union of the family"


def _check_q_outside_subsets(ground, p1, p2, p3, q):
    family = (p1, p2, p3)
    subsets = [T for size in (1, 2) for T in combinations(family, size)]
    ok = all(not gamma_interval(T).contains(q) for T in subsets)
    return ok, (
        f"q avoids the closures of all {len(subsets)} proper nonempty subfamilies"
    )


def _check_removal_blocked(ground, p1, p2, p3, q):
    _, d_nleq = partition_distinguishing((p1, p2, p3), q)
    ab = Attribute(NLEQ, ground.index("a"), ground.index("b"))
    ok = ab in d_nleq and not gamma_interval((p2, p3)).contains(q)
    return ok, (
        "the pair (a,b) is a distinguishing non-pair of p1, yet dropping p1 "
        "loses (a,b) and (a1,c1) from the union, so q leaves the closure"
    )


def _check_predecessor(ground, p1, p2, p3, q):
    ok = has_predecessor((p1, p2, p3)) is not None
    return ok, (
        "some two-member subfamily is union-free generic, so connectedness holds here"
    )


SCENARIO_CHECKS = {
    "posets-valid": _check_posets_valid,
    "family-is-ufg-with-witness-q": _check_family_ufg,
    "q-inside-closure": _check_q_inside,
    "q-outside-proper-subsets": _check_q_outside_subsets,
    "removal-of-p1-impossible": _check_removal_blocked,
    "predecessor-exists": _check_predecessor,
}

def run_corrigendum() -> CorrigendumScenario:
    """Replay the counterexample scenario and record every assertion."""
    ground, p1, p2, p3, q = corrigendum_inputs()
    checks = [
        ScenarioCheck(name, *check(ground, p1, p2, p3, q))
        for name, check in SCENARIO_CHECKS.items()
    ]
    return CorrigendumScenario(ground, p1, p2, p3, q, checks)


# --- seeded falsification beyond the exhaustive range -----------------------


def random_poset(ground: GroundSet, rng: random.Random, max_tries: int = 200) -> Poset:
    """Random order via rejection: random strict pairs, transitively closed,
    kept when the closure stays asymmetric.  Not uniform over all orders;
    good enough for stress trials."""
    n = ground.size
    diagonal = sum(1 << i * (n + 1) for i in range(n))
    cells = [step[1] for step in _step_table(n)]  # in pair-position order
    density = rng.uniform(0.1, 0.5)
    draw = rng.random
    for _ in range(max_tries):
        m = 0
        for cell in cells:  # one draw per pair
            if draw() < density:
                m |= cell
        m = _close_matrix(m, n)
        # a cycle in the closure makes its items reach themselves
        if not m & diagonal:
            return Poset(ground, _matrix_to_bits(ground, m), check=False)
    return Poset(ground, 0, check=False)


def random_pool(ground: GroundSet, rng: random.Random, size: int) -> tuple[Poset, ...]:
    return canonical_family(random_poset(ground, rng) for _ in range(size))


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


def _grown_families(
    n: int, seed: int, trial: int, pool_size: int
) -> Iterator[tuple[tuple[Poset, ...], tuple[Poset, ...]]]:
    """Each family one growth trial reaches, with the family it grew from."""
    rng = random.Random(f"{seed}:{trial}")
    ground = GroundSet.numbered(n)
    pool = random_pool(ground, rng, pool_size)
    if len(pool) < 3:
        return
    # a family is a sorted tuple of pool indices, so canonical as it grows
    indices = list(range(len(pool)))
    pairs = [(i, j) for i in indices for j in indices[i + 1:]]
    rng.shuffle(pairs)
    for family in pairs[:30]:
        parent = tuple(pool[i] for i in family)
        if next(_witness_bits(parent), None) is not None:
            break
    else:
        return
    limit = min(len(pool), default_max_family_size(ground))
    while len(family) < limit:
        candidates = [k for k in indices if k not in family]
        rng.shuffle(candidates)
        for k in candidates:
            pos = bisect(family, k)
            child = family[:pos] + (k,) + family[pos:]
            members = tuple(pool[i] for i in child)
            if next(_witness_bits(members), None) is None:
                continue
            # the parent, decided one step earlier, is a ufg predecessor
            yield parent, members
            family, parent = child, members
            break
        else:
            return


def _run_trial(n: int, seed: int, trial: int, pool_size: int) -> int:
    return sum(1 for _ in _grown_families(n, seed, trial, pool_size))


def falsification_search(
    n_range: Sequence[int],
    budget: int,
    seed: int,
    pool_size: int = 8,
    threads: int = 1,
) -> FalsificationReport:
    """Run seeded random growth trials and count the families they reach.

    A trial keeps only ufg children, so the parent of each family it
    counts is a ufg predecessor and ``violation`` stays None.  Randomness
    comes from (seed, trial index) alone: threads never change the report.
    """
    if budget < 1:
        raise ValueError("the trial budget must be at least 1")
    if not n_range:
        raise ValueError("n_range must name at least one ground size")
    sizes = tuple(n_range)

    def trial(t: int) -> int:
        return _run_trial(sizes[t % len(sizes)], seed, t, pool_size)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = list(pool.map(trial, range(budget)))
    else:
        counts = [trial(t) for t in range(budget)]

    return FalsificationReport(
        n_range=sizes,
        budget=budget,
        seed=seed,
        pool_size=pool_size,
        trials=budget,
        families_checked=sum(counts),
        violation=None,
    )
