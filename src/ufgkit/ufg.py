"""Detection and enumeration of union-free generic families of orders.

A family S is *generic* when its closure holds some order outside S,
and *union-free* when no collection of proper-subset closures covers
the closure of S.  Both together are equivalent to the existence of a
witness order q in the closure of S that escapes every leave-one-out
closure: isotony dominates any covering collection of proper subsets
by the collection {S minus one member}, so those are the only subsets
that ever need checking.  ``is_ufg`` runs that witness scan, the one
decider of the library; :mod:`ufgkit.oracles` holds the independent
deciders it is checked against.
"""

from __future__ import annotations

import time
from bisect import bisect
from dataclasses import dataclass
from collections.abc import Iterable, Iterator
from math import comb

from .context import (
    DistinguishingSet,
    _distinguishing_sets,
    _loo_and_or,
    gamma_interval,
)
from .errors import (
    CombinatorialBudgetExceeded,
    EmptyFamily,
    MixedGroundSets,
    UfgkitError,
)
from .orders import (
    GroundSet,
    Poset,
    PosetInterval,
    canonical_family,
    enumerate_all_posets,
)

DEFAULT_SUBSET_BUDGET = 2_000_000


def default_max_family_size(ground: GroundSet) -> int:
    """Structural bound on ufg family size: the attribute count.

    Every member needs its own distinguishing attribute and two members
    cannot share one, so a family can never have more members than the
    context has attributes.
    """
    return 2 * ground.size * (ground.size - 1)


def _blocker(qb: int, loo: list[tuple[int, int]]) -> int | None:
    """The escape test: index of the first leave-one-out closure, given
    as (lower, upper) bits, that holds the order ``qb``; None when the
    order escapes them all."""
    for i, (lo, up) in enumerate(loo):
        if not (lo & ~qb or qb & ~up):
            return i
    return None


def _distinguishable(
    bits_list: list[int], others_and: list[int], others_or: list[int]
) -> bool:
    """Whether every member keeps an unrestricted distinguishing attribute:
    a pair all other members have and it lacks, or one only it has.

    A member without one lies in the closure of the other members, which
    is then the whole closure: no order escapes it, so there is no witness.
    """
    for b, lo, up in zip(bits_list, others_and, others_or):
        if not (lo & ~b or b & ~up):
            return False
    return True


def _witness_bits(
    members: tuple[Poset, ...], loo: tuple[list[int], list[int]] | None = None
) -> Iterator[int]:
    """The witness kernel: bits of every witness of a canonical family,
    in canonical order.

    A witness is a closure order outside every leave-one-out closure, so
    the kernel walks the closure interval with the leave-one-out closures
    as its ``outside`` sub-intervals: every subtree inside one of them is
    pruned whole.  Singletons have no witness.  From two members on, no
    member is a witness, because each lies in the closure of the family
    without any other one.
    A plain function rather than a generator, so that the many families
    the prefilter turns away cost no generator frame.  ``loo`` is the
    family's ``_loo_and_or`` result when the caller already has it.
    """
    if len(members) < 2:
        return iter(())
    bits_list = [m.bits for m in members]
    if loo is None:
        loo = _loo_and_or(bits_list, members[0].ground.full_bits)
    others_and, others_or = loo
    if not _distinguishable(bits_list, others_and, others_or):
        return iter(())
    iv = gamma_interval(members)
    witnesses = PosetInterval(iv.lower, iv.upper, zip(others_and, others_or))
    return (q.bits for q in witnesses.posets())


def is_witness(S: Iterable[Poset], q: Poset) -> bool:
    """Whether q certifies S: inside the closure, outside S and outside
    every leave-one-out closure."""
    members = canonical_family(S)
    if q.ground != members[0].ground:
        raise MixedGroundSets("witness candidate on a different ground set")
    if len(members) < 2:
        return False
    iv = gamma_interval(members)
    loo = _loo_and_or([m.bits for m in members], q.ground.full_bits)
    return PosetInterval(iv.lower, iv.upper, zip(*loo)).contains(q)


@dataclass
class UfgCertificate:
    """Witnessed proof that a family is union-free generic.

    ``family`` is canonically ordered; ``per_member`` maps each member to
    its nonempty distinguishing set restricted to the witness.
    """

    family: tuple[Poset, ...]
    witness: Poset
    per_member: dict[Poset, DistinguishingSet]

    @property
    def size(self) -> int:
        return len(self.family)

    def validate(self) -> None:
        """Re-derive every claim; raises AssertionError on any breach, also
        under ``python -O``."""
        members = canonical_family(self.family)
        if members != self.family:
            raise AssertionError("family is not in canonical order")
        # inside the closure, an order escapes the closure without a member
        # exactly when that member keeps a distinguishing attribute
        # restricted to it: one leave-one-out pass re-derives both claims
        if len(members) < 2 or not gamma_interval(members).contains(self.witness):
            raise AssertionError("witness fails re-validation")
        for fresh in _distinguishing_sets(members, self.witness):
            if not fresh.attributes:
                raise AssertionError("witness fails re-validation")
            if fresh.attributes != self.per_member[fresh.member].attributes:
                raise AssertionError("distinguishing set drifted")


def _certificate(
    members: tuple[Poset, ...],
    witness: Poset,
    loo: tuple[list[int], list[int]] | None = None,
) -> UfgCertificate:
    per_member = {}
    for d in _distinguishing_sets(members, witness, loo):
        # every member of a witnessed family must be distinguishable
        assert d.attributes, "witness scan and distinguishing sets disagree"
        per_member[d.member] = d
    return UfgCertificate(members, witness, per_member)


def _is_ufg_sorted(
    members: tuple[Poset, ...], loo: tuple[list[int], list[int]] | None = None
) -> UfgCertificate | None:
    """Witness scan over a canonical family; None when no witness exists.

    The kernel and the certificate read one leave-one-out pass: ``loo``
    when the caller already made it, else one made here.
    """
    if loo is None:
        loo = _loo_and_or([m.bits for m in members], members[0].ground.full_bits)
    qb = next(_witness_bits(members, loo), None)
    if qb is None:
        return None
    return _certificate(members, Poset(members[0].ground, qb, check=False), loo)


def is_ufg(S: Iterable[Poset]) -> UfgCertificate | None:
    """Certificate for a union-free generic family, or None.

    Families of fewer than two distinct orders are never union-free
    generic and yield None without error.  The witness is the first
    qualifying order in canonical enumeration order.
    """
    try:
        members = canonical_family(S)
    except EmptyFamily:
        return None
    return _is_ufg_sorted(members)


def candidate_filter(Q: Iterable[Poset], p: Poset) -> bool:
    """Whether p is worth testing as an extension of the ufg family Q.

    Rejects p when some order of Q + p keeps no distinguishing attribute:
    such an order lies in the closure of the others, so a proper subset
    covers the closure and the extension is provably not union-free
    generic.  This covers p inside the closure of Q, and p equal to a
    member, as the entry for p itself.
    """
    members = canonical_family(Q)
    if p.ground != members[0].ground:
        raise MixedGroundSets("extension candidate on a different ground set")
    bits_list = [m.bits for m in members]
    bits_list.append(p.bits)
    return _distinguishable(bits_list, *_loo_and_or(bits_list, p.ground.full_bits))


class UfgCatalog:
    """All union-free generic families found by one enumeration run.

    ``pool`` is a canonical family of orders, and a family is a sorted
    tuple of pool indices: canonical too, since the pool is, and ordered
    among families of its size as its canonical keys are.
    """

    def __init__(
        self, ground: GroundSet, pool: tuple[Poset, ...], strategy: str, max_size: int
    ):
        self.ground = ground
        self.pool = pool
        self.max_size = max_size
        self._bits = [p.bits for p in pool]
        self._full = ground.full_bits
        self._families: dict[tuple[int, ...], UfgCertificate] = {}
        self.stats: dict[str, object] = {
            "strategy": strategy,
            "families_tested": 0,
            "filter_rejections": 0,
            "pool_size": len(pool),
            "elapsed_seconds": 0.0,
        }

    def add(self, family: tuple[int, ...], cert: UfgCertificate) -> None:
        self._families[family] = cert

    def test(self, family: tuple[int, ...]) -> bool:
        """Decide a family of two or more pool indices, adding it when it
        is ufg; False when the distinguishing prefilter, which reads only
        the pool's bits, turns it away.  ``stats`` count both outcomes."""
        bits_list = [self._bits[i] for i in family]
        loo = _loo_and_or(bits_list, self._full)
        if not _distinguishable(bits_list, *loo):
            self.stats["filter_rejections"] += 1
            return False
        self.stats["families_tested"] += 1
        cert = _is_ufg_sorted(tuple(self.pool[i] for i in family), loo)
        if cert is not None:
            self._families[family] = cert
        return True

    def __len__(self) -> int:
        return len(self._families)

    def get(self, family: tuple[int, ...]) -> UfgCertificate | None:
        return self._families.get(family)

    def keys(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self._families)

    def families(self) -> list[tuple[int, ...]]:
        """Every family, by size and then in canonical order."""
        return sorted(self._families, key=lambda k: (len(k), k))

    def certificates(self) -> list[UfgCertificate]:
        return [self._families[k] for k in self.families()]

    def count_by_size(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for k in self._families:
            out[len(k)] = out.get(len(k), 0) + 1
        return out

    def same_families(self, other: "UfgCatalog") -> bool:
        # by the members' bits: index tuples name the same orders only
        # when the pools are equal
        return self._member_bits() == other._member_bits()

    def _member_bits(self) -> set[tuple[int, ...]]:
        return {tuple(self._bits[i] for i in k) for k in self._families}


def _resolve_pool(
    ground: GroundSet,
    premises: Iterable[Poset] | None,
    cap: int | None,
    max_size: int | None,
) -> tuple[tuple[Poset, ...], int]:
    """The canonical pool and the largest family size worth walking in it."""
    if premises is None:
        pool = tuple(enumerate_all_posets(ground, cap))
    else:
        pool = canonical_family(premises)
        if pool[0].ground != ground:
            raise MixedGroundSets("premise pool lives on a different ground set")
    if max_size is None:
        max_size = default_max_family_size(ground)
    return pool, min(max_size, len(pool))


def enumerate_ufg_exhaustive(
    ground: GroundSet,
    max_size: int | None = None,
    premises: Iterable[Poset] | None = None,
    budget: int = DEFAULT_SUBSET_BUDGET,
    cap: int | None = None,
) -> UfgCatalog:
    """Every ufg family of at most ``max_size`` pool orders, found by
    walking subsets of the pool as a set-enumeration tree (Rymon 1992).

    A family is a sorted tuple of pool indices and is extended only by
    pool orders after its last member, so each subset is reached at most
    once.  The distinguishing prefilter is hereditary: adding members
    only shrinks the others' AND and grows their OR, so a member that
    keeps no distinguishing attribute keeps none in any superset, and no
    superset is ufg (the Apriori rule of Agrawal & Srikant 1994).  A
    family failing it is neither tested nor extended; every other family
    of two or more members goes to the witness kernel.  The budget still
    counts every subset up to ``max_size``.  ``stats`` record the
    families tested and the subtrees pruned.  The tests and
    ``bench/make_references.py`` check the tree against deciding every
    subset.
    """
    pool, max_size = _resolve_pool(ground, premises, cap, max_size)
    planned = sum(comb(len(pool), k) for k in range(2, max_size + 1))
    if planned > budget:
        raise CombinatorialBudgetExceeded(
            f"{planned} subsets to test exceed the budget {budget}"
        )
    catalog = UfgCatalog(ground, pool, "exhaustive", max_size)
    start = time.perf_counter()
    stack = [(i,) for i in range(len(pool))] if max_size >= 2 else []
    while stack:
        family = stack.pop()
        for k in range(family[-1] + 1, len(pool)):
            child = family + (k,)
            if catalog.test(child) and len(child) < max_size:
                stack.append(child)
    catalog.stats["elapsed_seconds"] = time.perf_counter() - start
    return catalog


def enumerate_ufg_connected(
    ground: GroundSet,
    max_size: int | None = None,
    premises: Iterable[Poset] | None = None,
    budget: int = DEFAULT_SUBSET_BUDGET,
    cap: int | None = None,
) -> UfgCatalog:
    """Grow ufg families one pool order at a time, starting from every pair.

    A family is a sorted tuple of pool indices, as in the catalog.  Each
    ufg family of size m is extended by every pool order it lacks, and
    the child is opened only from its canonical parent, its first ufg
    leave-one-out subfamily removing members in canonical order (the
    rule of :func:`ufgkit.connectedness.has_predecessor`).  This is
    reverse search (Avis & Fukuda 1996): each child of a ufg family is
    opened once, with no record of the families seen.  An opened child
    gets the prefilter of the exhaustive tree and, when it passes, the
    witness kernel; the budget counts the children that pass.
    Completeness rests on the connectedness property of ufg families,
    which this package verifies rather than assumes; run the exhaustive
    strategy next to it when the guarantee matters.
    """
    pool, max_size = _resolve_pool(ground, premises, cap, max_size)
    catalog = UfgCatalog(ground, pool, "connected", max_size)
    start = time.perf_counter()
    # the ufg families of one size; the first level holds every single
    # order, so every pair is opened, and two distinct orders always
    # pass the prefilter
    level = {(i,) for i in range(len(pool))}
    for _ in range(1, max_size):
        grown: set[tuple[int, ...]] = set()
        for family in level:
            for k in range(len(pool)):
                pos = bisect(family, k)
                if pos and family[pos - 1] == k:
                    continue
                child = family[:pos] + (k,) + family[pos:]
                # family is the child without child[pos]; an earlier
                # leave-one-out subfamily in the level is the parent instead
                if any(child[:j] + child[j + 1:] in level for j in range(pos)):
                    continue
                if catalog.test(child) and catalog.get(child) is not None:
                    grown.add(child)
                if catalog.stats["families_tested"] > budget:
                    raise CombinatorialBudgetExceeded(
                        f"extension tests exceed the budget {budget}"
                    )
        level = grown
    catalog.stats["elapsed_seconds"] = time.perf_counter() - start
    return catalog


def explain_not_ufg(S: Iterable[Poset]) -> dict:
    """Re-checkable account of why a family is not union-free generic.

    Returns a dict whose values may contain Poset objects; the JSON
    layer renders them.  Raises :class:`UfgkitError` when the family has
    a witness, since then there is nothing to explain.
    """
    members = canonical_family(S)
    if len(members) < 2:
        return {
            "ufg": False,
            "reason": "a single order is closed already: the closure adds nothing",
        }
    if next(_witness_bits(members), None) is not None:
        raise UfgkitError("the family is union-free generic: it has a witness")
    member_bits = {m.bits for m in members}
    outside = [q for q in gamma_interval(members).posets() if q.bits not in member_bits]
    if not outside:
        return {
            "ufg": False,
            "reason": "not generic: the closure holds no order beyond the family",
        }
    bits_list = [m.bits for m in members]
    loo = list(zip(*_loo_and_or(bits_list, members[0].ground.full_bits)))
    blockers = []
    for q in outside:
        i = _blocker(q.bits, loo)
        if i is not None:
            blockers.append({"candidate": q, "covered_without": members[i]})
    return {
        "ufg": False,
        "reason": (
            "not union-free: every closure order outside the family already "
            "lies in a leave-one-out closure"
        ),
        "blockers": blockers,
    }
