"""Detection and enumeration of union-free generic families of orders.

A family S is *generic* when its closure holds some order outside S,
and *union-free* when no collection of proper-subset closures covers
the closure of S.  Both together are equivalent to the existence of a
witness order q in the closure of S that escapes every leave-one-out
closure: isotony dominates any covering collection of proper subsets
by the collection {S minus one member}, so those are the only subsets
that ever need checking.

One search at the root of the closure decides whether such a witness
exists (:func:`_decides`); the walk of ``is_ufg``, the witness scan,
goes on from there only to pick the canonical-first witness, which a
certificate records.  The catalog decides on packed matrices, the
layout of :func:`ufgkit.orders._bits_to_matrix`, by the search alone,
and walks a family's certificate with the witness scan only when it is
read.  :mod:`ufgkit.oracles` holds
the independent deciders both are checked against.
"""

from __future__ import annotations

import time
from bisect import bisect
from dataclasses import dataclass
from collections.abc import Iterable
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
    _bits_to_matrix,
    _escape,
    _size_table,
    _SizeTable,
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


def _prefilter(bits_list: list[int], full: int) -> list[tuple[int, int]] | None:
    """The distinguishing prefilter: the family's leave-one-out closures
    as the ``(and, or)`` pairs of :func:`ufgkit.context._loo_and_or`, or
    None when some member keeps no unrestricted distinguishing attribute
    (a pair all other members have and it lacks, or one only it has).

    A member without one lies in the closure of the other members, which
    is then the whole closure: no order escapes it, so there is no witness.
    """
    loo = _loo_and_or(bits_list, full)
    for b, (lo, up) in zip(bits_list, loo):
        if not (lo & ~b or b & ~up):
            return None
    return loo


def _witness_interval(members: tuple[Poset, ...]) -> PosetInterval | None:
    """The closure interval with the leave-one-out closures as ``outside``,
    whose members are the witnesses; None for a singleton or a family the
    prefilter turns away, which have none."""
    if len(members) < 2:
        return None
    loo = _prefilter([m.bits for m in members], members[0].ground.full_bits)
    if loo is None:
        return None
    witnesses = gamma_interval(members)  # a fresh interval: give it the sub-intervals
    witnesses.outside = tuple(loo)
    return witnesses


def is_witness(S: Iterable[Poset], q: Poset) -> bool:
    """Whether q certifies S: inside the closure, outside S and outside
    every leave-one-out closure."""
    members = canonical_family(S)
    if q.ground != members[0].ground:
        raise MixedGroundSets("witness candidate on a different ground set")
    witnesses = _witness_interval(members)
    return witnesses is not None and witnesses.contains(q)


@dataclass
class UfgCertificate:
    """Witnessed proof that a family is union-free generic.

    ``family`` is canonically ordered and ``witness`` lies in its closure,
    outside every leave-one-out closure; the members' distinguishing sets
    restricted to the witness are derived from the two, never stored.
    """

    family: tuple[Poset, ...]
    witness: Poset

    @property
    def size(self) -> int:
        return len(self.family)

    def distinguishing(self) -> list[DistinguishingSet]:
        """Each member's distinguishing set restricted to the witness, in
        member order, from one leave-one-out pass."""
        return _distinguishing_sets(self.family, self.witness)

    def validate(self) -> None:
        """Re-derive every claim; raises AssertionError on any breach, also
        under ``python -O``."""
        if canonical_family(self.family) != self.family:
            raise AssertionError("family is not in canonical order")
        # inside the closure, an order escapes the closure without a member
        # exactly when that member keeps a distinguishing attribute restricted to it
        if not is_witness(self.family, self.witness):
            raise AssertionError("witness fails re-validation")


def _certificate(members: tuple[Poset, ...], witness_bits: int) -> UfgCertificate:
    return UfgCertificate(members, Poset(members[0].ground, witness_bits, check=False))


def _is_ufg_sorted(members: tuple[Poset, ...]) -> UfgCertificate | None:
    """Witness scan over a canonical family; None when no witness exists.
    The witness is the first leaf of :func:`_witness_interval`.  The
    walk's bound is exact, so a family without a witness costs one
    failed search at the walk's root and no walk step."""
    witnesses = _witness_interval(members)
    q = None if witnesses is None else next(witnesses.posets(), None)
    return None if q is None else _certificate(members, q.bits)


def _decides(
    table: _SizeTable, lower: int, upper: int, loo: list[tuple[int, int]]
) -> bool:
    """Whether a family of two or more orders is union-free generic, from
    its closure ``[lower, upper]`` and its leave-one-out closures ``loo``
    as ``(and, or)`` pairs, all packed matrices as by
    :func:`ufgkit.orders._bits_to_matrix`; ``table`` is the item count's
    step table.

    One :func:`ufgkit.orders._escape` search from the closure's root, on
    ``loo`` as given, decides it exactly: by that search's lemma it finds
    an order of ``[lower, upper]`` in no leave-one-out closure exactly
    when one exists.  Such an order is a witness: it is no member, since
    each member lies in the closure of the family without any other
    member.  The walk of :func:`_is_ufg_sorted` starts with the same
    search and adds only the choice of the canonical-first witness.
    """
    return _escape(lower, upper, loo, table) is not None


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
    return _prefilter(bits_list, p.ground.full_bits) is not None


class UfgCatalog:
    """All union-free generic families found by one enumeration run.

    ``pool`` is a canonical family of orders, and a family is a sorted
    tuple of pool indices: canonical too, since the pool is, and ordered
    among families of its size as its canonical keys are.  ``step`` is the
    one step that decides a family, for both enumerators and for the
    falsification trials: from a family's state, its key beside its
    leave-one-out closures, and a pool index, it returns the child's
    state, so no caller builds a key.  ``singleton`` is that for one order.

    The catalog works in the matrix layout of
    :func:`ufgkit.orders._bits_to_matrix`: each pool order is unpacked
    once, here, and the leave-one-out ``(and, or)`` pairs ``step`` takes
    and returns are packed matrices, so the kernel unpacks nothing per
    decision.  The layout is a permutation of the pair bits, so AND, OR
    and subset tests, and with them the prefilter, mean the same in it.
    ``singleton`` pairs the full relation with the empty one as matrices.

    ``step`` decides a family by the root search :func:`_decides` and
    keeps nothing but ``stats``; callers ``add`` the families they keep.
    One added without a certificate has it walked by the witness scan
    :func:`_is_ufg_sorted` when ``get`` or ``certificates`` first reads
    it, and kept; ``in`` and the key methods walk nothing.
    """

    def __init__(self, ground: GroundSet, pool: tuple[Poset, ...], max_size: int):
        self.ground = ground
        self.pool = pool
        self.max_size = max_size
        self._table = _size_table(ground.size)
        self._matrices = [_bits_to_matrix(ground, p.bits) for p in pool]
        self.singleton = [(_bits_to_matrix(ground, ground.full_bits), 0)]
        # each family to its certificate, None until it is first read
        self._families: dict[tuple[int, ...], UfgCertificate | None] = {}
        self.stats: dict[str, object] = {
            "families_tested": 0,
            "filter_rejections": 0,
            "elapsed_seconds": 0.0,
        }

    def add(self, family: tuple[int, ...], cert: UfgCertificate | None = None) -> None:
        """Keep a ufg family; a None ``cert`` is walked on first read."""
        self._families[family] = cert

    def step(
        self,
        family: tuple[int, ...],
        loo: list[tuple[int, int]],
        k: int,
    ) -> tuple[tuple[int, ...], list[tuple[int, int]], bool] | None:
        """Decide the child ``family`` plus pool index ``k`` and return
        its state and verdict: its key, sorted, its leave-one-out closures
        as ``(and, or)`` pairs, and whether it is ufg.  None when the
        distinguishing prefilter turns the child away.

        ``loo`` is the parent's list, pair i ``(A_i, O_i)`` the AND and OR
        of every member but member i; ``b_i`` is member i's matrix and
        ``b_k`` the new order's.  Pairs and members are packed matrices
        (see the class), on which every test below reads as on pair bits.
        Adding one order only meets it into each AND and joins it into
        each OR:

        - member i keeps ``(A_i & b_k, O_i | b_k)``;
        - the new member gets the parent's whole AND and OR,
          ``(A_0 & b_0, O_0 | b_0)``.

        So the prefilter needs no pass over the child.  Member i keeps a
        distinguishing attribute when ``A_i & b_k & ~b_i or b_i & ~O_i &
        ~b_k``, and the new member when ``AND & ~b_k or b_k & ~OR``; the
        test runs before any list or key is built, since most children
        fail it.  The child's closure ``[AND & b_k, OR | b_k]`` and its
        list go to the root search :func:`_decides` unchanged; the upper
        bound is the search's ``allowed`` matrix as it stands.  The step
        stores nothing: ``stats`` count both outcomes.  It costs O(m) for
        a parent of m members, before the search.
        """
        matrices = self._matrices
        bk = matrices[k]
        lo0, up0 = loo[0]
        b0 = matrices[family[0]]
        whole_and, whole_or = lo0 & b0, up0 | b0
        if not (whole_and & ~bk or bk & ~whole_or):
            self.stats["filter_rejections"] += 1
            return None
        not_bk = ~bk
        for i, (lo, up) in zip(family, loo):
            b = matrices[i]
            if not (lo & bk & ~b or b & ~up & not_bk):
                self.stats["filter_rejections"] += 1
                return None
        pos = bisect(family, k)
        child = family[:pos] + (k,) + family[pos:]
        loo = [(lo & bk, up | bk) for lo, up in loo]
        loo.insert(pos, (whole_and, whole_or))
        self.stats["families_tested"] += 1
        return child, loo, _decides(self._table, whole_and & bk, whole_or | bk, loo)

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, family: tuple[int, ...]) -> bool:
        return family in self._families

    def get(self, family: tuple[int, ...]) -> UfgCertificate | None:
        """The certificate of a family the catalog holds, walked on its
        first read; None for a family it does not hold."""
        cert = self._families.get(family)
        if cert is None and family in self._families:
            cert = self._families[family] = _is_ufg_sorted(tuple(self.pool[i] for i in family))
        return cert

    def keys(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self._families)

    def families(self) -> list[tuple[int, ...]]:
        """Every family, by size and then in canonical order."""
        return sorted(self._families, key=lambda k: (len(k), k))

    def certificates(self) -> list[UfgCertificate]:
        return [self.get(k) for k in self.families()]

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
        pool = self.pool
        return {tuple(pool[i].bits for i in k) for k in self._families}


def _resolve_pool(
    ground: GroundSet,
    premises: Iterable[Poset] | None,
    max_size: int | None,
) -> tuple[tuple[Poset, ...], int]:
    """The canonical pool and the largest family size worth walking in it:
    the premises, or every order on the ground under the size cap."""
    if premises is None:
        pool = tuple(enumerate_all_posets(ground))
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
) -> UfgCatalog:
    """Every ufg family of at most ``max_size`` pool orders, found by
    walking subsets of the pool as a set-enumeration tree (Rymon 1992).
    The pool is ``premises``, or every order on the ground under the size
    cap; a caller that lifts the cap passes the orders it enumerated.

    A family is a sorted tuple of pool indices and is extended only by
    pool orders after its last member, so each subset is reached at most
    once.  The distinguishing prefilter is hereditary: adding members
    only shrinks the others' AND and grows their OR, so a member that
    keeps no distinguishing attribute keeps none in any superset, and no
    superset is ufg (the Apriori rule of Agrawal & Srikant 1994).  A
    family failing it is neither tested nor extended; every other family
    of two or more members goes to the root search.  The budget still
    counts every subset up to ``max_size``.  ``stats`` record the
    families tested and the subtrees pruned.  The tests and
    ``bench/make_references.py`` check the tree against deciding every
    subset.
    """
    pool, max_size = _resolve_pool(ground, premises, max_size)
    planned = sum(comb(len(pool), k) for k in range(2, max_size + 1))
    if planned > budget:
        raise CombinatorialBudgetExceeded(
            f"{planned} subsets to test exceed the budget {budget}"
        )
    catalog = UfgCatalog(ground, pool, max_size)
    start = time.perf_counter()
    # each family beside its leave-one-out closures, as the step returns them
    stack = [((i,), catalog.singleton) for i in range(len(pool))] if max_size >= 2 else []
    while stack:
        family, loo = stack.pop()
        for k in range(family[-1] + 1, len(pool)):
            state = catalog.step(family, loo, k)
            if state is not None:
                if state[2]:
                    catalog.add(state[0])
                if len(family) + 1 < max_size:
                    stack.append(state[:2])
    catalog.stats["elapsed_seconds"] = time.perf_counter() - start
    return catalog


def enumerate_ufg_connected(
    ground: GroundSet,
    max_size: int | None = None,
    premises: Iterable[Poset] | None = None,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> UfgCatalog:
    """Grow ufg families one pool order at a time, starting from every pair;
    the pool is that of :func:`enumerate_ufg_exhaustive`.

    A family is a sorted tuple of pool indices, as in the catalog.  Each
    ufg family of size m is extended by every pool order it lacks, and
    the child is opened only from its canonical parent, its first ufg
    leave-one-out subfamily removing members in canonical order (the
    rule of :func:`ufgkit.connectedness.has_predecessor`).  This is
    reverse search (Avis & Fukuda 1996): each child of a ufg family is
    opened once, with no record of the families seen.

    The parent test costs one mask per family.  At each level, ``ext``
    maps each family without one member to the mask of the pool indices
    whose addition gives back a family of the level.  A family opens the
    k outside ``closed``, in ascending order: its members, and for each
    member f the bits above f of ``ext[family - f]``.  That is the rule,
    since for a member f < k the earlier subfamily ``child - f`` is
    ``(family - f) + k``, in the level exactly when bit k is in
    ``ext[family - f]``.  An opened child
    gets the prefilter of the exhaustive tree and, when it passes, the
    root search; the budget counts the children that pass.  A level is
    the list of the step's states for its ufg families, kept only while
    another level follows: the last level's closures are dropped at once.
    Completeness rests on the connectedness property of ufg families,
    which this package verifies rather than assumes; run the exhaustive
    strategy next to it when the guarantee matters.
    """
    pool, max_size = _resolve_pool(ground, premises, max_size)
    catalog = UfgCatalog(ground, pool, max_size)
    start = time.perf_counter()
    # the ufg families of one size, each beside its leave-one-out closures;
    # the first level holds every single order, so every pair is opened,
    # and two distinct orders always pass the prefilter
    level = [((i,), catalog.singleton) for i in range(len(pool))]
    everything = (1 << len(pool)) - 1
    for size in range(1, max_size):
        ext: dict[tuple[int, ...], int] = {}
        for family, _ in level:
            for j, f in enumerate(family):
                rest = family[:j] + family[j + 1:]
                ext[rest] = ext.get(rest, 0) | 1 << f
        grown = []  # filled only while another level follows
        for family, loo in level:
            closed = 0
            for j, f in enumerate(family):
                closed |= 1 << f | ext[family[:j] + family[j + 1:]] >> (f + 1) << (f + 1)
            opened = everything & ~closed
            while opened:
                k = (opened & -opened).bit_length() - 1
                opened &= opened - 1
                state = catalog.step(family, loo, k)
                if state is not None and state[2]:
                    catalog.add(state[0])
                    if size + 1 < max_size:
                        grown.append(state[:2])
                if catalog.stats["families_tested"] > budget:
                    raise CombinatorialBudgetExceeded(
                        f"extension tests exceed the budget {budget}"
                    )
        level = grown
    catalog.stats["elapsed_seconds"] = time.perf_counter() - start
    return catalog


# every reason :func:`_not_ufg_reason` gives
NOT_UFG_REASONS = (
    "a single order is closed already: the closure adds nothing",
    "not generic: the closure holds no order beyond the family",
    "not union-free: every closure order outside the family already "
    "lies in a leave-one-out closure",
)
_SINGLE_ORDER, _NOT_GENERIC, _NOT_UNION_FREE = NOT_UFG_REASONS


def _not_ufg_reason(members: tuple[Poset, ...]) -> str:
    """Why a canonical family without a witness is not union-free
    generic, in bounded work.

    The closure is walked only to its first order outside the family, at
    most m + 1 leaves for m members.  Such an order makes the family
    generic, so with no witness it is not union-free; without one the
    family is not generic.  The caller has decided that no witness
    exists: this looks for none.
    """
    if len(members) < 2:
        return _SINGLE_ORDER
    bits = {m.bits for m in members}
    beyond = next((q for q in gamma_interval(members).posets() if q.bits not in bits), None)
    if beyond is None:
        return _NOT_GENERIC
    return _NOT_UNION_FREE


def explain_not_ufg(S: Iterable[Poset]) -> dict:
    """Re-checkable account of why a family is not union-free generic:
    the reason of :func:`_not_ufg_reason` and, for a family that is not
    union-free, every blocker, from one walk of the whole closure, which
    the trail of a connectedness violation records.

    Returns a dict whose values may contain Poset objects; the JSON
    layer renders them.  Raises :class:`UfgkitError` when the family has
    a witness, since then there is nothing to explain.
    """
    members = canonical_family(S)
    reason = _not_ufg_reason(members)  # a family with a witness is generic
    if reason != _NOT_UNION_FREE:
        return {"ufg": False, "reason": reason}
    bits_list = [m.bits for m in members]
    loo = _loo_and_or(bits_list, members[0].ground.full_bits)
    blockers = []
    for q in gamma_interval(members).posets():
        if q.bits in bits_list:
            continue
        i = _blocker(q.bits, loo)
        if i is None:  # a non-member in no leave-one-out closure: a witness
            raise UfgkitError("the family is union-free generic: it has a witness")
        blockers.append({"candidate": q, "covered_without": members[i]})
    return {"ufg": False, "reason": reason, "blockers": blockers}
