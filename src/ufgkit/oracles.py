"""Independent routes to what the library decides the short way.

Nothing in the library calls these: they exist so that the tests, and
``closure --oracle`` / ``check-ufg --debug`` on the command line, can
check the interval closure and the witness scan against answers reached
another way.  The closure route goes through the explicit derivation
operators of the attribute context a ground set fixes, whose objects
are all partial orders of it; the two deciders go through per-member
distinguishing attributes and through the two defining conditions,
genericity and materialized proper-subset closures.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations, islice

from .context import LEQ, NLEQ, Attribute, _distinguishing_sets, gamma_interval
from .errors import (
    EmptyFamily,
    InconsistentAttributes,
    MixedGroundSets,
    NotAntisymmetric,
    ObjectNotInContext,
)
from .orders import (
    BinaryRelation,
    GroundSet,
    Poset,
    PosetInterval,
    canonical_family,
    transitive_closure,
)


def incidence(p: Poset, m: Attribute) -> bool:
    """Whether the order has the attribute."""
    m._check_range(p.ground)
    present = p.has_pair(m.i, m.j)
    return present if m.kind == LEQ else not present


def psi(A: Iterable[Poset], ground: GroundSet) -> frozenset[Attribute]:
    """Attributes shared by every order in A; all of them for empty A."""
    inter, union = ground.full_bits, 0
    for g in A:
        if g.ground != ground:
            raise ObjectNotInContext(f"{g!r} is not an object of the context")
        inter &= g.bits
        union |= g.bits
    attrs = []
    for k in range(ground.pair_count):
        i, j = ground.pair_at(k)
        if (inter >> k) & 1:
            attrs.append(Attribute(LEQ, i, j))
        if not ((union >> k) & 1):
            attrs.append(Attribute(NLEQ, i, j))
    return frozenset(attrs)


class PhiExtent:
    """Lazy description of the orders that carry a set of attributes.

    LEQ attributes become required pairs, NLEQ attributes forbidden
    pairs.  The extent is used almost exclusively through the membership
    predicate; materialization walks the interval of orders between the
    required pairs and every pair not forbidden.
    """

    __slots__ = ("ground", "required_bits", "forbidden_bits")

    def __init__(self, ground: GroundSet, required_bits: int, forbidden_bits: int):
        self.ground = ground
        self.required_bits = required_bits
        self.forbidden_bits = forbidden_bits

    def contains(self, p: Poset) -> bool:
        if p.ground != self.ground:
            raise MixedGroundSets("query poset lives on a different ground set")
        return not (self.required_bits & ~p.bits) and not (p.bits & self.forbidden_bits)

    def materialize(self) -> tuple[Poset, ...]:
        """Explicit extent in canonical order.

        Raises :class:`InconsistentAttributes` when a pair is both
        required and forbidden (the extent is empty in that case).
        """
        ground = self.ground
        if self.required_bits & self.forbidden_bits:
            raise InconsistentAttributes(
                "a pair is both required (leq) and forbidden (nleq); the extent is empty"
            )
        closed = transitive_closure(BinaryRelation(ground, self.required_bits))
        if closed.bits & self.forbidden_bits:
            return ()
        try:
            lower = Poset(ground, closed.bits)
        except NotAntisymmetric:
            return ()  # required pairs force a cycle: nothing qualifies
        upper = BinaryRelation(ground, ground.full_bits & ~self.forbidden_bits)
        return tuple(PosetInterval(lower, upper).posets())


def phi(B: Iterable[Attribute], ground: GroundSet) -> PhiExtent:
    """Constraint form of the common objects of an attribute set."""
    required = 0
    forbidden = 0
    for m in B:
        m._check_range(ground)
        k = ground.pair_index(m.i, m.j)
        if m.kind == LEQ:
            required |= 1 << k
        else:
            forbidden |= 1 << k
    return PhiExtent(ground, required, forbidden)


def gamma_explicit(S: Iterable[Poset]) -> frozenset[Poset]:
    """Closure computed the long way round, through both derivations on
    the context of the members' ground: the independent oracle for the
    interval shortcut."""
    members = list(S)
    if not members:
        raise EmptyFamily("the family has no members")
    ground = members[0].ground
    return frozenset(phi(psi(members, ground), ground).materialize())


def intersect_family(family: Iterable[Poset]) -> Poset:
    """Pairwise intersection of a nonempty family; always a valid poset.

    With :func:`union_family`, the bounds of ``gamma_interval`` taken
    member by member."""
    members = canonical_family(family)
    bits = members[0].bits
    for m in members[1:]:
        bits &= m.bits
    return Poset(members[0].ground, bits)


def union_family(family: Iterable[Poset]) -> BinaryRelation:
    """Pairwise union of a nonempty family; not validated as a poset."""
    members = canonical_family(family)
    bits = 0
    for m in members:
        bits |= m.bits
    return BinaryRelation(members[0].ground, bits)


def implication_valid(Y: Iterable[Poset], Z: Iterable[Poset]) -> bool:
    """Whether the closure of Y contains the closure of Z, decided
    through interval bounds."""
    y_members = canonical_family(Y)
    z_members = list(Z)
    if not z_members:
        return True  # nothing to imply
    iv_y = gamma_interval(y_members)
    iv_z = gamma_interval(z_members)
    if iv_y.lower.ground != iv_z.lower.ground:
        raise MixedGroundSets("premise and conclusion on different ground sets")
    return not (iv_y.lower.bits & ~iv_z.lower.bits) and not (
        iv_z.upper.bits & ~iv_y.upper.bits
    )


def is_generic(S: Iterable[Poset]) -> bool:
    """Whether the closure of S strictly exceeds S."""
    members = canonical_family(S)
    # every member lies in the closure, so one order more means one outside S
    beyond = islice(gamma_interval(members).posets(), len(members), None)
    return next(beyond, None) is not None


def is_union_free_bruteforce(S: Iterable[Poset]) -> bool:
    """Naive oracle: materialize every proper-subset closure and test cover.

    The union over all nonempty proper subsets dominates every candidate
    family, so covering is possible iff that single union already covers.
    Exponential in the family size; debugging aid only.
    """
    members = canonical_family(S)
    if len(members) == 1:
        return True
    target = {q.bits for q in gamma_interval(members).posets()}
    covered: set[int] = set()
    for size in range(1, len(members)):
        for sub in combinations(members, size):
            covered.update(q.bits for q in gamma_interval(sub).posets())
    return not (target <= covered)


def is_ufg_by_distinguishing(S: Iterable[Poset]) -> Poset | None:
    """Independent decider: first closure member giving every family
    member a nonempty restricted distinguishing set."""
    try:
        members = canonical_family(S)
    except EmptyFamily:
        return None
    if len(members) < 2:
        return None
    for q in gamma_interval(members).posets():
        if all(d.attributes for d in _distinguishing_sets(members, q)):
            return q
    return None
