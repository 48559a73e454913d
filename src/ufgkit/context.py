"""The attribute context over all partial orders of a ground set.

Each ordered pair (i, j), i != j, contributes two scaled attributes:
``leq(i,j)`` holds for an order that contains the pair, ``nleq(i,j)``
for one that does not.  The induced closure of a family of orders is
the interval between their intersection and their union; the explicit
derivation operators, the independent route to the same sets, live in
:mod:`ufgkit.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from .errors import (
    EmptyFamily,
    IndexOutOfRange,
    FamilyTooSmall,
    MemberNotInFamily,
    MixedGroundSets,
    ReflexivePairRejected,
)
from .orders import (
    BinaryRelation,
    GroundSet,
    Poset,
    PosetInterval,
    _iter_bits,
    canonical_family,
)

LEQ = "leq"
NLEQ = "nleq"


@dataclass(frozen=True, order=True)
class Attribute:
    """A scaled statement about one ordered pair of items."""

    kind: str
    i: int
    j: int

    def __post_init__(self):
        if self.kind not in (LEQ, NLEQ):
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        if self.i == self.j:
            raise ReflexivePairRejected("attributes only exist for distinct items")
        if self.i < 0 or self.j < 0:
            raise IndexOutOfRange("negative item index")

    def text(self, ground: GroundSet) -> str:
        self._check_range(ground)
        return f"{self.kind}({ground.label(self.i)},{ground.label(self.j)})"

    def _check_range(self, ground: GroundSet) -> None:
        if self.i >= ground.size or self.j >= ground.size:
            raise IndexOutOfRange(
                f"attribute pair ({self.i},{self.j}) is out of range for size {ground.size}"
            )


def all_attributes(ground: GroundSet) -> list[Attribute]:
    """Every attribute of the context: 2 * N * (N-1) of them."""
    n = ground.size
    out = []
    for kind in (LEQ, NLEQ):
        for i in range(n):
            for j in range(n):
                if i != j:
                    out.append(Attribute(kind, i, j))
    return out


def gamma_interval(S: Iterable[Poset]) -> PosetInterval:
    """Closure of a nonempty family, as the interval form."""
    members = list(S)  # AND and OR ignore member order and duplicates
    if not members:
        raise EmptyFamily("the family has no members")
    ground = members[0].ground
    lower, upper = ground.full_bits, 0
    for m in members:
        if m.ground is not ground and m.ground != ground:
            raise MixedGroundSets("family members live on different ground sets")
        lower &= m.bits
        upper |= m.bits
    # an AND of same-ground orders is an order: no constructor checks needed
    new = object.__new__
    iv, low, up = new(PosetInterval), new(Poset), new(BinaryRelation)
    low.ground, low.bits = ground, lower
    up.ground, up.bits = ground, upper
    iv.lower, iv.upper, iv.outside = low, up, ()
    return iv


@dataclass(frozen=True)
class DistinguishingSet:
    """Attributes one member lacks while every other member has them.

    With a restriction order ``restriction`` present, the attributes must
    also fail for it.
    """

    member: Poset
    attributes: frozenset[Attribute]
    restriction: Poset | None = None


def _loo_and_or(bits_list: list[int], full: int) -> list[tuple[int, int]]:
    """Leave-one-out closures as ``(and, or)`` pairs, pair i the AND and OR
    of every member but member i, in a forward and a backward pass."""
    loo = []
    acc_and, acc_or = full, 0
    for b in bits_list:
        loo.append((acc_and, acc_or))
        acc_and &= b
        acc_or |= b
    acc_and, acc_or = full, 0
    for i in range(len(bits_list) - 1, -1, -1):
        lo, up = loo[i]
        loo[i] = (lo & acc_and, up | acc_or)
        acc_and &= bits_list[i]
        acc_or |= bits_list[i]
    return loo


def _distinguishing_sets(
    members: tuple[Poset, ...], q: Poset | None
) -> list[DistinguishingSet]:
    """Distinguishing sets of every member of a canonical family, in
    member order, from one leave-one-out pass.

    A LEQ attribute qualifies when its pair is missing from the member,
    present in every other member, and (restricted) missing from q; an
    NLEQ attribute when its pair is in the member, in no other member,
    and (restricted) in q.
    """
    ground = members[0].ground
    if q is not None and q.ground != ground:
        raise MixedGroundSets("restriction order lives on a different ground set")
    bits_list = [m.bits for m in members]
    loo = _loo_and_or(bits_list, ground.full_bits)
    out = []
    for m, b, (others_and, others_or) in zip(members, bits_list, loo):
        leq = others_and & ~b
        nleq = b & ~others_or
        if q is not None:
            leq &= ~q.bits
            nleq &= q.bits
        attrs = [Attribute(LEQ, *ground.pair_at(k)) for k in _iter_bits(leq)]
        attrs += [Attribute(NLEQ, *ground.pair_at(k)) for k in _iter_bits(nleq)]
        out.append(DistinguishingSet(m, frozenset(attrs), q))
    return out


def distinguishing(x: Poset, S: Iterable[Poset], q: Poset | None = None) -> DistinguishingSet:
    """Distinguishing attributes of x within S, optionally restricted to q."""
    members = canonical_family(S)
    if len(members) < 2:
        raise FamilyTooSmall("distinguishing attributes need at least two members")
    for d in _distinguishing_sets(members, q):
        if d.member == x:
            return d
    raise MemberNotInFamily(f"{x!r} is not a member of the family")


def partition_distinguishing(
    S: Iterable[Poset], q: Poset | None
) -> tuple[frozenset[Attribute], frozenset[Attribute]]:
    """Union of the members' distinguishing sets, split by attribute kind."""
    members = canonical_family(S)
    if len(members) < 2:
        raise FamilyTooSmall("the partition needs at least two members")
    attrs = [m for d in _distinguishing_sets(members, q) for m in d.attributes]
    return (
        frozenset(m for m in attrs if m.kind == LEQ),
        frozenset(m for m in attrs if m.kind == NLEQ),
    )
