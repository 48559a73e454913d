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


def parse_attribute(ground: GroundSet, text: str) -> Attribute:
    """Inverse of :meth:`Attribute.text` for the ``kind(a,b)`` form."""
    for kind in (LEQ, NLEQ):
        head = kind + "("
        if text.startswith(head) and text.endswith(")"):
            inner = text[len(head):-1]
            # labels may themselves contain commas: try every split
            for pos in range(len(inner)):
                if inner[pos] != ",":
                    continue
                a, b = inner[:pos], inner[pos + 1:]
                if a in ground.labels and b in ground.labels:
                    return Attribute(kind, ground.index(a), ground.index(b))
    raise ValueError(f"cannot parse attribute {text!r}")


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
    members = canonical_family(S)
    ground = members[0].ground
    lower, upper = ground.full_bits, 0
    for m in members:
        lower &= m.bits
        upper |= m.bits
    # an intersection of orders is an order: no validation needed
    return PosetInterval(Poset(ground, lower, check=False), BinaryRelation(ground, upper))


@dataclass(frozen=True)
class DistinguishingSet:
    """Attributes one member lacks while every other member has them.

    With a restriction order ``restriction`` present, the attributes must
    also fail for it.
    """

    member: Poset
    attributes: frozenset[Attribute]
    restriction: Poset | None = None


def _loo_and_or(bits_list: list[int], full: int) -> tuple[list[int], list[int]]:
    """Per-index AND / OR over all *other* members, in a forward and a backward pass."""
    others_and: list[int] = []
    others_or: list[int] = []
    acc_and, acc_or = full, 0
    for b in bits_list:
        others_and.append(acc_and)
        others_or.append(acc_or)
        acc_and &= b
        acc_or |= b
    acc_and, acc_or = full, 0
    for i in range(len(bits_list) - 1, -1, -1):
        others_and[i] &= acc_and
        others_or[i] |= acc_or
        acc_and &= bits_list[i]
        acc_or |= bits_list[i]
    return others_and, others_or


def _distinguishing_masks(
    x_bits: int, others_and: int, others_or: int, q_bits: int | None, full: int
) -> tuple[int, int]:
    """Packed LEQ / NLEQ distinguishing pair positions for one member."""
    leq = others_and & ~x_bits
    nleq = x_bits & ~others_or
    if q_bits is not None:
        leq &= ~q_bits
        nleq &= q_bits
    return leq & full, nleq & full


def distinguishing(x: Poset, S: Iterable[Poset], q: Poset | None = None) -> DistinguishingSet:
    """Distinguishing attributes of x within S, optionally restricted to q.

    A LEQ attribute qualifies when its pair is missing from x, present in
    every other member, and (restricted) missing from q; an NLEQ attribute
    when its pair is in x, in no other member, and (restricted) in q.
    """
    members = canonical_family(S)
    if len(members) < 2:
        raise FamilyTooSmall("distinguishing attributes need at least two members")
    ground = members[0].ground
    if q is not None and q.ground != ground:
        raise MixedGroundSets("restriction order lives on a different ground set")
    bits_list = [m.bits for m in members]
    if x.ground != ground or x.bits not in bits_list:
        raise MemberNotInFamily(f"{x!r} is not a member of the family")
    pos = bits_list.index(x.bits)
    others_and, others_or = _loo_and_or(bits_list, ground.full_bits)
    leq, nleq = _distinguishing_masks(
        bits_list[pos],
        others_and[pos],
        others_or[pos],
        q.bits if q is not None else None,
        ground.full_bits,
    )
    attrs = set()
    for k in range(ground.pair_count):
        i, j = ground.pair_at(k)
        if (leq >> k) & 1:
            attrs.add(Attribute(LEQ, i, j))
        if (nleq >> k) & 1:
            attrs.add(Attribute(NLEQ, i, j))
    return DistinguishingSet(members[pos], frozenset(attrs), q)


def partition_distinguishing(
    S: Iterable[Poset], q: Poset | None
) -> tuple[frozenset[Attribute], frozenset[Attribute]]:
    """Union of the members' distinguishing sets, split by attribute kind."""
    members = canonical_family(S)
    if len(members) < 2:
        raise FamilyTooSmall("the partition needs at least two members")
    d_leq: set[Attribute] = set()
    d_nleq: set[Attribute] = set()
    for x in members:
        for m in distinguishing(x, members, q).attributes:
            (d_leq if m.kind == LEQ else d_nleq).add(m)
    return frozenset(d_leq), frozenset(d_nleq)
