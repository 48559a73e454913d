"""The attribute context over all partial orders of a ground set.

Each ordered pair (i, j), i != j, contributes two scaled attributes:
``leq(i,j)`` holds for an order that contains the pair, ``nleq(i,j)``
for one that does not.  The induced closure of a family of orders is
the interval between their intersection and their union; the explicit
derivation operators below exist as the independent route to the same
sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator

from .errors import (
    EmptyFamily,
    GroundSetTooLarge,
    IndexOutOfRange,
    InconsistentAttributes,
    FamilyTooSmall,
    MemberNotInFamily,
    MixedGroundSets,
    NotAntisymmetric,
    ObjectNotInContext,
    ReflexivePairRejected,
)
from .orders import (
    CAP_ENV_VAR,
    BinaryRelation,
    GroundSet,
    Poset,
    PosetInterval,
    canonical_family,
    canonical_key,
    enumerate_all_posets,
    resolve_cap,
    transitive_closure,
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


def incidence(p: Poset, m: Attribute) -> bool:
    """Whether the order has the attribute."""
    m._check_range(p.ground)
    present = p.has_pair(m.i, m.j)
    return present if m.kind == LEQ else not present


class _AllPosets:
    """Sentinel: the context objects are all partial orders."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ALL_POSETS"


ALL_POSETS = _AllPosets()


class FormalContext:
    """Objects (orders) against scaled pair attributes.

    ``objects`` is either the :data:`ALL_POSETS` sentinel, in which case
    incidence is computed and never stored, or an explicit duplicate-free
    sample of orders (used when premises come from observed data).
    """

    def __init__(self, ground: GroundSet, objects=ALL_POSETS, cap: int | None = None):
        self.ground = ground
        self.cap = cap
        if objects is ALL_POSETS:
            self.objects = ALL_POSETS
        else:
            members = tuple(objects)
            seen = set()
            for p in members:
                if p.ground != ground:
                    raise MixedGroundSets("context object on a different ground set")
                key = canonical_key(p)
                if key in seen:
                    raise ValueError("explicit context objects must be duplicate-free")
                seen.add(key)
            self.objects = tuple(sorted(members, key=canonical_key))

    @property
    def is_universal(self) -> bool:
        return self.objects is ALL_POSETS

    def contains_object(self, p: Poset) -> bool:
        if p.ground != self.ground:
            return False
        if self.is_universal:
            return True
        return any(q.bits == p.bits for q in self.objects)

    def iter_objects(self) -> Iterator[Poset]:
        if self.is_universal:
            return enumerate_all_posets(self.ground, self.cap)
        return iter(self.objects)


def psi(A: Iterable[Poset], ctx: FormalContext) -> frozenset[Attribute]:
    """Attributes shared by every order in A; all of them for empty A."""
    members = list(A)
    ground = ctx.ground
    if not members:
        return frozenset(all_attributes(ground))
    for g in members:
        if not ctx.contains_object(g):
            raise ObjectNotInContext(f"{g!r} is not an object of the context")
    inter = ground.full_bits
    union = 0
    for g in members:
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
    predicate; materialization is explicit because the full object space
    explodes with the ground size.
    """

    __slots__ = ("ctx", "required_bits", "forbidden_bits")

    def __init__(self, ctx: FormalContext, required_bits: int, forbidden_bits: int):
        self.ctx = ctx
        self.required_bits = required_bits
        self.forbidden_bits = forbidden_bits

    @property
    def required_pairs(self) -> frozenset[tuple[int, int]]:
        return BinaryRelation(self.ctx.ground, self.required_bits).pairs

    @property
    def forbidden_pairs(self) -> frozenset[tuple[int, int]]:
        return BinaryRelation(self.ctx.ground, self.forbidden_bits).pairs

    def contains(self, p: Poset) -> bool:
        if p.ground != self.ctx.ground:
            raise MixedGroundSets("query poset lives on a different ground set")
        if not self.ctx.contains_object(p):
            return False
        return not (self.required_bits & ~p.bits) and not (p.bits & self.forbidden_bits)

    def materialize(self) -> tuple[Poset, ...]:
        """Explicit extent in canonical order.

        Raises :class:`InconsistentAttributes` when a pair is both
        required and forbidden (the extent is empty in that case).
        """
        ground = self.ctx.ground
        if self.required_bits & self.forbidden_bits:
            raise InconsistentAttributes(
                "a pair is both required (leq) and forbidden (nleq); the extent is empty"
            )
        if not self.ctx.is_universal:
            return tuple(p for p in self.ctx.objects if self.contains(p))
        limit = resolve_cap(self.ctx.cap)
        if ground.size > limit:
            raise GroundSetTooLarge(
                f"materializing over all orders of {ground.size} items exceeds "
                f"the cap {limit} (env {CAP_ENV_VAR} raises it)"
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


def phi(B: Iterable[Attribute], ctx: FormalContext) -> PhiExtent:
    """Constraint form of the common objects of an attribute set."""
    ground = ctx.ground
    required = 0
    forbidden = 0
    for m in B:
        m._check_range(ground)
        k = ground.pair_index(m.i, m.j)
        if m.kind == LEQ:
            required |= 1 << k
        else:
            forbidden |= 1 << k
    return PhiExtent(ctx, required, forbidden)


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


def gamma_explicit(S: Iterable[Poset], ctx: FormalContext) -> frozenset[Poset]:
    """Closure computed the long way round, through both derivations.

    Exists as the independent oracle for the interval shortcut; only
    meaningful when the context objects are all partial orders.
    """
    if not ctx.is_universal:
        raise ValueError("explicit closure requires the universal object space")
    members = list(S)
    if not members:
        raise EmptyFamily("the family has no members")
    return frozenset(phi(psi(members, ctx), ctx).materialize())


def implication_valid(
    Y: Iterable[Poset],
    Z: Iterable[Poset],
    ctx: FormalContext | None = None,
    debug: bool = False,
) -> bool:
    """Whether the closure of Y contains the closure of Z.

    Decided through interval bounds; with ``debug`` the materialized
    closures are compared as well (small ground sets only).
    """
    y_members = canonical_family(Y)
    z_members = list(Z)
    if not z_members:
        return True  # nothing to imply
    iv_y = gamma_interval(y_members)
    iv_z = gamma_interval(z_members)
    if iv_y.lower.ground != iv_z.lower.ground:
        raise MixedGroundSets("premise and conclusion on different ground sets")
    ok = not (iv_y.lower.bits & ~iv_z.lower.bits) and not (
        iv_z.upper.bits & ~iv_y.upper.bits
    )
    if debug:
        check_ctx = ctx if ctx is not None else FormalContext(iv_y.lower.ground)
        explicit = gamma_explicit(z_members, check_ctx) <= gamma_explicit(
            y_members, check_ctx
        )
        assert ok == explicit, "interval decision disagrees with explicit closures"
    return ok


@dataclass(frozen=True)
class DistinguishingSet:
    """Attributes one member lacks while every other member has them.

    With a restriction order ``restriction`` present, the attributes must
    also fail for it.
    """

    member: Poset
    attributes: frozenset[Attribute]
    restriction: Poset | None = None

    @property
    def nonempty(self) -> bool:
        return bool(self.attributes)


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
