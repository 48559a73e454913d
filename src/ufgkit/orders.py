"""Finite strict partial orders as packed bit relations.

A relation on a ground set of ``N`` labelled items is stored by its
strict part only: bit ``k`` of an integer says whether the ordered pair
at row-major off-diagonal position ``k`` is present.  Reflexive pairs
are implicit everywhere, which turns antisymmetry into asymmetry and
makes subset tests, intersections and unions single integer operations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cache

from .errors import (
    DuplicateLabel,
    EmptyFamily,
    EmptyGroundSet,
    GroundSetTooLarge,
    IndexOutOfRange,
    MixedGroundSets,
    NotAntisymmetric,
    NotTransitive,
    ReflexivePairRejected,
    UnknownLabel,
)

DEFAULT_GROUND_CAP = 6
CLOSED_ITEMS = 4  # closures memoised up to this item count: 2**12 relations on 4 items


class GroundSet:
    """Ordered universe of distinct item labels underlying every relation."""

    __slots__ = ("labels", "_index", "pair_count", "full_bits")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise EmptyGroundSet("a ground set needs at least one item")
        index: dict[str, int] = {}
        for pos, name in enumerate(labels):
            if name in index:
                raise DuplicateLabel(f"label {name!r} appears twice")
            index[name] = pos
        self.labels = labels
        self._index = index
        self.pair_count = len(labels) * (len(labels) - 1)
        self.full_bits = (1 << self.pair_count) - 1  # the complete off-diagonal relation

    @classmethod
    def numbered(cls, n: int) -> "GroundSet":
        if n < 1:
            raise EmptyGroundSet("a ground set needs at least one item")
        return cls(f"x{i}" for i in range(1, n + 1))

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"label {label!r} is not in the ground set") from None

    def label(self, i: int) -> str:
        return self.labels[i]

    def pair_index(self, i: int, j: int) -> int:
        """Row-major position of the ordered pair (i, j), i != j."""
        return i * (len(self.labels) - 1) + (j if j < i else j - 1)

    def pair_at(self, k: int) -> tuple[int, int]:
        n1 = len(self.labels) - 1
        i, r = divmod(k, n1)
        return i, (r if r < i else r + 1)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"GroundSet({list(self.labels)!r})"


def _iter_bits(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class _SizeTable:
    """The constants of the hot routines that depend only on the item count
    n.  Matrices are packed row-major: bit ``i*n + j`` says i reaches j.
    Matrix bit order is pair-position order with the diagonal left out,
    so the layout is a permutation of the pair bits: AND, OR and subset
    tests mean the same in both.

    The walk steps hold O(n**4) bits in all, so they are filled on first
    use, one matrix cell at a time, by :meth:`step`, and ``cells`` whole
    on first read.  A walk on a wide ground builds only the rows of the
    pairs it meets.

    ``closed`` memoises ``random_poset``: a drawn relation, as a matrix,
    maps to its closed order as (canonical key, pair bits), or to ``()``
    on a cycle.  :meth:`closed_order` stores only on at most ``CLOSED_ITEMS``
    items, where the memo holds all 2**(n*(n-1)) relations; past that,
    draws rarely repeat and nothing is stored.  Threads share it with no
    lock: a value depends on its key alone, and a dict get or set is one
    step under the GIL."""

    __slots__ = ("n", "by_cell", "col0", "row_mask", "shifts", "diagonal", "_cells", "closed")

    def __init__(self, n: int):
        self.n = n
        self.by_cell = [None] * (n * n)  # per matrix bit, see step()
        self.closed = {}  # drawn matrix -> closed order, see closed_order()
        self._cells = None
        self.col0 = ((1 << n * n) - 1) // ((1 << n) - 1)  # bit x*n for every row x
        self.row_mask = (1 << n) - 1
        self.diagonal = sum(1 << i * (n + 1) for i in range(n))
        # per shift s: the matrix bits of the pairs that sit s bits above their
        # pair position, row s left of the diagonal and row s - 1 right of it
        self.shifts = tuple(
            (s, ((1 << s) - 1) << s * n | (self.row_mask >> s << s) << (s - 1) * n)
            for s in range(1, n)
        )

    def step(self, c: int) -> tuple:
        """The walk step of the pair at matrix bit c = i*n + j, i != j: its
        leaf bit (at its pair position), its matrix bit, its reverse's
        matrix bit, and the shifts and bits of its closure update.  Built
        on first use."""
        row = self.by_cell[c]
        if row is None:
            n = self.n
            i, j = divmod(c, n)
            k = i * (n - 1) + (j if j < i else j - 1)
            row = (1 << k, 1 << c, 1 << j * n + i, i, 1 << i * n, j * n, 1 << j)
            self.by_cell[c] = row
        return row

    @property
    def cells(self) -> tuple[int, ...]:
        """The matrix bit of every pair, in pair-position order."""
        if self._cells is None:
            n = self.n
            self._cells = tuple(1 << i * n + j for i in range(n) for j in range(n) if i != j)
        return self._cells

    def closed_order(self, ground: GroundSet, m: int) -> tuple:
        """``closed[m]``, computed, and stored on at most ``CLOSED_ITEMS`` items."""
        c = _close_matrix(m, self.n)
        order = ()  # a cycle in the closure makes its items reach themselves
        if not c & self.diagonal:
            bits = _matrix_to_bits(ground, c)
            order = (_bits_key(bits, ground.pair_count), bits)
        if self.n <= CLOSED_ITEMS:
            self.closed[m] = order
        return order


_size_table = cache(_SizeTable)  # one table per item count


def _bits_to_matrix(ground: GroundSet, bits: int) -> int:
    """Unpack pair-position bits into a reachability matrix whose
    diagonal is 0: one shift and mask per pair shift."""
    m = 0
    for s, cells in _size_table(len(ground.labels)).shifts:
        m |= (bits << s) & cells
    return m


def _matrix_to_bits(ground: GroundSet, m: int) -> int:
    """Pack a reachability matrix back into pair-position bits; the
    diagonal stays implicit."""
    bits = 0
    for s, cells in _size_table(len(ground.labels)).shifts:
        bits |= (m & cells) >> s
    return bits


def _close_matrix(m: int, n: int) -> int:
    """Warshall (1962) on a packed matrix: for each k, every row that
    reaches k takes row k, as one multiply.  Row k has fewer than n bits,
    so the shifted copies never overlap and the product carries nothing."""
    table = _size_table(n)
    col0, row_mask = table.col0, table.row_mask
    for k in range(n):
        m |= ((m >> k) & col0) * ((m >> k * n) & row_mask)
    return m


class BinaryRelation:
    """Arbitrary set of ordered pairs (strict part) on a ground set."""

    __slots__ = ("ground", "bits")

    def __init__(self, ground: GroundSet, bits: int):
        if bits < 0 or bits >> ground.pair_count:
            raise IndexOutOfRange("relation bits exceed the ground set")
        self.ground = ground
        self.bits = bits

    @classmethod
    def from_pairs(cls, ground: GroundSet, pairs: Iterable[tuple[int, int]]):
        n = ground.size
        bits = 0
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise IndexOutOfRange(f"pair ({i},{j}) is out of range for size {n}")
            if i == j:
                raise ReflexivePairRejected(
                    f"pair ({ground.label(i)},{ground.label(i)}) is reflexive"
                )
            bits |= 1 << ground.pair_index(i, j)
        return cls(ground, bits)

    @classmethod
    def from_labels(cls, ground: GroundSet, pairs: Iterable[tuple[str, str]]):
        return cls.from_pairs(
            ground, ((ground.index(a), ground.index(b)) for a, b in pairs)
        )

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.ground.pair_at(k) for k in _iter_bits(self.bits))

    def label_pairs(self) -> list[tuple[str, str]]:
        """Pairs as labels, ordered by packed position."""
        labels, pair_at = self.ground.labels, self.ground.pair_at
        return [(labels[i], labels[j]) for i, j in map(pair_at, _iter_bits(self.bits))]

    def has_pair(self, i: int, j: int) -> bool:
        return bool((self.bits >> self.ground.pair_index(i, j)) & 1)

    def is_subset_of(self, other: "BinaryRelation") -> bool:
        if self.ground != other.ground:
            raise MixedGroundSets("relations live on different ground sets")
        return not (self.bits & ~other.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BinaryRelation)
            and self.ground == other.ground
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.bits))

    def __repr__(self) -> str:
        body = ", ".join(f"{a}<{b}" for a, b in self.label_pairs())
        return f"{type(self).__name__}({{{body}}})"


class Poset(BinaryRelation):
    """Strict part of a partial order: transitive and asymmetric."""

    __slots__ = ()

    def __init__(self, ground: GroundSet, bits: int, check: bool = True):
        super().__init__(ground, bits)
        if check:
            _validate_poset(ground, bits)


def _validate_poset(ground: GroundSet, bits: int) -> None:
    positions = sorted(_iter_bits(bits))
    pairs = [ground.pair_at(k) for k in positions]
    succ: dict[int, list[int]] = {}
    for i, j in pairs:
        succ.setdefault(i, []).append(j)
    for i, j in pairs:
        for k in succ.get(j, ()):
            if k != i and not ((bits >> ground.pair_index(i, k)) & 1):
                raise NotTransitive(ground.label(i), ground.label(j), ground.label(k))
    for i, j in pairs:
        if i < j and (bits >> ground.pair_index(j, i)) & 1:
            raise NotAntisymmetric(ground.label(i), ground.label(j))


def make_poset(ground: GroundSet, pairs: Iterable[tuple[str, str]]) -> Poset:
    """Validate label pairs as the strict part of a partial order.

    Non-transitive input is rejected, not repaired; callers who want the
    repair should apply :func:`transitive_closure` first, explicitly.
    """
    rel = BinaryRelation.from_labels(ground, pairs)
    return Poset(ground, rel.bits)


def empty_poset(ground: GroundSet) -> Poset:
    return Poset(ground, 0, check=False)


def complete_relation(ground: GroundSet) -> BinaryRelation:
    return BinaryRelation(ground, ground.full_bits)


def transitive_closure(rel: BinaryRelation) -> BinaryRelation:
    """Smallest transitive superset of the strict pairs.

    Implied diagonal pairs (from 2-cycles) stay implicit, so the result
    of closing ``{(a,b),(b,a)}`` is the same two pairs; downstream poset
    validation is what rejects the antisymmetry breach.
    """
    closed = _close_matrix(_bits_to_matrix(rel.ground, rel.bits), rel.ground.size)
    return BinaryRelation(rel.ground, _matrix_to_bits(rel.ground, closed))


def canonical_key(rel: BinaryRelation) -> bytes:
    """Injective byte encoding: pair bits in row-major order, MSB first.
    Reads no size table, so keying a family on a wide ground stays cheap."""
    return _bits_key(rel.bits, rel.ground.pair_count)


def _bits_key(bits: int, total: int) -> bytes:
    """:func:`canonical_key` of the pair bits of a relation on ``total`` pairs."""
    # pair k becomes bit k from the top: one reversal of the bit string
    acc = int(format(bits, f"0{total}b")[::-1], 2) << (-total) % 8
    return acc.to_bytes((total + 7) // 8 or 1, "big")


def canonical_family(posets: Iterable[Poset]) -> tuple[Poset, ...]:
    """Deduplicate and sort a family of posets into canonical order."""
    seq = list(posets)
    if not seq:
        raise EmptyFamily("the family has no members")
    ground = seq[0].ground
    by_key: dict[bytes, Poset] = {}
    for p in seq:
        if p.ground is not ground and p.ground != ground:
            raise MixedGroundSets("family members live on different ground sets")
        by_key[canonical_key(p)] = p
    return tuple(by_key[k] for k in sorted(by_key))


class PosetInterval:
    """All posets between a lower poset and an upper relation, minus the
    members of any ``outside`` sub-interval.

    Membership of a poset ``q`` means ``lower.pairs <= q.pairs <= upper.pairs``
    and, for no ``(lo, up)`` in ``outside``, ``lo <= q.bits <= up`` as bit
    sets.  Sub-intervals are given as packed bits and may reach beyond
    ``[lower, upper]`` or be empty.
    """

    __slots__ = ("lower", "upper", "outside")

    def __init__(
        self,
        lower: Poset,
        upper: BinaryRelation,
        outside: Iterable[tuple[int, int]] = (),
    ):
        if lower.ground != upper.ground:
            raise MixedGroundSets("interval bounds live on different ground sets")
        if lower.bits & ~upper.bits:
            raise ValueError("interval lower bound is not contained in the upper bound")
        self.lower = lower
        self.upper = upper
        self.outside = tuple(outside)

    def contains(self, q: Poset) -> bool:
        if q.ground != self.lower.ground:
            raise MixedGroundSets("query poset lives on a different ground set")
        qb = q.bits
        if self.lower.bits & ~qb or qb & ~self.upper.bits:
            return False
        return all(lo & ~qb or qb & ~up for lo, up in self.outside)

    def posets(self) -> Iterator[Poset]:
        """Stream the members in canonical-key order; the lower bound comes
        first unless an ``outside`` sub-interval holds it.  The space of
        all orders is walked a row at a time by :func:`_order_bits`, every
        other interval a pair at a time by :func:`_interval_bits`."""
        ground = self.lower.ground
        if self.outside or self.lower.bits or self.upper.bits != ground.full_bits:
            walk = _interval_bits(ground, self.lower.bits, self.upper.bits, self.outside)
        else:  # the whole order space
            walk = _order_bits(len(ground.labels))
        new = object.__new__  # walk leaves are valid: no __init__ chain
        for bits in walk:
            q = new(Poset)
            q.ground, q.bits = ground, bits
            yield q

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PosetInterval)
            and self.lower == other.lower
            and self.upper == other.upper
            and self.outside == other.outside
        )

    def __hash__(self) -> int:
        return hash((self.lower, self.upper, self.outside))

    def __repr__(self) -> str:
        tail = f", outside={self.outside!r}" if self.outside else ""
        return f"PosetInterval(lower={self.lower!r}, upper={self.upper!r}{tail})"


def _escape(m: int, allowed: int, subs: list[tuple[int, int]], table: _SizeTable) -> int | None:
    """A poset t with ``m <= t <= allowed`` in no sub-interval ``(lo, up)``
    of ``subs``, or None.  All are packed matrices as by
    :func:`_bits_to_matrix`, ``m`` is transitively closed, and ``table``
    is the item count's :class:`_SizeTable`.

    Lemma: such a t exists exactly when one has the form close(m | X),
    for a set X of pairs of ``allowed`` that each lie outside some ``up``.
    Proof: for such a q, take X as its pairs outside some ``up``; then
    close(m | X) <= q lacks whatever ``lo`` pair q lacks, and holds every
    pair that took q outside an ``up``.

    So the search runs depth-first from t = m: it takes the first
    sub-interval t still lies in and branches on its pairs of ``allowed``
    outside ``up``, one of which every such q above t holds.  A branch
    closes t as the walk's include step does and dies on the walk's two
    tests: a cycle, or a pair outside ``allowed``.

    ``subs`` is read as given, with no filter: a sub-interval that cannot
    meet ``[m, allowed]`` holds no t, so the search passes over it.  Nor
    would a filter drop one the package builds: each leave-one-out
    closure of a family with closure ``[AND, OR]`` has ``AND <= A_i <=
    O_i <= OR``, so ``A_i <= OR & O_i`` and ``AND <= O_i``.
    """
    col0, row_mask, by_cell = table.col0, table.row_mask, table.by_cell
    stack = [m]
    while stack:
        t = stack.pop()
        for lo, up in subs:
            if not (lo & ~t or t & ~up):
                break
        else:
            return t
        branch = allowed & ~(t | up)
        while branch:
            low = branch & -branch
            branch ^= low
            c = low.bit_length() - 1
            _, _, back, i, i_row, j_shift, j_col = by_cell[c] or table.step(c)
            if t & back:
                continue  # j reaches i: a cycle
            grown = t | (((t >> i) & col0) | i_row) * (
                ((t >> j_shift) & row_mask) | j_col)
            if not grown & ~allowed:
                stack.append(grown)
    return None


def _interval_bits(
    ground: GroundSet,
    lower_bits: int,
    upper_bits: int,
    outside: Iterable[tuple[int, int]] = (),
) -> Iterator[int]:
    """Yield the bits of every poset in [lower, upper] outside every
    ``outside`` sub-interval, in canonical-key order.  The pair-bit
    arguments are unpacked once, the bounds to the matrices ``m`` and
    ``allowed`` and the sub-intervals to the list ``subs``, which the
    searches of :func:`_escape` read as given.

    Depth-first over the free pairs, the bits of ``allowed & ~m``, in
    matrix-bit order, which is pair-position order, exclude-branch first:
    it is taken inline, and only the include branch is pushed on the
    explicit stack, one push per include branch.  A node holds the next
    decision, the leaf bits so far, the reachability matrix ``m`` of the
    chosen pairs (transitively closed) and the matrix ``allowed`` of
    pairs not yet excluded.  Including (i, j) closes ``m`` in one step:
    every row reaching i, and row i, takes row j and j itself, as the
    product of i's column with j's row.  A branch dies when j already
    reaches i (a cycle) or the closure leaves ``allowed``, so leaves are
    exactly the valid posets, without duplicates, and
    ``PosetInterval.posets`` wraps them without ``Poset.__init__``.
    Pairs the closure already holds are forced: they are taken in one
    run, with no choice and no stack entry, so a leaf's bits are the
    lower bound plus the free pairs taken on its path.

    The bound is exact: with sub-intervals, every node the walk enters
    holds a member of its subtree as a *hint*, a poset between ``m`` and
    ``allowed`` outside every sub-interval, found by :func:`_escape`.
    The root's is searched first; excluding a pair the hint holds
    searches again; an include child keeps the hint when the hint holds
    its closure and searches when it is popped otherwise.  A failed
    search ends the branch, so a subtree without a member is never
    entered, and every leaf reached is a member with no test of its own.
    Without sub-intervals no search runs and the hint stays 0.
    """
    table = _size_table(len(ground.labels))
    m, allowed = _bits_to_matrix(ground, lower_bits), _bits_to_matrix(ground, upper_bits)
    subs = [(_bits_to_matrix(ground, lo), _bits_to_matrix(ground, up)) for lo, up in outside]
    hint = _escape(m, allowed, subs, table) if subs else 0  # the root's hint
    if hint is None:
        return
    col0, row_mask, by_cell = table.col0, table.row_mask, table.by_cell
    steps = []
    free = allowed & ~m
    while free:
        low = free & -free
        c = low.bit_length() - 1
        steps.append(by_cell[c] or table.step(c))
        free ^= low
    depth = len(steps)
    stack = [(0, lower_bits, m, allowed, hint)]
    while stack:
        idx, bits, m, allowed, hint = stack.pop()
        if subs and m & ~hint:  # an include child the hint does not hold
            hint = _escape(m, allowed, subs, table)
            if hint is None:
                continue
        while idx < depth:
            bit, pair, back, i, i_row, j_shift, j_col = steps[idx]
            idx += 1
            if m & pair:  # forced by the closure: no exclude-branch
                bits |= bit
                continue
            # j reaching i makes a cycle; the product would show it too, on
            # the diagonal, which ``allowed`` never holds, but costs a multiply
            if not m & back:
                grown = m | (((m >> i) & col0) | i_row) * (
                    ((m >> j_shift) & row_mask) | j_col)
                if not grown & ~allowed:
                    stack.append((idx, bits | bit, grown, allowed, hint))
            allowed ^= pair  # the exclude branch, inline; unforced, so still allowed
            if hint and hint & pair:  # no hint without sub-intervals
                hint = _escape(m, allowed, subs, table)
                if hint is None:
                    break
        else:
            yield bits


_MEMO_ITEMS = 3  # _order_bits memoises the up-sets of sets this small
_LIST_ITEMS = 5  # and lists them up to this size, generating larger ones lazily


def _order_bits(n: int) -> Iterator[int]:
    """Yield the bits of every order on n items in canonical-key order,
    deciding a whole row (the items above one item) per step, where
    :func:`_interval_bits` decides one pair.

    Lemma.  Let P be an order and P_i its pairs (x, y) with x < i, that
    is, its rows < i.  P_i is an order: if x < i reaches y and y reaches
    z in P_i, then x reaches z in P, and that pair lies in row x < i.  So
    the walk reaches P through P_0 = {} and P_{i+1} = P_i plus i's row
    U, and when it reaches row i, rows < i are final and rows >= i are
    empty.  No later row is forced, because nothing reaches one of its
    items yet.  Let A be the set of j != i that do not reach i and that
    every x reaching i reaches.  P_{i+1} is an order exactly when U is a
    subset of A that is up-closed in P_i.  Proof: (j, i) with (i, j)
    would be a cycle; x reaching i needs (x, j), which only row x < i
    can hold; (i, j) with (j, k) in row j < i needs (i, k), as k = i
    would close a cycle; the pairs of P_i compose among themselves.
    P_{i+1} is then closed as it stands, so a step costs no closure
    multiply; every valid U leads to a leaf (the later rows may stay
    empty), so no branch dies; and different U give different orders,
    so no leaf repeats.

    A is up-closed itself: if j in A reaches k, then k does not reach i
    (j would) and every x reaching i reaches k through j.  Its up-sets
    come from a split on its lowest item j0: leaving j0 out leaves out
    every item below it, taking it in takes every item above it, and
    either way the rest of A is split again.  Taking j0 out first lists
    each row's up-sets in canonical order (j ascending, absent before
    present), and the rows come in row-major order, as the key reads
    them.

    Narrowing.  Let A' be row i + 1's A taken in P_i.  In P_{i+1} = P_i +
    U, row i + 1's A is A' & U if U holds i + 1, and A' if not.  Proof:
    P_{i+1} is closed, so x reaches i + 1 exactly when row x holds it,
    and only row i differs from P_i: the items that reach i + 1 gain i
    when U holds i + 1, which asks that j lie in U and not be i, as U
    lacks i, and stay the same otherwise.  So each node computes A' once,
    by a loop over the items that reach i + 1, and a child narrows it
    with one AND; :func:`rows` takes the set A, not the item.

    The state is the matrix ``m`` of P_i, packed as by
    :func:`_bits_to_matrix`, and its transpose ``mt`` (bit ``j*n + x``
    says x reaches j), grown a row at a time through a table of at most
    256 entries; leaf bits are packed inline.  Up-set lists of sets of
    at most ``_MEMO_ITEMS`` items are memoised for this call only, keyed
    by the set and the order on it; sets of more than ``_LIST_ITEMS``
    items are split lazily, so a wide ground yields its first orders at
    once.  No table of size 2**n or n**4 is built.
    """
    row_mask = (1 << n) - 1
    spread8 = [0] * (1 << min(n, 8))  # bit t*n for every bit t of a byte
    for b in range(1, len(spread8)):
        low = b & -b
        spread8[b] = spread8[b ^ low] | 1 << (low.bit_length() - 1) * n

    def spread(s: int) -> int:  # bit j*n for every bit j of s
        if s < 256:
            return spread8[s]
        out = shift = 0
        while s:
            out |= spread8[s & 255] << shift
            s >>= 8
            shift += 8 * n
        return out

    col0 = spread(row_mask)  # bit x*n for every row x
    high = n * n  # the memo key's set sits above the matrix
    memo: dict[int, list[int]] = {}

    def upsets(b: int, m: int, mt: int) -> list[int]:
        """The up-sets of the items ``b`` in canonical order; ``b`` holds
        at most ``_LIST_ITEMS`` items."""
        if not b:
            return [0]
        small = b.bit_count() <= _MEMO_ITEMS
        if small:  # the set and the order on it: rows and columns in b
            key = m & (spread8[b] if b < 256 else spread(b)) * row_mask & b * col0 | b << high
            got = memo.get(key)
            if got is not None:
                return got
        low = b & -b
        j = low.bit_length() - 1
        take = low | (m >> j * n) & b
        got = upsets(b & ~(low | mt >> j * n), m, mt) + [
            u | take for u in upsets(b & ~take, m, mt)]
        if small:
            memo[key] = got
        return got

    def lazy_upsets(b: int, m: int, mt: int) -> Iterator[int]:
        """:func:`upsets` one at a time, for sets of any size."""
        stack = [(b, 0)]
        while stack:
            b, u = stack.pop()
            if not b:
                yield u
                continue
            low = b & -b
            j = low.bit_length() - 1
            take = low | (m >> j * n) & b
            stack.append((b & ~take, u | take))
            stack.append((b & ~(low | mt >> j * n), u))

    def rows(a: int, m: int, mt: int) -> Iterable[int]:
        """Every valid row with the set A ``a``, given P_i as ``m`` and ``mt``."""
        return upsets(a, m, mt) if a.bit_count() <= _LIST_ITEMS else lazy_upsets(a, m, mt)

    def candidates(j: int, m: int, mt: int) -> int:
        """Row j's set A, taken in the order ``m``, ``mt``."""
        a = row_mask ^ 1 << j
        above = (mt >> j * n) & row_mask  # the items that reach j
        while above:  # a reaching x has no bit x, so ``a`` drops x too
            low = above & -above
            a &= m >> (low.bit_length() - 1) * n
            above ^= low
        return a

    last = n - 1
    if not last:
        yield 0
        return
    top = last * last  # where the last row's leaf bits start; none shift
    # per open row: its item, P_i, the leaf bits so far, its rows left, next row's A'
    stack = [(0, 0, 0, 0, iter(rows(row_mask ^ 1, 0, 0)), row_mask ^ 2)]
    while stack:
        i, m, mt, bits, left, nxt = stack[-1]
        below = (1 << i) - 1  # items left of the diagonal keep their bit
        at = i * (n - 1)
        for u in left:
            bits_u = bits | ((u & below) | (u >> 1 & ~below)) << at
            a = nxt & u if u >> i + 1 & 1 else nxt  # the narrowing lemma
            if not a and i + 1 == last:  # a leaf with an empty last row
                yield bits_u
                continue
            m_u = m | u << i * n
            mt_u = mt | (spread8[u] if u < 256 else spread(u)) << i
            if i + 1 < last:
                stack.append((i + 1, m_u, mt_u, bits_u, iter(rows(a, m_u, mt_u)),
                              candidates(i + 2, m_u, mt_u)))
                break
            for v in rows(a, m_u, mt_u):  # the leaves
                yield bits_u | v << top
        else:
            stack.pop()


def check_cap(size: int, cap: int | None = None) -> None:
    """Refuse an item count above ``cap`` (:data:`DEFAULT_GROUND_CAP` if None)."""
    limit = DEFAULT_GROUND_CAP if cap is None else cap
    if size > limit:
        raise GroundSetTooLarge(f"ground set of size {size} exceeds the cap {limit}; "
                                "raise it explicitly with the override flag")


def enumerate_all_posets(ground: GroundSet, cap: int | None = None) -> Iterator[Poset]:
    """Stream every partial order on the ground set, canonically ordered,
    refusing a ground larger than ``cap`` as :func:`check_cap` does."""
    check_cap(ground.size, cap)
    return PosetInterval(empty_poset(ground), complete_relation(ground)).posets()
