"""Independent brute-force references the tests check the package against.

Everything here works on raw pair sets and ignores the package's packed
representation and DFS machinery on purpose, except :func:`eager_escape`,
the eager form of ``ufgkit.orders._escape`` that the lazy search must
return the same order as.
"""

from __future__ import annotations

from itertools import product

from ufgkit import GroundSet, Poset


def all_index_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def is_transitive(pairs: set[tuple[int, int]]) -> bool:
    return all(
        (i, l) in pairs
        for (i, j) in pairs
        for (k, l) in pairs
        if j == k and i != l
    )


def is_asymmetric(pairs: set[tuple[int, int]]) -> bool:
    return all((j, i) not in pairs for (i, j) in pairs)


def brute_force_strict_posets(n: int) -> list[frozenset[tuple[int, int]]]:
    """Filter every subset of the off-diagonal pairs, one by one."""
    universe = all_index_pairs(n)
    out = []
    for choice in product((False, True), repeat=len(universe)):
        pairs = {p for p, keep in zip(universe, choice) if keep}
        if is_transitive(pairs) and is_asymmetric(pairs):
            out.append(frozenset(pairs))
    return out


def brute_force_interval(lower: Poset, upper_pairs: frozenset) -> set[frozenset]:
    """All posets between the bounds, by filtering the full brute-force list."""
    low = set(lower.pairs)
    return {
        pairs
        for pairs in brute_force_strict_posets(lower.ground.size)
        if low <= set(pairs) <= set(upper_pairs)
    }


def naive_transitive_closure(pairs: set[tuple[int, int]]) -> set[tuple[int, int]]:
    closed = set(pairs)
    while True:
        extra = {
            (i, l)
            for (i, j) in closed
            for (k, l) in closed
            if j == k and i != l
        }
        if extra <= closed:
            return closed
        closed |= extra


def poset_from_index_pairs(ground: GroundSet, pairs) -> Poset:
    from ufgkit import make_poset

    return make_poset(
        ground, [(ground.label(i), ground.label(j)) for i, j in pairs]
    )


def eager_escape(m: int, allowed: int, subs: list[tuple[int, int]], table) -> int | None:
    """``ufgkit.orders._escape`` with every branch of a node closed and
    pushed before the first is entered, popping the highest live child
    first: the reference for the order the lazy search returns.  Takes
    the same packed matrices and size table."""
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
