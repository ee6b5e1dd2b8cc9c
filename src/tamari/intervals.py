"""Validated Tamari intervals, duality, rise/derise, and family classifiers.

The classifiers here work straight from the definitions (canopy equality,
validity of iterated rises, non-crossing-partition refinement, arc geometry
of the smooth drawing).  Module ``blossoming`` provides an independent set
of classifiers through forbidden patterns on blossoming trees; the test
suite holds the two sides to exact agreement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .errors import NotAnInterval, NotDerisable, SizeMismatch, UnsupportedSize
from .trees import (
    LEAF,
    BinaryTree,
    bracket_vector,
    canopy,
    degree_vector,
    dual_degree_vector,
    dyck_from_tree,
    enumerate_binary_trees,
    mirror,
    smooth_arcs,
    tree_from_dyck,
)

__all__ = [
    "MAX_INTERVAL_ENUMERATION_SIZE",
    "NonCrossingPartition",
    "TYPE_00",
    "TYPE_10",
    "TYPE_11",
    "TamariInterval",
    "bi_length_vector",
    "canopy_type_counts",
    "derise",
    "dual_interval",
    "enumerate_intervals",
    "gaps",
    "interval_from_json",
    "interval_from_text",
    "interval_to_json",
    "interval_to_text",
    "iota",
    "is_infinitely_modern",
    "is_k_modern",
    "is_kreweras",
    "is_modern",
    "is_new",
    "is_self_dual",
    "is_synchronized",
    "is_trivial",
    "joint_canopy",
    "make_interval",
    "refines",
    "rise",
    "smooth_flawed_pairs",
]

#: Default cap on exhaustive interval enumeration.
MAX_INTERVAL_ENUMERATION_SIZE = 9

#: Joint canopy types: upper-tree bit over lower-tree bit.
TYPE_11 = "11"
TYPE_00 = "00"
TYPE_10 = "10"


@dataclass(frozen=True)
class TamariInterval:
    """An ordered pair lower <= upper of equal-size binary trees.

    Construction validates the order through bracket-vector domination, so
    every reachable instance is a genuine interval.
    """

    lower: BinaryTree
    upper: BinaryTree

    def __post_init__(self):
        if self.lower.size != self.upper.size:
            raise SizeMismatch(
                f"sizes {self.lower.size} and {self.upper.size} differ"
            )
        if self.lower.size < 1:
            raise UnsupportedSize("intervals have size >= 1")
        for a, b in zip(bracket_vector(self.lower), bracket_vector(self.upper)):
            if a > b:
                raise NotAnInterval("lower tree is not below upper tree")

    @property
    def n(self) -> int:
        return self.lower.size

    def __repr__(self) -> str:
        if self.n > 20:
            return f"<TamariInterval of size {self.n}>"
        return f"<TamariInterval {interval_to_text(self)}>"


def make_interval(lower: BinaryTree, upper: BinaryTree) -> TamariInterval:
    """Validate and build an interval; raises NotAnInterval or SizeMismatch."""
    return TamariInterval(lower, upper)


def enumerate_intervals(n: int, max_size: int | None = None) -> list[TamariInterval]:
    """All Tamari intervals of size n, deterministically ordered."""
    if n < 1:
        raise UnsupportedSize("intervals have size >= 1")
    cap = MAX_INTERVAL_ENUMERATION_SIZE if max_size is None else max_size
    if n > cap:
        raise UnsupportedSize(f"size {n} exceeds the enumeration cap {cap}")
    trees = enumerate_binary_trees(n, max_size=n)
    vectors = [bracket_vector(t) for t in trees]
    out = []
    for i, low in enumerate(trees):
        vl = vectors[i]
        for j, up in enumerate(trees):
            vu = vectors[j]
            if all(a <= b for a, b in zip(vl, vu)):
                out.append(TamariInterval(low, up))
    return out


# ------------------------------------------------------------------- duality


def dual_interval(interval: TamariInterval) -> TamariInterval:
    """Mirror both trees and swap them; an involution on intervals."""
    return TamariInterval(mirror(interval.upper), mirror(interval.lower))


def is_self_dual(interval: TamariInterval) -> bool:
    return dual_interval(interval) == interval


# -------------------------------------------------------------- rise / derise


def rise(pair: TamariInterval | tuple[BinaryTree, BinaryTree]) -> tuple[BinaryTree, BinaryTree]:
    """Grow a pair by one: (T, T') becomes ((T, leaf), (leaf, T')).

    The result is returned as a plain pair since it need not be an interval;
    intervals whose rise stays an interval are exactly the modern ones.
    """
    if isinstance(pair, TamariInterval):
        low, up = pair.lower, pair.upper
    else:
        low, up = pair
    return BinaryTree(low, LEAF), BinaryTree(LEAF, up)


def derise(interval: TamariInterval) -> TamariInterval:
    """Inverse of rise on its image; raises NotDerisable otherwise."""
    low, up = interval.lower, interval.upper
    if not low.right.is_leaf or not up.left.is_leaf:
        raise NotDerisable("root leaves do not match the rise shape")
    if interval.n == 1:
        raise NotDerisable("the size-1 interval derises to the empty interval")
    try:
        return TamariInterval(low.left, up.right)
    except NotAnInterval as exc:
        raise NotDerisable("inner pair is not an interval") from exc


# ----------------------------------------------------------- canopy statistics


def joint_canopy(interval: TamariInterval) -> tuple[str, ...]:
    """Per-position joint type of the two canopies, upper bit over lower bit.

    The combination upper=0, lower=1 never occurs on a valid interval.
    """
    upper_bits = canopy(interval.upper)
    lower_bits = canopy(interval.lower)
    out = []
    for ub, lb in zip(upper_bits, lower_bits):
        out.append(f"{ub}{lb}")
    return tuple(out)


def canopy_type_counts(interval: TamariInterval) -> tuple[int, int, int]:
    """Counts (i, j, m) of joint canopy entries of types 11, 00 and 10."""
    jc = joint_canopy(interval)
    return jc.count(TYPE_11), jc.count(TYPE_00), jc.count(TYPE_10)


def bi_length_vector(interval: TamariInterval) -> tuple[tuple[int, int], ...]:
    """Entry k: branch lengths (left branch of upper, right branch of lower)."""
    ups = degree_vector(interval.upper)
    downs = dual_degree_vector(interval.lower)
    return tuple(zip(ups, downs))


# ------------------------------------------------------ smooth-drawing oracles


def smooth_flawed_pairs(
    lower: BinaryTree, upper: BinaryTree
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Flawed pairs of a tree pair in its smooth drawing.

    A lower arc (xl, xr) and an upper arc (xl', xr') are flawed when
    xl' < xl <= xr' < xr.  A pair of trees is an interval exactly when no
    flawed pair exists.
    """
    if lower.size != upper.size:
        raise SizeMismatch("trees must have equal size")
    out = []
    for low_arc in smooth_arcs(lower):
        for up_arc in smooth_arcs(upper):
            if up_arc[0] < low_arc[0] <= up_arc[1] < low_arc[1]:
                out.append((low_arc, up_arc))
    return out


def gaps(interval: TamariInterval) -> list[int]:
    """Lengths of the gaps of an interval, one per separated arc pair.

    A separated pair is an upper-tree arc lying entirely to the left of a
    lower-tree arc; its gap length is the distance between them.  A gap of
    length k turns into a flawed pair after k rises, so an interval is
    k-modern iff it has no gap of length <= k, and infinitely modern iff it
    has no gap at all.
    """
    out = []
    for up_arc in smooth_arcs(interval.upper):
        for low_arc in smooth_arcs(interval.lower):
            if up_arc[1] < low_arc[0]:
                out.append(low_arc[0] - up_arc[1])
    return out


# ----------------------------------------------------------------- classifiers


def is_trivial(interval: TamariInterval) -> bool:
    return interval.lower == interval.upper


def is_synchronized(interval: TamariInterval) -> bool:
    return canopy(interval.lower) == canopy(interval.upper)


def _pair_is_interval(pair: tuple[BinaryTree, BinaryTree]) -> bool:
    low, up = pair
    return all(a <= b for a, b in zip(bracket_vector(low), bracket_vector(up)))


def is_modern(interval: TamariInterval) -> bool:
    return _pair_is_interval(rise(interval))


def is_k_modern(interval: TamariInterval, k: int) -> bool:
    """True when every rise up to the k-th stays an interval."""
    if k < 0:
        raise ValueError("k must be non-negative")
    pair = (interval.lower, interval.upper)
    for _ in range(k):
        pair = rise(pair)
        if not _pair_is_interval(pair):
            return False
    return True


def is_infinitely_modern(interval: TamariInterval) -> bool:
    """True when every iterated rise stays an interval.

    Tested through the separated-pair characterization: no upper arc ends
    left of where a lower arc starts, that is, ``gaps`` is empty.
    """
    upper_end = min(right for _, right in smooth_arcs(interval.upper))
    lower_start = max(left for left, _ in smooth_arcs(interval.lower))
    return upper_end >= lower_start


def is_kreweras(interval: TamariInterval) -> bool:
    return refines(iota(interval.lower), iota(interval.upper))


def is_new(interval: TamariInterval) -> bool:
    """True when the interval is the rise of a (necessarily modern) interval."""
    if interval.n == 1:
        # the unique size-1 interval is the rise of the empty interval
        return True
    try:
        inner = derise(interval)
    except NotDerisable:
        return False
    return is_modern(inner)


# ------------------------------------------------------ non-crossing partitions


class NonCrossingPartition:
    """A non-crossing partition of {1..n}, stored as sorted blocks."""

    __slots__ = ("blocks", "n")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        normalized = tuple(sorted(tuple(sorted(b)) for b in blocks))
        ground: list[int] = [x for b in normalized for x in b]
        n = len(ground)
        if sorted(ground) != list(range(1, n + 1)):
            raise ValueError("blocks must partition {1..n}")
        owner = {}
        for idx, block in enumerate(normalized):
            for x in block:
                owner[x] = idx
        # non-crossing: scanning with a stack of open blocks
        stack: list[int] = []
        for x in range(1, n + 1):
            b = owner[x]
            if stack and stack[-1] == b:
                pass
            elif b in stack:
                raise ValueError("blocks cross")
            else:
                stack.append(b)
            if x == normalized[b][-1]:
                stack.pop()
        self.blocks = normalized
        self.n = n

    def __eq__(self, other):
        return isinstance(other, NonCrossingPartition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        inner = ", ".join("{" + ", ".join(map(str, b)) + "}" for b in self.blocks)
        return f"<NonCrossingPartition {inner}>"


def iota(t: BinaryTree) -> NonCrossingPartition:
    """Partition of the infix-labeled nodes into maximal right branches."""
    if t.is_leaf:
        return NonCrossingPartition([])
    blocks: dict[int, list[int]] = {}
    # (subtree, smallest label inside, block the subtree root belongs to)
    stack: list[tuple[BinaryTree, int, int | None]] = [(t, 1, None)]
    while stack:
        sub, lo, block = stack.pop()
        if sub.is_leaf:
            continue
        label = lo + sub.left.size
        key = label if block is None else block
        blocks.setdefault(key, []).append(label)
        stack.append((sub.left, lo, None))
        stack.append((sub.right, label + 1, key))
    return NonCrossingPartition(blocks.values())


def refines(p: NonCrossingPartition, q: NonCrossingPartition) -> bool:
    """Refinement order: every block of p is contained in a block of q."""
    if p.n != q.n:
        raise SizeMismatch(f"ground sets of sizes {p.n} and {q.n} differ")
    owner = {}
    for idx, block in enumerate(q.blocks):
        for x in block:
            owner[x] = idx
    return all(len({owner[x] for x in block}) == 1 for block in p.blocks)


# -------------------------------------------------------------- serialization


def interval_to_text(interval: TamariInterval) -> str:
    return f"{dyck_from_tree(interval.lower)}|{dyck_from_tree(interval.upper)}"


def interval_from_text(text: str) -> TamariInterval:
    low, sep, up = text.partition("|")
    if not sep:
        raise ValueError("expected '<dyckLower>|<dyckUpper>'")
    return TamariInterval(tree_from_dyck(low), tree_from_dyck(up))


def interval_to_json(interval: TamariInterval) -> str:
    return json.dumps(
        {
            "n": interval.n,
            "lower": dyck_from_tree(interval.lower),
            "upper": dyck_from_tree(interval.upper),
        },
        separators=(",", ":"),
    )


def interval_from_json(text: str) -> TamariInterval:
    """Parse ``{"n": n, "lower": "<dyck>", "upper": "<dyck>"}``; ``n`` is optional."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("the JSON nests too deeply") from None
    if not (isinstance(data, dict) and all(type(data.get(k)) is str for k in ("lower", "upper"))):
        raise ValueError("expected an object with string fields 'lower' and 'upper'")
    interval = TamariInterval(tree_from_dyck(data["lower"]), tree_from_dyck(data["upper"]))
    if "n" in data and (type(data["n"]) is not int or data["n"] != interval.n):
        raise ValueError("declared size does not match the trees")
    return interval
