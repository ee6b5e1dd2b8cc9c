"""Validated Tamari intervals, duality, rise/derise, and family classifiers.

Each family is defined on the interval itself: equal canopies, a rise (or
derise) that stays an interval, no separated arcs in the smooth drawing,
refining right-branch partitions.  Each definition is a linear condition on
the bracket and dual bracket vectors of the two trees, which every
``BinaryTree`` computes once and keeps, so every classifier here is one
scan over those vectors and builds no tree.  The definitions themselves
(``rise``, ``derise``, ``gaps``, ``iota``, ``refines``) stay public and are
the classifiers' oracles in the tests.  Module ``blossoming`` provides an
independent set of classifiers through forbidden patterns on blossoming
trees; the ``transfer-*`` checks of ``tamari verify`` hold the two sides to
exact agreement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import add, eq, le
from typing import Iterable

from .errors import NotAnInterval, NotDerisable, SizeMismatch, UnsupportedSize
from .trees import (
    LEAF,
    BinaryTree,
    _tree_of,
    bracket_vector,
    degree_vector,
    dual_bracket_vector,
    dual_degree_vector,
    dyck_from_tree,
    enumerate_binary_trees,
    mirror,
    smooth_arcs,
    tamari_leq,
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
    "make_interval",
    "refines",
    "rise",
    "smooth_flawed_pairs",
]

#: Cap on exhaustive interval enumeration.
MAX_INTERVAL_ENUMERATION_SIZE = 9

#: Joint canopy types: upper-tree bit over lower-tree bit.
TYPE_11 = "11"
TYPE_00 = "00"
TYPE_10 = "10"


@dataclass(frozen=True, slots=True)
class TamariInterval:
    """An ordered pair lower <= upper of equal-size binary trees.

    Construction validates the order through bracket-vector domination, so
    every reachable instance is a genuine interval.
    """

    lower: BinaryTree
    upper: BinaryTree

    def __post_init__(self):
        if not tamari_leq(self.lower, self.upper):
            raise NotAnInterval("lower tree is not below upper tree")
        if self.lower.size < 1:
            raise UnsupportedSize("intervals have size >= 1")

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


def _trusted_interval(lower: BinaryTree, upper: BinaryTree) -> TamariInterval:
    """Build an interval whose order the caller has already established."""
    interval = object.__new__(TamariInterval)
    object.__setattr__(interval, "lower", lower)
    object.__setattr__(interval, "upper", upper)
    return interval


def enumerate_intervals(n: int) -> list[TamariInterval]:
    """All Tamari intervals of size n, deterministically ordered.

    Ordered by the index of the lower tree in ``enumerate_binary_trees``,
    then of the upper tree.  For each lower bracket vector a walk through
    the trie of all bracket vectors follows only the entries that dominate
    it, which is the ``tamari_leq`` test, so the work grows with the output
    instead of with Catalan(n)^2.
    """
    if n < 1:
        raise UnsupportedSize("intervals have size >= 1")
    if n > MAX_INTERVAL_ENUMERATION_SIZE:
        raise UnsupportedSize(
            f"size {n} exceeds the enumeration cap {MAX_INTERVAL_ENUMERATION_SIZE}"
        )
    trees = enumerate_binary_trees(n)
    vectors = [bracket_vector(t) for t in trees]
    # a trie of dicts keyed by entry; under a vector's last entry, its index
    trie: dict = {}
    for index, v in enumerate(vectors):
        node = trie
        for x in v[:-1]:
            node = node.setdefault(x, {})
        node[v[-1]] = index
    out = []
    for low, vl in zip(trees, vectors):
        frontier = [trie]
        for floor in vl:
            frontier = [child for node in frontier for x, child in node.items() if x >= floor]
        frontier.sort()
        out.extend(_trusted_interval(low, trees[j]) for j in frontier)
    return out


# ------------------------------------------------------------------- duality


def dual_interval(interval: TamariInterval) -> TamariInterval:
    """Mirror both trees and swap them; an involution on intervals.
    Checks nothing: mirroring reverses the Tamari order."""
    return _trusted_interval(mirror(interval.upper), mirror(interval.lower))


def is_self_dual(interval: TamariInterval) -> bool:
    """True when ``dual_interval(interval) == interval``.

    That holds exactly when the lower tree is the mirror of the upper one,
    and the bracket vector of a mirror is the reversed dual bracket vector.
    """
    return bracket_vector(interval.lower) == dual_bracket_vector(interval.upper)[::-1]


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
    """Inverse of rise on its image; raises NotDerisable otherwise.

    The rise shape puts the lower root at node n (b_n = n - 1) and the upper
    root at node 1 (a_1 = n - 1); the inner trees carry the other entries.
    """
    n = interval.n
    low, up = bracket_vector(interval.lower), bracket_vector(interval.upper)
    if dual_bracket_vector(interval.lower)[-1] != n - 1 or up[0] != n - 1:
        raise NotDerisable("root leaves do not match the rise shape")
    if n == 1:
        raise NotDerisable("the size-1 interval derises to the empty interval")
    try:
        return TamariInterval(_tree_of(low[:-1]), _tree_of(up[1:]))
    except NotAnInterval as exc:
        raise NotDerisable("inner pair is not an interval") from exc


# ----------------------------------------------------------- canopy statistics


def canopy_type_counts(interval: TamariInterval) -> tuple[int, int, int]:
    """Counts (i, j, m) of joint canopy entries of types 11, 00 and 10.

    The joint canopy pairs the upper tree's canopy bit over the lower
    tree's at each position; upper 0 over lower 1 never occurs, since a
    lower bracket entry never exceeds the upper one.  Position 0 is of type
    11 and position k >= 1 carries bit ``bracket_vector[k - 1] > 0`` (see
    ``canopy``), so the zero entries of the two vectors give all three.
    """
    low_zeros = bracket_vector(interval.lower).count(0)
    up_zeros = bracket_vector(interval.upper).count(0)
    return interval.n + 1 - low_zeros, up_zeros, low_zeros - up_zeros


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
    up_arcs = smooth_arcs(upper)
    for low_arc in smooth_arcs(lower):
        for up_arc in up_arcs:
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
    """True when both trees have the same canopy.

    The lower canopy's 1s are among the upper one's (see
    ``canopy_type_counts``), so the canopies agree exactly when the two
    bracket vectors have equally many zero entries.
    """
    return bracket_vector(interval.lower).count(0) == bracket_vector(interval.upper).count(0)


def is_modern(interval: TamariInterval) -> bool:
    """True when the rise stays an interval.

    The rise's bracket vectors are bv(L) + (0,) below and (n,) + bv(U)
    above, so domination comes down to bv(L)[i] <= bv(U)[i - 1], i = 2..n.
    """
    low = bracket_vector(interval.lower)
    return all(map(le, low[1:], bracket_vector(interval.upper)))


def is_k_modern(interval: TamariInterval, k: int) -> bool:
    """True when every rise up to the k-th stays an interval."""
    if k < 0:
        raise ValueError("k must be non-negative")
    pair = (interval.lower, interval.upper)
    for _ in range(k):
        pair = rise(pair)
        if not tamari_leq(*pair):
            return False
    return True


def is_infinitely_modern(interval: TamariInterval) -> bool:
    """True when every iterated rise stays an interval.

    Tested through the separated-pair characterization: no upper arc ends
    left of where a lower arc starts, that is, ``gaps`` is empty.  The arc
    of node i spans (i - 1 - b_i, i + a_i) (see ``smooth_arcs``).  Arcs nest,
    so the first to end is that of the first node with a_i = 0, at i, and the
    last to start that of the last node with b_i = 0, at i - 1.
    """
    last_start = interval.n - 1 - dual_bracket_vector(interval.lower)[::-1].index(0)
    return bracket_vector(interval.upper).index(0) + 1 >= last_start


def is_kreweras(interval: TamariInterval) -> bool:
    """True when ``refines(iota(interval.lower), iota(interval.upper))``.

    A maximal right branch is the set of nodes whose spans end at one x +
    a_x, its last node (see ``iota``).  So the lower partition refines the
    upper one when each node's upper span end is that of the last node of
    its lower branch.
    """
    nodes = range(1, interval.n + 1)
    upper_end = (0, *map(add, nodes, bracket_vector(interval.upper)))
    lower_end = map(add, nodes, bracket_vector(interval.lower))
    return all(map(eq, upper_end[1:], map(upper_end.__getitem__, lower_end)))


def is_new(interval: TamariInterval) -> bool:
    """True when the interval is the rise of a (necessarily modern) interval.

    The lower root must be node n (b_n = n - 1) and the upper root node 1
    (a'_1 = n - 1); the inner pair then has bracket vectors bv(L)[:-1] and
    bv(U)[1:] and must be an interval.  It is modern because the outer pair
    is an interval.  The unique size-1 interval, the rise of the empty one,
    passes all three tests.
    """
    n = interval.n
    up = bracket_vector(interval.upper)
    return (
        dual_bracket_vector(interval.lower)[-1] == n - 1
        and up[0] == n - 1
        and all(map(le, bracket_vector(interval.lower), up[1:]))
    )


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
        # non-crossing: with a stack of open blocks, an x whose block is not
        # on top must open it; otherwise a block opened later buries it
        stack: list[int] = []
        for x in range(1, n + 1):
            b = owner[x]
            if not stack or stack[-1] != b:
                if x != normalized[b][0]:
                    raise ValueError("blocks cross")
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
    """Partition of the infix-labeled nodes into maximal right branches.

    Node x spans the nodes x - b_x .. x + a_x.  Its right child's span ends
    where its own does, and its left child's at x - 1, so the branch through
    x is the set of nodes whose spans end at x + a_x, its last node: the Dyck
    run that ``dual_degree_vector`` counts.
    """
    blocks: dict[int, list[int]] = {}
    for x, end in enumerate(map(add, range(1, t.size + 1), bracket_vector(t)), 1):
        blocks.setdefault(end, []).append(x)
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
