"""Meandering diagrams and trees: the arc-diagram form of tree pairs.

A meandering diagram of size n lives on 2n+1 axis points: black at the
integers 0..n, white at the half-integers.  Each white point t - 1/2
(referred to by its index t in 1..n) carries one upper arc to the black
point ``up[t]`` on its left and one lower arc to the black point ``lo[t]``
on its right.  The pair of arrays determines the diagram; arcs are stored,
never geometry, so equality is bit-exact.

A pair of binary trees maps to the diagram whose upper arcs encode the
upper tree and whose lower arcs encode the lower tree; the diagram's
underlying graph is a tree exactly when the pair is a Tamari interval.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from operator import add, sub

from .errors import (
    InvalidBracketVector,
    InvalidDecomposition,
    InvalidDiagram,
    NotATree,
    SizeMismatch,
    UnsupportedSize,
)
from .trees import (
    BinaryTree,
    _check_nesting,
    _tree_of,
    bracket_vector,
    dual_bracket_vector,
)

__all__ = [
    "MeanderingDiagram",
    "compose",
    "count_meandering_trees",
    "decompose",
    "diagram_from_json",
    "diagram_to_json",
    "flawed_pairs",
    "from_tree_pair",
    "half_turn",
    "is_meandering_tree",
    "lower_arc_counts",
    "non_kreweras_pairs",
    "to_tree_pair",
    "underlying_edges",
    "upper_arc_counts",
]


@dataclass(frozen=True, slots=True)
class MeanderingDiagram:
    """Endpoint arrays of a meandering diagram; index t-1 holds white point t.

    ``up[t-1]`` in [0..t-1] is the black end of the upper arc at white point
    t - 1/2 and ``lo[t-1]`` in [t..n] the black end of its lower arc.
    Construction checks equal lengths and runs the bracket-vector nesting
    pass, which also checks that ends are in range, on a_t = lo[t] - t and
    on the dual vector b_t = t - 1 - up[t]; no tree is built.
    """

    up: tuple[int, ...]
    lo: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "up", tuple(self.up))
        object.__setattr__(self, "lo", tuple(self.lo))
        n = len(self.up)
        if len(self.lo) != n:
            raise InvalidDiagram("up and lo must have equal length")
        side = "lower"
        try:
            _check_nesting(tuple(map(sub, self.lo, range(1, n + 1))), False)
            side = "upper"
            _check_nesting(tuple(map(sub, range(n), self.up)), True)
        except InvalidBracketVector as exc:
            raise InvalidDiagram(f"{side} arcs: {exc}") from exc

    @property
    def n(self) -> int:
        return len(self.up)

    def __repr__(self) -> str:
        return f"<MeanderingDiagram up={list(self.up)} lo={list(self.lo)}>"


def _trusted_diagram(up: tuple[int, ...], lo: tuple[int, ...]) -> MeanderingDiagram:
    """Build a diagram from arc tuples the caller knows to be in range and
    nested."""
    m = object.__new__(MeanderingDiagram)
    object.__setattr__(m, "up", up)
    object.__setattr__(m, "lo", lo)
    return m


def diagram_to_json(m: MeanderingDiagram) -> str:
    return json.dumps(
        {"n": m.n, "up": list(m.up), "lo": list(m.lo)}, separators=(",", ":")
    )


def diagram_from_json(text: str) -> MeanderingDiagram:
    """Parse ``{"n": n, "up": [...], "lo": [...]}``; ``n`` is optional.

    Only integers count as integers here: booleans and other JSON values
    are rejected with InvalidDiagram.
    """
    try:
        data = json.loads(text)
    except RecursionError:
        raise InvalidDiagram("the JSON nests too deeply") from None
    if not isinstance(data, dict):
        raise InvalidDiagram("a diagram is a JSON object")
    arrays = (data.get("up"), data.get("lo"))
    if not all(isinstance(a, list) and all(type(x) is int for x in a) for a in arrays):
        raise InvalidDiagram("up and lo must be lists of integers")
    m = MeanderingDiagram(tuple(arrays[0]), tuple(arrays[1]))
    if "n" in data and (type(data["n"]) is not int or data["n"] != m.n):
        raise InvalidDiagram("declared size does not match the arc arrays")
    return m


# ------------------------------------------------------------- the map phi


def from_tree_pair(lower: BinaryTree, upper: BinaryTree) -> MeanderingDiagram:
    """Superimposed diagram drawing of a pair of equal-size binary trees.

    White point t gets the lower arc to t + a_t (bracket vector of the lower
    tree) and the upper arc to t - 1 - b_t (dual bracket vector of the upper
    tree).  Bijective onto meandering diagrams; intervals land on trees.
    The bracket vectors of binary trees always nest, so the diagram needs
    no check of its own.
    """
    if lower.size != upper.size:
        raise SizeMismatch(f"sizes {lower.size} and {upper.size} differ")
    if lower.size < 1:
        raise UnsupportedSize("diagram drawings need size >= 1")
    n = lower.size
    lo = tuple(map(add, range(1, n + 1), bracket_vector(lower)))
    up = tuple(map(sub, range(n), dual_bracket_vector(upper)))
    return _trusted_diagram(up, lo)


def to_tree_pair(m: MeanderingDiagram) -> tuple[BinaryTree, BinaryTree]:
    """Inverse of from_tree_pair: recover (lower, upper) from the arcs.

    The constructor already checked that the arcs nest, so the lower arcs
    give the lower tree's bracket vector, a_t = lo[t] - t, and the upper
    arcs the upper tree's dual bracket vector, b_t = t - 1 - up[t].
    """
    return (
        _tree_of(tuple(map(sub, m.lo, range(1, m.n + 1)))),
        _tree_of(None, tuple(map(sub, range(m.n), m.up))),
    )


# ------------------------------------------------------------ graph structure


def underlying_edges(m: MeanderingDiagram) -> list[tuple[int, int]]:
    """Edges of the underlying graph, one per white point: (up[t], lo[t])."""
    return [(m.up[t - 1], m.lo[t - 1]) for t in range(1, m.n + 1)]


def is_meandering_tree(m: MeanderingDiagram) -> bool:
    """True when the underlying graph on the black points is a tree."""
    parent = list(range(m.n + 1))
    # n edges on n + 1 points with no cycle leave exactly one component
    return all(_union(parent, u, v) for u, v in underlying_edges(m))


def _union(parent: list[int], u: int, v: int) -> bool:
    """Join the classes of u and v in the union-find forest ``parent``.

    Returns False, joining nothing, when u and v are in one class already,
    that is when the edge uv closes a cycle.
    """
    while parent[u] != u:
        parent[u] = parent[parent[u]]
        u = parent[u]
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    if u == v:
        return False
    parent[u] = v
    return True


# ------------------------------------------------------------- arc patterns


def flawed_pairs(m: MeanderingDiagram) -> list[tuple[int, int]]:
    """Pairs (s, t) of white indices whose arcs interleave as a flawed pair.

    The lower arc at s and the upper arc at t are flawed when
    up[t] < s - 1/2 < t - 1/2 < lo[s]; their absence characterizes
    meandering trees.
    """
    return [
        (s, t) for s in range(1, m.n + 1) for t in range(s + 1, m.n + 1)
        if m.up[t - 1] <= s - 1 and m.lo[s - 1] >= t
    ]


def non_kreweras_pairs(m: MeanderingDiagram) -> list[tuple[int, int]]:
    """Pairs (s, t): lower arc at s and upper arc at t interleaved the other way.

    The pattern is xl < xl' < xr < xr' with (xl, xr) the lower arc and
    (xl', xr') the upper arc.  On a meandering tree, emptiness means the
    diagram stays non-crossing when the lower arcs are flipped above the
    axis.
    """
    return [
        (s, t) for s in range(1, m.n + 1) for t in range(1, m.n + 1)
        if s <= m.up[t - 1] < m.lo[s - 1] <= t - 1
    ]


def upper_arc_counts(m: MeanderingDiagram) -> tuple[int, ...]:
    """Number of upper arcs at each black point 0..n."""
    counts = Counter(m.up)
    return tuple(counts[k] for k in range(m.n + 1))


def lower_arc_counts(m: MeanderingDiagram) -> tuple[int, ...]:
    """Number of lower arcs at each black point 0..n."""
    counts = Counter(m.lo)
    return tuple(counts[k] for k in range(m.n + 1))


# ------------------------------------------------------------------ symmetry


def half_turn(m: MeanderingDiagram) -> MeanderingDiagram:
    """Rotate the diagram by a half-turn, an involution (duality on trees).
    Checks nothing: rotated arcs stay in range and non-crossing."""
    n = m.n
    up = tuple(n - m.lo[n - t] for t in range(1, n + 1))
    lo = tuple(n - m.up[n - t] for t in range(1, n + 1))
    return _trusted_diagram(up, lo)


# ------------------------------------------------------ recursive decomposition


def decompose(
    m: MeanderingDiagram,
) -> tuple[MeanderingDiagram, MeanderingDiagram, int]:
    """Split a meandering tree at the widest upper arc out of black point 0.

    Removing the white point of that arc leaves a meandering tree on the
    points left of it, another on the points right of it, and the black
    point j (in the right part's coordinates) that carried the removed
    lower arc.  Inverse of compose.  Only ``m`` is checked: the lemma makes
    both parts meandering trees, so they are built without a check.
    """
    if m.n < 1:
        raise UnsupportedSize("cannot decompose the empty diagram")
    if not is_meandering_tree(m):
        raise NotATree("decompose is defined on meandering trees")
    t_star = max(t for t in range(1, m.n + 1) if m.up[t - 1] == 0)
    left = _trusted_diagram(m.up[: t_star - 1], m.lo[: t_star - 1])
    right = _trusted_diagram(
        tuple(u - t_star for u in m.up[t_star:]),
        tuple(v - t_star for v in m.lo[t_star:]),
    )
    return left, right, m.lo[t_star - 1] - t_star


def compose(
    left: MeanderingDiagram, right: MeanderingDiagram, j: int
) -> MeanderingDiagram:
    """Rebuild a meandering tree from two parts and an attachment point j.

    ``j`` must be a black point of ``right`` under none of its lower arcs.
    Only the whole is checked, by the diagram constructor (which rejects any
    other j) and the tree test; a failure raises InvalidDecomposition.
    """
    t_star = left.n + 1
    up = left.up + (0,) + tuple(u + t_star for u in right.up)
    lo = left.lo + (j + t_star,) + tuple(v + t_star for v in right.lo)
    try:
        m = MeanderingDiagram(up, lo)
    except InvalidDiagram as exc:
        raise InvalidDecomposition(str(exc)) from exc
    if not is_meandering_tree(m):
        raise InvalidDecomposition("parts do not assemble into a tree")
    return m


_tree_lists: dict[int, list[MeanderingDiagram]] = {}


def _meandering_trees(n: int) -> list[MeanderingDiagram]:
    if n not in _tree_lists:
        if n == 0:
            _tree_lists[0] = [MeanderingDiagram((), ())]
        else:
            out = []
            for i in range(n):
                lefts = _meandering_trees(i)
                rights = _meandering_trees(n - 1 - i)
                for right in rights:
                    # the points under no lower arc of the right part
                    points = [j for j in range(right.n + 1) if max(right.lo[:j], default=0) <= j]
                    for left in lefts:
                        for j in points:
                            out.append(compose(left, right, j))
            _tree_lists[n] = out
    return _tree_lists[n]


def count_meandering_trees(n: int) -> int:
    """Count meandering trees of size n through the recursive decomposition."""
    return len(_meandering_trees(n))
