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
from dataclasses import dataclass

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
    _nesting_runs,
    bracket_vector,
    dual_bracket_vector,
    tree_from_bracket_vector,
    tree_from_dual_bracket_vector,
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


@dataclass(frozen=True)
class MeanderingDiagram:
    """Endpoint arrays of a meandering diagram; index t-1 holds white point t.

    ``up[t-1]`` in [0..t-1] is the black end of the upper arc at white point
    t - 1/2 and ``lo[t-1]`` in [t..n] the black end of its lower arc.
    Construction checks that the lower spans [t, lo[t]] nest and that the
    upper spans [up[t], t - 1] nest (the non-crossing conditions), with the
    bracket-vector nesting pass of each side's tree; no tree is built.
    """

    up: tuple[int, ...]
    lo: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "up", tuple(self.up))
        object.__setattr__(self, "lo", tuple(self.lo))
        n = len(self.up)
        if len(self.lo) != n:
            raise InvalidDiagram("up and lo must have equal length")
        for t in range(1, n + 1):
            if not 0 <= self.up[t - 1] <= t - 1:
                raise InvalidDiagram(f"up[{t}] = {self.up[t - 1]} out of [0..{t - 1}]")
            if not t <= self.lo[t - 1] <= n:
                raise InvalidDiagram(f"lo[{t}] = {self.lo[t - 1]} out of [{t}..{n}]")
        try:
            _nesting_runs([self.lo[t - 1] - t for t in range(1, n + 1)], False)
            _nesting_runs([t - 1 - self.up[t - 1] for t in range(1, n + 1)], True)
        except InvalidBracketVector as exc:
            raise InvalidDiagram(f"arcs cross: {exc}") from exc

    @property
    def n(self) -> int:
        return len(self.up)

    def __repr__(self) -> str:
        return f"<MeanderingDiagram up={list(self.up)} lo={list(self.lo)}>"


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
    """
    if lower.size != upper.size:
        raise SizeMismatch(f"sizes {lower.size} and {upper.size} differ")
    if lower.size < 1:
        raise UnsupportedSize("diagram drawings need size >= 1")
    a = bracket_vector(lower)
    b = dual_bracket_vector(upper)
    lo = tuple(t + a[t - 1] for t in range(1, lower.size + 1))
    up = tuple(t - 1 - b[t - 1] for t in range(1, lower.size + 1))
    return MeanderingDiagram(up, lo)


def to_tree_pair(m: MeanderingDiagram) -> tuple[BinaryTree, BinaryTree]:
    """Inverse of from_tree_pair: recover (lower, upper) from the arcs."""
    lower = tree_from_bracket_vector([m.lo[t - 1] - t for t in range(1, m.n + 1)])
    upper = tree_from_dual_bracket_vector(
        [t - 1 - m.up[t - 1] for t in range(1, m.n + 1)]
    )
    return lower, upper


# ------------------------------------------------------------ graph structure


def underlying_edges(m: MeanderingDiagram) -> list[tuple[int, int]]:
    """Edges of the underlying graph, one per white point: (up[t], lo[t])."""
    return [(m.up[t - 1], m.lo[t - 1]) for t in range(1, m.n + 1)]


def is_meandering_tree(m: MeanderingDiagram) -> bool:
    """True when the underlying graph on the black points is a tree."""
    parent = list(range(m.n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = m.n + 1
    for u, v in underlying_edges(m):
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
        components -= 1
    return components == 1


# ------------------------------------------------------------- arc patterns


def flawed_pairs(m: MeanderingDiagram) -> list[tuple[int, int]]:
    """Pairs (s, t) of white indices whose arcs interleave as a flawed pair.

    The lower arc at s and the upper arc at t are flawed when
    up[t] < s - 1/2 < t - 1/2 < lo[s]; their absence characterizes
    meandering trees.
    """
    out = []
    for s in range(1, m.n + 1):
        for t in range(s + 1, m.n + 1):
            if m.up[t - 1] <= s - 1 and m.lo[s - 1] >= t:
                out.append((s, t))
    return out


def non_kreweras_pairs(m: MeanderingDiagram) -> list[tuple[int, int]]:
    """Pairs (s, t): lower arc at s and upper arc at t interleaved the other way.

    The pattern is xl < xl' < xr < xr' with (xl, xr) the lower arc and
    (xl', xr') the upper arc.  On a meandering tree, emptiness means the
    diagram stays non-crossing when the lower arcs are flipped above the
    axis.
    """
    out = []
    for s in range(1, m.n + 1):
        for t in range(1, m.n + 1):
            if s <= m.up[t - 1] < m.lo[s - 1] <= t - 1:
                out.append((s, t))
    return out


def upper_arc_counts(m: MeanderingDiagram) -> tuple[int, ...]:
    """Number of upper arcs at each black point 0..n."""
    counts = [0] * (m.n + 1)
    for u in m.up:
        counts[u] += 1
    return tuple(counts)


def lower_arc_counts(m: MeanderingDiagram) -> tuple[int, ...]:
    """Number of lower arcs at each black point 0..n."""
    counts = [0] * (m.n + 1)
    for v in m.lo:
        counts[v] += 1
    return tuple(counts)


# ------------------------------------------------------------------ symmetry


def half_turn(m: MeanderingDiagram) -> MeanderingDiagram:
    """Rotate the diagram by a half-turn (an involution)."""
    n = m.n
    up = tuple(n - m.lo[n - t] for t in range(1, n + 1))
    lo = tuple(n - m.up[n - t] for t in range(1, n + 1))
    return MeanderingDiagram(up, lo)


# ------------------------------------------------------ recursive decomposition


def decompose(
    m: MeanderingDiagram,
) -> tuple[MeanderingDiagram, MeanderingDiagram, int]:
    """Split a meandering tree at the widest upper arc out of black point 0.

    Removing the white point of that arc leaves a meandering tree on the
    points left of it, another on the points right of it, and the black
    point j (in the right part's coordinates) that carried the removed
    lower arc.  Inverse of compose.
    """
    if m.n < 1:
        raise UnsupportedSize("cannot decompose the empty diagram")
    if not is_meandering_tree(m):
        raise NotATree("decompose is defined on meandering trees")
    t_star = max(t for t in range(1, m.n + 1) if m.up[t - 1] == 0)
    left = MeanderingDiagram(m.up[: t_star - 1], m.lo[: t_star - 1])
    right = MeanderingDiagram(
        tuple(u - t_star for u in m.up[t_star:]),
        tuple(v - t_star for v in m.lo[t_star:]),
    )
    return left, right, m.lo[t_star - 1] - t_star


def compose(
    left: MeanderingDiagram, right: MeanderingDiagram, j: int
) -> MeanderingDiagram:
    """Rebuild a meandering tree from two parts and an attachment point j.

    ``j`` is a black point of ``right`` not strictly enclosed by any of its
    lower arcs.  Raises InvalidDecomposition on malformed input.
    """
    if not 0 <= j <= right.n:
        raise InvalidDecomposition(f"j = {j} out of [0..{right.n}]")
    for t in range(1, right.n + 1):
        if t <= j < right.lo[t - 1]:
            raise InvalidDecomposition(f"a lower arc of the right part encloses {j}")
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
                    points = [
                        j
                        for j in range(right.n + 1)
                        if not any(
                            t <= j < right.lo[t - 1] for t in range(1, right.n + 1)
                        )
                    ]
                    for left in lefts:
                        for j in points:
                            out.append(compose(left, right, j))
            _tree_lists[n] = out
    return _tree_lists[n]


def count_meandering_trees(n: int) -> int:
    """Count meandering trees of size n through the recursive decomposition."""
    return len(_meandering_trees(n))
