"""Bicolored blossoming trees, the planar closure, and the main bijection.

A blossoming tree is an unrooted plane tree in which every node carries
exactly two buds (outgoing stubs).  Half-edges of plain edges are colored
blue or red so that no plain edge is monochromatic and, at every node, the
two buds separate the blue half-edges from the red ones.

Plane structure is stored as one counterclockwise cyclic item sequence per
node; an item is either the bud marker or a pair (edge id, color), the edge
ids of a tree of size n being 0..n-1 whoever builds it, and an edge table
lists each edge's blue half before its red one.  A meandering tree unfolds
into such a tree by granting every black point a left and a right bud
(``from_meandering``); the inverse direction closes the tree back up:
subdivide every plain edge, walk the counterclockwise contour, match buds
to legs planarly, and stretch the resulting meandric path onto the axis by
each edge's blue and red end (``to_meandering``).  Composing with the
diagram drawing of tree pairs gives the bijection with Tamari intervals.

Equality of blossoming trees is by the meandering diagram of their
closure, which each tree computes once and keeps; bicolored blossoming
trees have no symmetry, so this is faithful.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

from .errors import InvalidBlossoming, NotATree, UnsupportedSize
from .intervals import TYPE_00, TYPE_10, TYPE_11, TamariInterval, _trusted_interval
from .meandering import (
    MeanderingDiagram,
    _trusted_diagram,
    _union,
    from_tree_pair,
    is_meandering_tree,
    to_tree_pair,
)

__all__ = [
    "BLUE",
    "BUD",
    "RED",
    "BlossomingTree",
    "bi_degree",
    "closure",
    "from_interval",
    "from_meandering",
    "is_half_turn_symmetric",
    "is_synchronized_tree",
    "node_type",
    "non_kreweras_paths",
    "non_modern_edges",
    "non_modern_paths",
    "reflect",
    "reflect_interval",
    "switch_colors",
    "to_debug_text",
    "to_interval",
    "to_meandering",
    "trivial_bud_position_check",
]

#: Item marker for a bud in a node's cyclic sequence.
BUD = "*"
BLUE = "B"
RED = "R"


class BlossomingTree:
    """A validated bicolored blossoming tree.

    ``items[v]`` is the counterclockwise cyclic sequence of items around
    node v, and ``_ends[e]`` is (blue end, its slot, red end, its slot) for
    each edge id e, one of the ints 0..n-1: the constructor rejects any
    other id.  Equality and hashing go through the closure diagram, which
    ``to_meandering`` keeps in ``_diagram`` on its first call.
    """

    __slots__ = ("items", "n", "_ends", "_diagram")

    def __init__(self, items: Iterable[Iterable]):
        items = tuple(tuple(seq) for seq in items)
        if len(items) < 2:
            raise InvalidBlossoming("a blossoming tree has at least two nodes")
        for v, seq in enumerate(items):
            buds = seq.count(BUD)
            if buds != 2:
                raise InvalidBlossoming(f"node {v} carries {buds} buds")
            i = seq.index(BUD)
            j = seq.index(BUD, i + 1)
            groups = (seq[i + 1: j], seq[j + 1:] + seq[:i])
            colors = []
            for group in groups:
                seen = set()
                for it in group:
                    if not (isinstance(it, tuple) and len(it) == 2):
                        raise InvalidBlossoming(f"bad item {it!r} at node {v}")
                    if type(it[0]) is not int or not 0 <= it[0] < len(items) - 1:
                        raise InvalidBlossoming(f"bad edge id {it[0]!r} at node {v}")
                    if it[1] not in (BLUE, RED):
                        raise InvalidBlossoming(f"bad color {it[1]!r} at node {v}")
                    seen.add(it[1])
                if len(seen) > 1:
                    raise InvalidBlossoming(f"mixed colors inside a bud group of node {v}")
                colors.append(seen)
            if colors[0] and colors[0] == colors[1]:
                raise InvalidBlossoming(f"buds of node {v} do not separate the colors")
        ends = _edge_table(items)
        parent = list(range(len(items)))
        for e, sides in enumerate(ends):
            if len(sides) != 4:
                raise InvalidBlossoming(f"edge {e} has {len(sides) // 2} half-edges")
            v1, s1, v2, s2 = sides
            if items[v1][s1][1] == items[v2][s2][1]:
                raise InvalidBlossoming(f"edge {e} is monochromatic")
            if not _union(parent, v1, v2):
                raise InvalidBlossoming("the plain edges contain a cycle")
        self._set(items, ends)

    @classmethod
    def _trusted(cls, items: tuple[tuple, ...]) -> BlossomingTree:
        """Index items the caller knows to form a valid blossoming tree."""
        tree = object.__new__(cls)
        tree._set(items, _edge_table(items))
        return tree

    def _set(self, items: tuple[tuple, ...], ends: list) -> None:
        self.items = items
        self.n = len(items) - 1
        self._ends = ends
        self._diagram = None

    # -- plane-structure accessors ------------------------------------------

    def slot(self, edge: int, v: int) -> int:
        """Position of the half of ``edge`` in the cyclic sequence of v."""
        v1, s1, _, s2 = self._ends[edge]
        return s1 if v == v1 else s2

    def edge_ends(self, edge: int) -> tuple[int, int]:
        """(blue end, red end) of ``edge``."""
        return self._ends[edge][::2]

    def across(self, edge: int, v: int) -> int:
        """The endpoint of ``edge`` other than v."""
        v1, _, v2, _ = self._ends[edge]
        return v2 if v == v1 else v1

    def neighbors(self, v: int) -> tuple[tuple[int, int], ...]:
        """Pairs (edge, other node) incident to v, in the cyclic order of
        ``items[v]``."""
        return tuple((it[0], self.across(it[0], v)) for it in self.items[v] if it != BUD)

    # -- equality through the closure diagram -------------------------------

    def __eq__(self, other):
        if not isinstance(other, BlossomingTree):
            return NotImplemented
        return to_meandering(self) == to_meandering(other)

    def __hash__(self):
        return hash(to_meandering(self))

    def __repr__(self):
        return f"<BlossomingTree of size {self.n}>"


def _edge_table(items: tuple[tuple, ...]) -> list:
    """Entry e is the flat tuple (node, slot, node, slot) of the half-edges
    of edge e, for the edge ids 0..n-1, blue halves first; an edge of a
    valid tree has exactly two half-edges, one blue and one red."""
    ends: list = [()] * (len(items) - 1)
    for v, seq in enumerate(items):
        for slot, it in enumerate(seq):
            if it != BUD:
                e = it[0]
                ends[e] = (v, slot) + ends[e] if it[1] == BLUE else ends[e] + (v, slot)
    return ends


def to_debug_text(tree: BlossomingTree) -> str:
    """Verbose listing of the plane structure, one node per line."""
    return "\n".join(
        f"node {v}: " + ", ".join("bud" if it == BUD else f"{it[0]}{it[1]}" for it in seq)
        for v, seq in enumerate(tree.items)
    )


# ------------------------------------------------------------------ unfolding


def from_meandering(m: MeanderingDiagram) -> BlossomingTree:
    """Unfold a meandering tree: each black point gets a left and right bud.

    Counterclockwise around black point k the items read: right bud, upper
    arcs by increasing white endpoint (blue), left bud, lower arcs by
    decreasing white endpoint (red); edge e is white point e + 1.  Checks
    that ``m`` is a meandering tree of size n >= 1, whose unfolding is a
    valid blossoming tree by construction.
    """
    if m.n < 1:
        raise UnsupportedSize("blossoming trees have size >= 1")
    if not is_meandering_tree(m):
        raise NotATree("only meandering trees unfold to blossoming trees")
    return _unfold(m)


def _unfold(m: MeanderingDiagram) -> BlossomingTree:
    """``from_meandering`` without the tree test."""
    uppers: list[list] = [[BUD] for _ in range(m.n + 1)]
    lowers: list[list] = [[] for _ in range(m.n + 1)]
    for e, (u, v) in enumerate(zip(m.up, m.lo)):
        uppers[u].append((e, BLUE))
        lowers[v].append((e, RED))
    return BlossomingTree._trusted(
        tuple((*up, BUD, *low[::-1]) for up, low in zip(uppers, lowers))
    )


# -------------------------------------------------------------------- closure


def _contour(tree: BlossomingTree) -> list[int]:
    """The contour word: the 4n + 2 items met counterclockwise around the
    tree from the first item of node 0, ``~v`` for a bud at node v and the
    id e in 0..n-1 for a leg (a crossing) of edge e."""
    items, table = tree.items, tree._ends
    word = []
    v, slot = 0, -1
    for _ in range(4 * tree.n + 2):
        seq = items[v]
        slot = (slot + 1) % len(seq)
        if seq[slot] == BUD:
            word.append(~v)
            continue
        e = seq[slot][0]
        word.append(e)
        v1, s1, v2, s2 = table[e]
        v, slot = (v2, s2) if v == v1 else (v1, s1)
    return word


def _close(word: list[int]) -> list[int]:
    """The meandric path closing a contour word, from the smaller dangling
    node, in the word's letters: ``~v`` for node v, ``e`` for edge e.

    One stack pass matches each leg to the nearest open bud before it; a leg
    that finds none waits for the end of the word, as if the contour went
    round again.  Letter x keeps its two closure neighbors at ``first[x]``
    and ``second[x]``, node letters counting from the end.  By the closure
    theorem two buds stay open, on distinct nodes, and the links form a
    path through all letters (not checked)."""
    first = [0] * (len(word) // 2)
    second = [0] * (len(word) // 2)
    buds, late = [], []
    for t in chain(word, late):
        if t < 0:
            buds.append(t)
        elif buds:
            u = buds.pop()
            first[u], second[u] = t, first[u]
            first[t], second[t] = u, first[t]
        else:
            late.append(t)
    last, x = sorted(buds)  # ~v falls as v grows, so x is the smaller node
    path, before = [x], None
    while x != last:
        y = first[x]
        before, x = x, second[x] if y == before else y
        path.append(x)
    return path


def closure(tree: BlossomingTree) -> tuple:
    """The meandric path of the planar closure, ``_close`` of the contour
    word: node ids at even positions, edge ids at odd positions."""
    return tuple(~x if x < 0 else x for x in _close(_contour(tree)))


def to_meandering(tree: BlossomingTree) -> MeanderingDiagram:
    """Close the tree and stretch its meandric path onto the axis.

    Blue half-edges go above the axis to the black point left of their white
    point, red ones below to the right.  So black point 0 is the blue end of
    white point 1, which orients the path; white point t has arcs to the
    blue and the red end of the path's t-th edge, read from the edge table.
    Closures stretch to meandering trees, so the diagram is built without a
    second check.  The tree keeps it: later calls return the same object."""
    if tree._diagram is not None:
        return tree._diagram
    table = tree._ends
    path = _close(_contour(tree))
    if table[path[1]][0] != ~path[0]:
        path.reverse()
    pos = [0] * (tree.n + 1)
    for k, x in enumerate(path[::2]):
        pos[~x] = k
    edges = path[1::2]
    up = tuple([pos[table[e][0]] for e in edges])
    tree._diagram = _trusted_diagram(up, tuple([pos[table[e][2]] for e in edges]))
    return tree._diagram


# -------------------------------------------------------------- the bijection


def from_interval(interval: TamariInterval) -> BlossomingTree:
    """The bijection from Tamari intervals to bicolored blossoming trees.
    Checks nothing: the diagram of an interval is a meandering tree."""
    return _unfold(from_tree_pair(interval.lower, interval.upper))


def to_interval(tree: BlossomingTree) -> TamariInterval:
    """Inverse bijection: close the tree, then read off the tree pair.
    Checks nothing: closures stretch to meandering trees, which encode intervals."""
    return _trusted_interval(*to_tree_pair(to_meandering(tree)))


# ------------------------------------------------------------------ involutions


def switch_colors(tree: BlossomingTree) -> BlossomingTree:
    """Swap blue and red on every half-edge; transfers interval duality.
    Checks nothing: the definition of the trees is symmetric in the colors."""
    return BlossomingTree._trusted(
        tuple(
            tuple(it if it == BUD else (it[0], BLUE if it[1] == RED else RED) for it in seq)
            for seq in tree.items
        )
    )


def reflect(tree: BlossomingTree) -> BlossomingTree:
    """Mirror the plane structure: reverse every cyclic order, keep colors.
    Checks nothing: the definition of the trees is symmetric under mirroring."""
    return BlossomingTree._trusted(tuple(tuple(reversed(seq)) for seq in tree.items))


def reflect_interval(interval: TamariInterval) -> TamariInterval:
    """The involution on intervals induced by reflecting blossoming trees."""
    return to_interval(reflect(from_interval(interval)))


def is_half_turn_symmetric(tree: BlossomingTree) -> bool:
    """True when switching colors leaves the tree unchanged."""
    return tree == switch_colors(tree)


# ----------------------------------------------------------- local statistics


def bi_degree(tree: BlossomingTree, v: int) -> tuple[int, int]:
    """(blue, red) half-edge counts at node v."""
    colors = [it[1] for it in tree.items[v] if it != BUD]
    return colors.count(BLUE), colors.count(RED)


def node_type(tree: BlossomingTree, v: int) -> str:
    """Joint type of a node: 11 all blue, 00 all red, 10 mixed."""
    blue, red = bi_degree(tree, v)
    return TYPE_11 if red == 0 else TYPE_00 if blue == 0 else TYPE_10


def is_synchronized_tree(tree: BlossomingTree) -> bool:
    """No mixed node; equivalently the two buds are adjacent at every node."""
    return all(node_type(tree, v) != TYPE_10 for v in range(tree.n + 1))


# ------------------------------------------------------------ pattern scanners


def non_modern_edges(tree: BlossomingTree) -> list[int]:
    """Plain edges followed clockwise by another plain edge at both ends.

    Emptiness characterizes the image of modern intervals.
    """
    items = tree.items
    return [
        e
        for e, (v1, s1, v2, s2) in enumerate(tree._ends)
        if items[v1][s1 - 1] != BUD and items[v2][s2 - 1] != BUD
    ]


_Links = list[list[tuple[int, bool, bool]]]


def _good_links(tree: BlossomingTree, clockwise: bool) -> _Links:
    """Links of one direction, from one pass over the edges.

    Per node v the links hold one entry (w, good at v, good at w) per edge
    vw.  A half-edge is good when the next item around its node in that
    direction is another plain half-edge rather than a bud.
    """
    items = tree.items
    step = -1 if clockwise else 1
    links: _Links = [[] for _ in items]
    for v1, s1, v2, s2 in tree._ends:
        seq1, seq2 = items[v1], items[v2]
        good1 = seq1[(s1 + step) % len(seq1)] != BUD
        good2 = seq2[(s2 + step) % len(seq2)] != BUD
        links[v1].append((v2, good1, good2))
        links[v2].append((v1, good2, good1))
    return links


def _scan_paths(tree: BlossomingTree, clockwise: bool) -> list[tuple[int, ...]]:
    """Paths u < w whose half-edges at both ends are good, by u then w.

    From each u one depth-first walk enters only through u's good
    half-edges; a node w > u it reaches through a good half-edge ends a path.
    """
    links = _good_links(tree, clockwise)
    parent = [0] * len(links)
    found = []
    for u, out in enumerate(links):
        targets = []
        stack = []
        for w, good_u, good_w in out:
            if good_u:
                parent[w] = u
                stack.append((w, u, good_w))
        while stack:
            x, p, good_x = stack.pop()
            if good_x and x > u:
                targets.append(x)
            for y, _, good_y in links[x]:
                if y != p:
                    parent[y] = x
                    stack.append((y, x, good_y))
        targets.sort()
        for w in targets:
            path = [w]
            while w != u:
                w = parent[w]
                path.append(w)
            found.append(tuple(reversed(path)))
    return found


def _facing_good_half_edges(tree: BlossomingTree, clockwise: bool) -> bool:
    """True when ``_scan_paths(tree, clockwise)`` is non-empty, in linear time.

    Let T(h) be the side of h's edge that holds h's node.  Two good
    half-edges face each other, ending one path, exactly when their sides
    are disjoint.  Subtrees of a tree that meet pairwise share a node (the
    Helly property), so no two face each other exactly when some node lies
    in every T(h).  ``inside[x]`` counts the T(h) that hold x: at node 0,
    the good halves at the parent end of their edge; across the edge from p
    down to x, the half at p drops out and the half at x comes in.
    """
    links = _good_links(tree, clockwise)
    # (node, parent, good at node, good at parent) of each parent edge
    order = [(0, -1, False, False)]
    for x, p, _, _ in order:
        order.extend((y, x, good_y, good_x) for y, good_x, good_y in links[x] if y != p)
    inside = [0] * len(links)
    inside[0] = sum(good_p for _, _, _, good_p in order)
    total = inside[0] + sum(good_x for _, _, good_x, _ in order)
    for x, p, good_x, good_p in order[1:]:
        inside[x] = inside[p] - good_p + good_x
    return total not in inside


def non_modern_paths(tree: BlossomingTree) -> list[tuple[int, ...]]:
    """Simple paths whose first and last edges are followed clockwise by
    plain edges at the two endpoints; emptiness characterizes the image of
    infinitely modern intervals."""
    return _scan_paths(tree, clockwise=True)


def non_kreweras_paths(tree: BlossomingTree) -> list[tuple[int, ...]]:
    """Same scan with counterclockwise successors; emptiness characterizes
    the image of Kreweras intervals."""
    return _scan_paths(tree, clockwise=False)


# ------------------------------------------------------- trivial-interval test


def trivial_bud_position_check(tree: BlossomingTree) -> bool:
    """True when an edge joins the two ends of the closure and, at every
    node, both buds directly follow the edge pointing toward that central
    edge in counterclockwise order.

    The ends of the closure stretch to black points 0 and n, so the central
    edge is the diagram's arc from 0 to n; it and the edges toward it are
    read on the tree itself.
    """
    path = _close(_contour(tree))
    ends = (~path[0], ~path[-1])
    central = [e for e, w in tree.neighbors(ends[0]) if w == ends[1]]
    if not central:
        return False
    toward = dict.fromkeys(ends, central[0])
    queue = list(ends)
    while queue:
        v = queue.pop()
        for e, w in tree.neighbors(v):
            if w not in toward:
                toward[w] = e
                queue.append(w)
    for v, seq in enumerate(tree.items):
        slot = tree.slot(toward[v], v)
        if seq[(slot + 1) % len(seq)] != BUD or seq[(slot + 2) % len(seq)] != BUD:
            return False
    return True
