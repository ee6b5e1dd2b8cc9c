"""Deterministic SVG rendering of the three drawings.

Output is a pure function of the object and the fixed style constants:
axis points 40 user units apart, semicircular arcs, blue above the axis
and red below, buds as outgoing arrows.  Byte-identical output for equal
inputs makes the figures usable as golden files in regression tests.

Each figure is one generator of text blocks (``_smooth_blocks``,
``_diagram_blocks``), and each block is one ``_rows`` call: an element
template's literal pieces zipped with string columns of at most ``BLOCK``
rows and joined in C.  The columns are looked up in two tables per
figure: ``sx``, the text of each axis abscissa, and ``radius``, the text
of each arc radius, which share entries: each number's text is made once
per figure.  The command line writes the blocks as they come and never
holds a whole figure; ``Figure.svg`` is their eager join.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, sub
from typing import Iterator

from .blossoming import BlossomingTree, to_meandering
from .intervals import TamariInterval
from .meandering import MeanderingDiagram
from .trees import bracket_vector, dual_bracket_vector

__all__ = [
    "Figure",
    "render_blossoming",
    "render_meandering",
    "render_smooth",
    "save",
]

SPACING = 40
MARGIN = 20
UPPER_COLOR = "blue"
LOWER_COLOR = "red"
POINT_RADIUS = 4
BUD_LENGTH = 14
BUD_HEAD = 6
#: Rows per text block of a streamed figure.
BLOCK = 4096


@dataclass(frozen=True)
class Figure:
    """An SVG document with its pixel dimensions."""

    svg: str
    width: int
    height: int

    def to_bytes(self) -> bytes:
        return self.svg.encode("utf-8")


def save(figure: Figure, path: str) -> None:
    with open(path, "wb") as handle:
        handle.write(figure.to_bytes())


def _frame(points: int, buds: bool) -> tuple[int, int, int]:
    """First abscissa, width and height of a figure with that many axis points."""
    offset = MARGIN + (BUD_LENGTH + BUD_HEAD if buds else 0)
    span = (points - 1) * SPACING
    return offset, 2 * offset + span, 2 * MARGIN + span


def _head(width: int, height: int, x1: str, x2: str) -> str:
    """The document's opening tag and the axis from x1 to x2."""
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<line class="axis" x1="{x1}" y1="{height // 2}" x2="{x2}" y2="{height // 2}" '
        f'stroke="#888888" stroke-width="1"/>\n'
    )


def _rows(template: str, *columns) -> str:
    """One line per row of the string columns, which fill the %d fields of
    ``template`` in order; the rows are zipped and joined in C."""
    pieces = (template + "\n").split("%d")
    fields = [None] * (2 * len(pieces) - 1)
    fields[::2] = map(repeat, pieces)
    fields[1::2] = columns
    return "".join(chain.from_iterable(zip(*fields)))


def _arc(axis_y: int, upper: bool) -> str:
    """Template of one arc on the axis at height ``axis_y``; fill it with
    ``(x1, r, r, x2)``, r = (x2 - x1) // 2."""
    sweep = 1 if upper else 0
    color = UPPER_COLOR if upper else LOWER_COLOR
    side = "upper" if upper else "lower"
    return (
        f'<path class="arc {side}" d="M %d {axis_y} A %d %d 0 0 {sweep} '
        f'%d {axis_y}" fill="none" stroke="{color}" stroke-width="2"/>'
    )


def _point(axis_y: int, black: bool) -> str:
    """Template of one axis point; fill it with its abscissa."""
    fill = "black" if black else "white"
    kind = "black" if black else "white"
    return (
        f'<circle class="point {kind}" cx="%d" cy="{axis_y}" r="{POINT_RADIUS}" '
        f'fill="{fill}" stroke="black" stroke-width="1"/>'
    )


def _bud(axis_y: int) -> str:
    """Template of the two elements of one bud pointing in direction +-1:
    fill it with the abscissa x of its point, then x + direction * d for
    d = 14, 20, 14, 14 (the base, the tip and the head's back corners)."""
    return (
        f'<line class="bud" x1="%d" y1="{axis_y}" x2="%d" y2="{axis_y}" '
        f'stroke="black" stroke-width="2"/>\n'
        f'<polygon class="bud-head" points="%d,{axis_y} %d,{axis_y - 4} '
        f'%d,{axis_y + 4}" fill="black"/>'
    )


def render_meandering(m: MeanderingDiagram) -> Figure:
    """Draw a meandering diagram: 2n + 1 axis points and its 2n arcs."""
    return Figure("".join(_diagram_blocks(m, buds=False)), *_frame(2 * m.n + 1, False)[1:])


def render_smooth(interval: TamariInterval) -> Figure:
    """Draw the smooth drawing of an interval: upper tree above, lower below."""
    return Figure("".join(_smooth_blocks(interval)), *_frame(interval.n + 1, False)[1:])


def render_blossoming(tree: BlossomingTree) -> Figure:
    """Draw a blossoming tree in its meandering layout, buds as arrows."""
    m = to_meandering(tree)
    return Figure("".join(_diagram_blocks(m, buds=True)), *_frame(2 * m.n + 1, True)[1:])


def _smooth_blocks(interval: TamariInterval) -> Iterator[str]:
    """The smooth drawing's text, in blocks of at most ``BLOCK`` rows."""
    n = interval.n
    offset, width, height = _frame(n + 1, False)
    sx = list(map(int.__repr__, range(offset, width - offset + 1, SPACING)))
    # radius[d] is the text of 20d, 0 <= d <= n; as MARGIN == SPACING // 2,
    # odd d = 2k + 1 gives the abscissa sx[k]
    evens = map(int.__repr__, range(0, (n + 1) * SPACING // 2, SPACING))
    radius = list(chain.from_iterable(zip(evens, sx)))
    yield _head(width, height, sx[0], sx[-1])
    for tree, upper in ((interval.upper, True), (interval.lower, False)):
        arc = _arc(height // 2, upper)
        a, b = bracket_vector(tree), dual_bracket_vector(tree)
        for i in range(0, n, BLOCK):
            # node k + 1 spans the leaves k - b_k .. k + 1 + a_k
            left = list(map(sub, range(i, n), b[i : i + BLOCK]))
            right = list(map(add, range(i + 1, n + 1), a[i : i + BLOCK]))
            r = list(map(radius.__getitem__, map(sub, right, left)))
            yield _rows(arc, map(sx.__getitem__, left), r, r, map(sx.__getitem__, right))
    point = _point(height // 2, black=True)
    for i in range(0, n + 1, BLOCK):
        yield _rows(point, sx[i : i + BLOCK])
    yield "</svg>\n"


def _diagram_blocks(m: MeanderingDiagram, buds: bool) -> Iterator[str]:
    """The drawing of diagram m, with two buds at each black point if asked,
    in blocks of at most ``BLOCK`` rows.

    The closure of ``from_interval(interval)`` stretches to
    ``from_tree_pair(interval.lower, interval.upper)``, so an interval's
    blossoming figure needs neither the blossoming tree nor its closure.
    """
    n = m.n
    offset, width, height = _frame(2 * n + 1, buds)
    axis_y = height // 2
    sx = list(map(int.__repr__, range(offset, width - offset + 1, SPACING)))
    black, white = sx[::2], sx[1::2]
    # arcs join points 2k + 1 axis steps apart, 0 <= k < n (up[t] <= t < lo[t]):
    # radius[k] is the text of 20 + 40k.  As BUD_LENGTH + BUD_HEAD == MARGIN ==
    # SPACING // 2, it is sx[k] without buds, and black point j's bud back and
    # front x -+ 20 are radius[2j] and radius[2j + 1] with buds
    radius = list(map(int.__repr__, range(MARGIN, width, SPACING))) if buds else sx
    yield _head(width, height, sx[0], sx[-1])
    # one row per white point for its two arcs
    arcs = _arc(axis_y, True) + "\n" + _arc(axis_y, False)
    for i in range(0, n, BLOCK):
        up, lo = m.up[i : i + BLOCK], m.lo[i : i + BLOCK]
        r1 = list(map(radius.__getitem__, map(sub, range(i, n), up)))
        r2 = list(map(radius.__getitem__, map(sub, lo, range(i + 1, n + 1))))
        wx = white[i : i + BLOCK]
        x1, x2 = map(black.__getitem__, up), map(black.__getitem__, lo)
        yield _rows(arcs, x1, r1, r1, wx, wx, r2, r2, x2)
    if buds:
        # one row per black point for its two buds
        both = _bud(axis_y) + "\n" + _bud(axis_y)
        for i in range(0, n + 1, BLOCK):
            xs = range(offset, width - offset + 1, 2 * SPACING)[i : i + BLOCK]
            left, right = (list(map(int.__repr__, range(xs.start + d, xs.stop + d, xs.step)))
                           for d in (-BUD_LENGTH, BUD_LENGTH))
            back = radius[2 * i : 2 * (i + BLOCK) : 2]
            front = radius[2 * i + 1 : 2 * (i + BLOCK) : 2]
            x = black[i : i + BLOCK]
            yield _rows(both, x, left, back, left, left, x, right, front, right, right)
    # one row per black point with the white point after it, then the last
    points = _point(axis_y, black=True) + "\n" + _point(axis_y, black=False)
    for i in range(0, n, BLOCK):
        yield _rows(points, black[i : i + BLOCK], white[i : i + BLOCK])
    yield _rows(_point(axis_y, black=True), sx[-1:]) + "</svg>\n"
