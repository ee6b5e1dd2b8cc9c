"""Deterministic SVG rendering of the three drawings.

Output is a pure function of the object and the fixed style constants:
axis points 40 user units apart, semicircular arcs, blue above the axis
and red below, buds as outgoing arrows.  Byte-identical output for equal
inputs makes the figures usable as golden files in regression tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blossoming import BlossomingTree, to_meandering
from .intervals import TamariInterval
from .meandering import MeanderingDiagram
from .trees import smooth_arcs

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


def _document(width: int, height: int, body: list[str]) -> Figure:
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        *body,
        "</svg>",
        "",
    ]
    return Figure(svg="\n".join(lines), width=width, height=height)


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


def _axis(x1: int, x2: int, axis_y: int) -> str:
    return (
        f'<line class="axis" x1="{x1}" y1="{axis_y}" x2="{x2}" y2="{axis_y}" '
        f'stroke="#888888" stroke-width="1"/>'
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
    return _diagram_figure(m, buds=False)


def render_smooth(interval: TamariInterval) -> Figure:
    """Draw the smooth drawing of an interval: upper tree above, lower below."""
    n = interval.n
    width = 2 * MARGIN + n * SPACING
    axis_y = MARGIN + (n * SPACING) // 2
    height = 2 * axis_y
    xs = [MARGIN + k * SPACING for k in range(n + 1)]
    body = [_axis(MARGIN, width - MARGIN, axis_y)]
    for tree, upper in ((interval.upper, True), (interval.lower, False)):
        arc = _arc(axis_y, upper)
        for left, right in smooth_arcs(tree):
            x1, x2 = xs[left], xs[right]
            body.append(arc % (x1, (x2 - x1) // 2, (x2 - x1) // 2, x2))
    point = _point(axis_y, black=True)
    body += [point % x for x in xs]
    return _document(width, max(height, 2 * MARGIN), body)


def render_blossoming(tree: BlossomingTree) -> Figure:
    """Draw a blossoming tree in its meandering layout, buds as arrows."""
    return _diagram_figure(to_meandering(tree), buds=True)


def _diagram_figure(m: MeanderingDiagram, buds: bool) -> Figure:
    """The drawing of diagram m, with two buds at each black point if asked.

    The closure of ``from_interval(interval)`` stretches to
    ``from_tree_pair(interval.lower, interval.upper)``, so an interval's
    blossoming figure needs neither the blossoming tree nor its closure.
    """
    n = m.n
    offset = MARGIN + (BUD_LENGTH + BUD_HEAD if buds else 0)
    axis_y = MARGIN + n * SPACING
    xs = [offset + i * SPACING for i in range(2 * n + 1)]
    body = [_axis(xs[0], xs[-1], axis_y)]
    # one template per white point for its two arcs, and one per black
    # point with the white point after it
    arcs = _arc(axis_y, True) + "\n" + _arc(axis_y, False)
    for white_x, u, v in zip(xs[1::2], m.up, m.lo):
        x1, x2 = xs[2 * u], xs[2 * v]
        r1, r2 = (white_x - x1) // 2, (x2 - white_x) // 2
        body.append(arcs % (x1, r1, r1, white_x, white_x, r2, r2, x2))
    if buds:
        both = _bud(axis_y) + "\n" + _bud(axis_y)
        tip, base = BUD_LENGTH + BUD_HEAD, BUD_LENGTH
        for x in xs[::2]:
            left, right = x - base, x + base
            body.append(both % (x, left, x - tip, left, left, x, right, x + tip, right, right))
    black = _point(axis_y, black=True)
    points = black + "\n" + _point(axis_y, black=False)
    body += [points % pair for pair in zip(xs[::2], xs[1::2])]
    body.append(black % xs[-1])
    return _document(2 * offset + 2 * n * SPACING, max(2 * axis_y, 2 * MARGIN), body)
