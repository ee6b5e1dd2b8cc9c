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


def _arc(x1: int, x2: int, axis_y: int, upper: bool) -> str:
    r = (x2 - x1) // 2
    sweep = 1 if upper else 0
    color = UPPER_COLOR if upper else LOWER_COLOR
    side = "upper" if upper else "lower"
    return (
        f'<path class="arc {side}" d="M {x1} {axis_y} A {r} {r} 0 0 {sweep} '
        f'{x2} {axis_y}" fill="none" stroke="{color}" stroke-width="2"/>'
    )


def _point(x: int, axis_y: int, black: bool) -> str:
    fill = "black" if black else "white"
    kind = "black" if black else "white"
    return (
        f'<circle class="point {kind}" cx="{x}" cy="{axis_y}" r="{POINT_RADIUS}" '
        f'fill="{fill}" stroke="black" stroke-width="1"/>'
    )


def _axis(x1: int, x2: int, axis_y: int) -> str:
    return (
        f'<line class="axis" x1="{x1}" y1="{axis_y}" x2="{x2}" y2="{axis_y}" '
        f'stroke="#888888" stroke-width="1"/>'
    )


def _bud(x: int, axis_y: int, direction: int) -> list[str]:
    tip = x + direction * (BUD_LENGTH + BUD_HEAD)
    base = x + direction * BUD_LENGTH
    return [
        f'<line class="bud" x1="{x}" y1="{axis_y}" x2="{base}" y2="{axis_y}" '
        f'stroke="black" stroke-width="2"/>',
        f'<polygon class="bud-head" points="{tip},{axis_y} {base},{axis_y - 4} '
        f'{base},{axis_y + 4}" fill="black"/>',
    ]


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
    for left, right in smooth_arcs(interval.upper):
        body.append(_arc(xs[left], xs[right], axis_y, upper=True))
    for left, right in smooth_arcs(interval.lower):
        body.append(_arc(xs[left], xs[right], axis_y, upper=False))
    for x in xs:
        body.append(_point(x, axis_y, black=True))
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
    for t in range(1, n + 1):
        white_x = xs[2 * t - 1]
        body.append(_arc(xs[2 * m.up[t - 1]], white_x, axis_y, upper=True))
        body.append(_arc(white_x, xs[2 * m.lo[t - 1]], axis_y, upper=False))
    if buds:
        for x in xs[::2]:
            body.extend(_bud(x, axis_y, -1))
            body.extend(_bud(x, axis_y, +1))
    for i, x in enumerate(xs):
        body.append(_point(x, axis_y, black=i % 2 == 0))
    return _document(2 * offset + 2 * n * SPACING, max(2 * axis_y, 2 * MARGIN), body)
