"""Symmetric twist-box diagrams as standalone SVG.

The drawing is a schematic of the half-turn symmetric form of a two-bridge
knot.  The symmetry axis is the horizontal centerline.  A Type A sequence
puts each odd-position entry on the axis as a two-strand clasp and splits
each even-position entry into two half boxes, mirrored above and below,
woven between the forward strands and an outer return rail.  A Type B
sequence places its palindrome pairs as mirrored arm boxes and the central
entry as an on-axis clasp.

Conventions (fixed: there are no style options):

* one dashed axis line, class "axis";
* every crossing is one <g class="crossing"> holding an under diagonal, a
  background-colored halo disc, and an over diagonal, in that paint order,
  so the under strand appears broken without ever breaking the geometry;
* a positive entry draws the rising diagonal over; below the axis the choice
  flips, which is how a half turn about an in-plane axis carries a crossing
  to its mirror image;
* all coordinates are integers and every primitive is emitted with a
  canonical point order, so reflecting the coordinates across the axis
  reproduces the primitive set exactly.

Output is deterministic: equal input gives byte-identical SVG.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .contfrac import (
    ContinuedFraction,
    ExpansionClass,
    _type_a_violation,
    _type_b_violation,
    classify_type,
)

__all__ = ["TwistBox", "DiagramLayout", "layout", "to_svg"]


@dataclass(frozen=True)
class TwistBox:
    """One twist region: count crossings of one handedness.

    side is +1 above the axis, -1 below, 0 on it.  Split halves and
    palindrome partners appear as separate boxes.
    """

    position: int
    count: int
    handedness: int
    side: int


@dataclass(frozen=True)
class DiagramLayout:
    """Abstract symmetric layout: twist boxes placed about the axis."""

    cf: ContinuedFraction
    expansion_class: ExpansionClass
    twist_boxes: tuple[TwistBox, ...]


_NOT_TYPE_B = ("length is even", "entries are not a signed palindrome", "central entry is even")


def _why_neither(entries: tuple[int, ...]) -> str:
    """The first condition of each class that the entries fail, in words."""
    a, b = _type_a_violation(entries), _type_b_violation(entries)
    why_a = f"entry at position {a} is odd" if a else "length is odd"
    return f"not Type A ({why_a}); not Type B ({_NOT_TYPE_B[b]})"


def layout(cf: ContinuedFraction) -> DiagramLayout:
    """Symmetric box layout of a Type A or Type B sequence.

    Type A: odd positions on the axis, even positions split half and half.
    Type B: the central entry on the axis, positions i and n+1-i mirrored.
    Rejects anything else, naming the failed conditions.
    """
    cls = classify_type(cf)
    if cls is ExpansionClass.NEITHER:
        raise ValueError(f"no symmetric layout: {_why_neither(cf.entries)}")

    e = cf.entries
    boxes: list[TwistBox] = []
    if cls is ExpansionClass.TYPE_A:
        for i, a in enumerate(e, start=1):
            k, s = abs(a), (1 if a > 0 else -1)
            if i % 2:
                boxes.append(TwistBox(i, k, s, 0))
            else:
                boxes.append(TwistBox(i, k // 2, s, +1))
                boxes.append(TwistBox(i, k // 2, s, -1))
    else:
        n = len(e)
        h = (n + 1) // 2
        for i in range(1, h):
            a = e[i - 1]
            k, s = abs(a), (1 if a > 0 else -1)
            boxes.append(TwistBox(i, k, s, +1))
            boxes.append(TwistBox(n + 1 - i, k, s, -1))
        a = e[h - 1]
        boxes.append(TwistBox(h, abs(a), (1 if a > 0 else -1), 0))
    return DiagramLayout(cf, cls, tuple(boxes))


# ---------------------------------------------------------------------------
# The fixed geometry and paint.  Every length is an integer, so each
# coordinate is integral and reflection across the axis is exact.

_D = 12  # half a crossing: a crossing spans 2 * _D
_BAND = 72  # from the axis to the centerline of an off-axis box
_GAP = 24  # between columns
_MARGIN = 84
_HALO = 7
_STRAND = 'fill="none" stroke="#1f2430" stroke-width="3" stroke-linecap="round"'
_AXIS = (
    'fill="none" stroke="#8a93a6" stroke-width="1.5" stroke-linecap="round"'
    ' stroke-dasharray="7 5"'
)
_BACKGROUND = "#ffffff"


# ---------------------------------------------------------------------------
# Element builders.  Each primitive is emitted with its points in canonical
# order (lexicographically smallest end first), so coordinate reflection maps
# the emitted set onto itself without direction bookkeeping.


def _line(p1, p2, cls: str) -> str:
    (x1, y1), (x2, y2) = sorted((p1, p2))
    return f'<line class="{cls}" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {_STRAND}/>'


def _path(points) -> str:
    # points: (P, C1, C2, Q) cubic or (P, C, Q) quadratic, one segment each.
    if points[-1] < points[0]:
        points = points[::-1]
    (x0, y0), *rest = points
    cmd = "C" if len(points) == 4 else "Q"
    tail = " ".join(f"{x} {y}" for x, y in rest)
    return f'<path class="strand" d="M {x0} {y0} {cmd} {tail}" {_STRAND}/>'


def _glyph(cx: int, cy: int, over_rising: bool, pos: int, side: int) -> str:
    rising = ((cx - _D, cy + _D), (cx + _D, cy - _D))
    falling = ((cx - _D, cy - _D), (cx + _D, cy + _D))
    over, under = (rising, falling) if over_rising else (falling, rising)
    return (
        f'<g class="crossing" data-position="{pos}" data-side="{side}">'
        + _line(*under, "strand under")
        + f'<circle class="halo" cx="{cx}" cy="{cy}" r="{_HALO}"'
        f' fill="{_BACKGROUND}" stroke="none"/>'
        + _line(*over, "strand over")
        + "</g>"
    )


class _Connectors:
    """Collects strand connectors, mirroring every piece across the axis."""

    def __init__(self, axis_y: int):
        self.ay = axis_y
        self.parts: list[str] = []

    def _flip(self, pt):
        return (pt[0], 2 * self.ay - pt[1])

    def line(self, p1, p2) -> None:
        for a, b in ((p1, p2), (self._flip(p1), self._flip(p2))):
            self.parts.append(_line(a, b, "strand"))

    def path(self, points) -> None:
        for pts in (points, [self._flip(p) for p in points]):
            self.parts.append(_path(pts))

    def turn(self, p, x, q) -> None:
        """The cubic strand from p out to column x, across to q's height and
        back in to q."""
        self.path([p, (x, p[1]), (x, q[1]), q])

    def s_curve(self, p, q) -> None:
        self.turn(p, (p[0] + q[0]) // 2, q)


def _columns(lay: DiagramLayout):
    """Group boxes into left-to-right columns, each in layout order (Type B
    folds position n + 1 - i onto i), and assign x extents."""
    n = len(lay.cf.entries)
    fold = lay.expansion_class is not ExpansionClass.TYPE_A

    def column(b: TwistBox) -> int:
        return min(b.position, n + 1 - b.position) if fold else b.position

    cols = [list(g) for _, g in groupby(sorted(lay.twist_boxes, key=column), key=column)]
    x = _MARGIN
    placed = []
    for col in cols:
        w = 2 * _D * col[0].count
        placed.append((x, x + w, col))
        x = x + w + _GAP
    return placed, x - _GAP


def to_svg(lay: DiagramLayout) -> str:
    """Render a layout to a standalone SVG document string."""
    d, H, u = _D, _BAND, 2 * _D
    placed, content_right = _columns(lay)
    ay = H + d + _MARGIN
    width = content_right + _MARGIN
    height = 2 * ay

    con = _Connectors(ay)
    ncols = len(placed)
    if lay.expansion_class is ExpansionClass.TYPE_A:
        for i in range(ncols - 1):
            xr = placed[i][1]
            xl = placed[i + 1][0]
            if i % 2 == 0:
                con.s_curve((xr, ay - d), (xl, ay - (H - d)))
            else:
                con.s_curve((xr, ay - (H - d)), (xl, ay - d))
        split_idx = list(range(1, ncols, 2))
        for a, b in zip(split_idx, split_idx[1:]):
            con.line((placed[a][1], ay - (H + d)), (placed[b][0], ay - (H + d)))
        xl0, xrn = placed[0][0], placed[-1][1]
        con.turn((placed[1][0], ay - (H + d)), xl0 - 2 * u, (xl0, ay - d))
        con.turn((xrn, ay - (H - d)), xrn + 2 * u, (xrn, ay - (H + d)))
    else:
        h = ncols
        if h == 1:
            xl, xr = placed[0][0], placed[0][1]
            con.path([(xl, ay - d), (xl - 2 * u, ay - d), (xl - 2 * u, ay)])
            con.path([(xr, ay - d), (xr + 2 * u, ay - d), (xr + 2 * u, ay)])
        else:
            for i in range(h - 2):
                for yy in (ay - (H + d), ay - (H - d)):
                    con.line((placed[i][1], yy), (placed[i + 1][0], yy))
            xl0 = placed[0][0]
            con.turn((xl0, ay - (H + d)), xl0 - 2 * u, (xl0, ay - (H - d)))
            arm_xr = placed[h - 2][1]
            cx_l, cx_r = placed[h - 1][0], placed[h - 1][1]
            con.s_curve((arm_xr, ay - (H - d)), (cx_l, ay - d))
            con.turn((arm_xr, ay - (H + d)), cx_r + 3 * u, (cx_r, ay - d))

    glyphs: list[str] = []
    for xl, _, col in placed:
        for box in col:
            cy = ay - box.side * H
            over_rising = (box.handedness > 0) != (box.side < 0)
            for j in range(box.count):
                cx = xl + d + 2 * d * j
                glyphs.append(_glyph(cx, cy, over_rising, box.position, box.side))

    axis = f'<line class="axis" x1="6" y1="{ay}" x2="{width - 6}" y2="{ay}" {_AXIS}/>'
    entries = ",".join(str(a) for a in lay.cf.entries)
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}">\n'
        f"<title>twist diagram [{entries}]</title>\n"
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="{_BACKGROUND}"/>'
    )
    return "\n".join([head, axis, *con.parts, *glyphs, "</svg>\n"])
