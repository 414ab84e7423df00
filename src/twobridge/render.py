"""Symmetric twist-box diagrams as standalone SVG.

The drawing is a schematic of the half-turn symmetric form of a two-bridge
knot.  The symmetry axis is the horizontal centerline.  A Type A sequence
puts each odd-position entry on the axis as a two-strand clasp and splits
each even-position entry into two half boxes, mirrored above and below,
woven between the forward strands and an outer return rail.  A Type B
sequence places its palindrome pairs as mirrored arm boxes and the central
entry as an on-axis clasp.

Conventions (the style sheet):

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

Output is deterministic: equal input and style give byte-identical SVG.
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

__all__ = ["TwistBox", "DiagramLayout", "SvgStyle", "layout", "to_svg"]


@dataclass(frozen=True)
class TwistBox:
    """One twist region: count crossings of one handedness.

    side is +1 above the axis, -1 below, 0 on it; on-axis boxes always have
    side 0.  Split halves and palindrome partners appear as separate boxes.
    """

    position: int
    count: int
    handedness: int
    on_axis: bool
    side: int


@dataclass(frozen=True)
class DiagramLayout:
    """Abstract symmetric layout; the axis is the line y = axis_y."""

    cf: ContinuedFraction
    expansion_class: ExpansionClass
    axis_y: int
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
                boxes.append(TwistBox(i, k, s, True, 0))
            else:
                boxes.append(TwistBox(i, k // 2, s, False, +1))
                boxes.append(TwistBox(i, k // 2, s, False, -1))
    else:
        n = len(e)
        h = (n + 1) // 2
        for i in range(1, h):
            a = e[i - 1]
            k, s = abs(a), (1 if a > 0 else -1)
            boxes.append(TwistBox(i, k, s, False, +1))
            boxes.append(TwistBox(n + 1 - i, k, s, False, -1))
        a = e[h - 1]
        boxes.append(TwistBox(h, abs(a), (1 if a > 0 else -1), True, 0))
    return DiagramLayout(cf, cls, 0, tuple(boxes))


@dataclass(frozen=True)
class SvgStyle:
    """Geometry and paint constants.  unit must be even; all derived
    coordinates stay integral so mirror symmetry is exact."""

    unit: int = 24
    band_offset: int = 72
    column_gap: int = 24
    margin: int = 84
    halo_radius: int = 7
    stroke_width: float = 3.0
    axis_width: float = 1.5
    strand_color: str = "#1f2430"
    axis_color: str = "#8a93a6"
    background: str = "#ffffff"

    def __post_init__(self) -> None:
        if self.unit < 4 or self.unit % 2:
            raise ValueError("unit must be even and >= 4")
        if self.band_offset < 2 * self.unit or self.band_offset % 2:
            raise ValueError("band_offset must be even and >= 2 * unit")
        if self.column_gap % 2 or self.margin < 3 * self.unit:
            raise ValueError("column_gap must be even, margin >= 3 * unit")
        if not 0 < self.halo_radius < self.unit // 2:
            raise ValueError("halo_radius must fit inside a crossing")


# ---------------------------------------------------------------------------
# Element builders.  Each primitive is emitted with its points in canonical
# order (lexicographically smallest end first), so coordinate reflection maps
# the emitted set onto itself without direction bookkeeping.


def _i(v: int | float) -> str:
    iv = int(v)
    assert iv == v, f"non-integral coordinate {v}"
    return str(iv)


def _line(p1, p2, cls: str, color: str, width: float, dashed: bool = False) -> str:
    (x1, y1), (x2, y2) = sorted((tuple(p1), tuple(p2)))
    dash = ' stroke-dasharray="7 5"' if dashed else ""
    return (
        f'<line class="{cls}" x1="{_i(x1)}" y1="{_i(y1)}" x2="{_i(x2)}" y2="{_i(y2)}"'
        f' fill="none" stroke="{color}" stroke-width="{width:g}"'
        f' stroke-linecap="round"{dash}/>'
    )


def _path(points, cls: str, color: str, width: float) -> str:
    # points: (P, C1, C2, Q) cubic or (P, C, Q) quadratic, one segment each.
    pts = [tuple(p) for p in points]
    if pts[-1] < pts[0]:
        pts = pts[::-1]
    cmd = "C" if len(pts) == 4 else "Q"
    head = f"M {_i(pts[0][0])} {_i(pts[0][1])} {cmd}"
    tail = " ".join(f"{_i(x)} {_i(y)}" for x, y in pts[1:])
    return (
        f'<path class="{cls}" d="{head} {tail}" fill="none" stroke="{color}"'
        f' stroke-width="{width:g}" stroke-linecap="round"/>'
    )


def _circle(cx, cy, r, cls: str, fill: str) -> str:
    return (
        f'<circle class="{cls}" cx="{_i(cx)}" cy="{_i(cy)}" r="{_i(r)}"'
        f' fill="{fill}" stroke="none"/>'
    )


def _glyph(cx: int, cy: int, d: int, over_rising: bool, pos: int, side: int, st: SvgStyle) -> str:
    rising = ((cx - d, cy + d), (cx + d, cy - d))
    falling = ((cx - d, cy - d), (cx + d, cy + d))
    over, under = (rising, falling) if over_rising else (falling, rising)
    return (
        f'<g class="crossing" data-position="{pos}" data-side="{side}">'
        + _line(*under, "strand under", st.strand_color, st.stroke_width)
        + _circle(cx, cy, st.halo_radius, "halo", st.background)
        + _line(*over, "strand over", st.strand_color, st.stroke_width)
        + "</g>"
    )


class _Connectors:
    """Collects strand connectors, mirroring every piece across the axis."""

    def __init__(self, axis_y: int, st: SvgStyle):
        self.ay = axis_y
        self.st = st
        self.parts: list[str] = []

    def _flip(self, pt):
        return (pt[0], 2 * self.ay - pt[1])

    def line(self, p1, p2) -> None:
        for a, b in ((p1, p2), (self._flip(p1), self._flip(p2))):
            self.parts.append(_line(a, b, "strand", self.st.strand_color, self.st.stroke_width))

    def path(self, points) -> None:
        for pts in (points, [self._flip(p) for p in points]):
            self.parts.append(_path(pts, "strand", self.st.strand_color, self.st.stroke_width))

    def s_curve(self, p, q) -> None:
        mx = (p[0] + q[0]) // 2
        self.path([p, (mx, p[1]), (mx, q[1]), q])


def _columns(lay: DiagramLayout, st: SvgStyle):
    """Group boxes into left-to-right columns, each in layout order (Type B
    folds position n + 1 - i onto i), and assign x extents."""
    d = st.unit // 2
    n = len(lay.cf.entries)
    fold = lay.expansion_class is not ExpansionClass.TYPE_A

    def column(b: TwistBox) -> int:
        return min(b.position, n + 1 - b.position) if fold else b.position

    cols = [list(g) for _, g in groupby(sorted(lay.twist_boxes, key=column), key=column)]
    x = st.margin
    placed = []
    for col in cols:
        w = 2 * d * col[0].count
        placed.append((x, x + w, col))
        x = x + w + st.column_gap
    return placed, x - st.column_gap


def to_svg(lay: DiagramLayout, style: SvgStyle | None = None) -> str:
    """Render a layout to a standalone SVG document string."""
    st = style or SvgStyle()
    d = st.unit // 2
    H = st.band_offset
    u = st.unit
    placed, content_right = _columns(lay, st)
    ay = H + d + st.margin
    width = content_right + st.margin
    height = 2 * ay

    con = _Connectors(ay, st)
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
        xl0 = placed[0][0]
        con.path(
            [
                (placed[1][0], ay - (H + d)),
                (xl0 - 2 * u, ay - (H + d)),
                (xl0 - 2 * u, ay - d),
                (xl0, ay - d),
            ]
        )
        xrn = placed[-1][1]
        con.path(
            [
                (xrn, ay - (H - d)),
                (xrn + 2 * u, ay - (H - d)),
                (xrn + 2 * u, ay - (H + d)),
                (xrn, ay - (H + d)),
            ]
        )
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
            con.path(
                [
                    (xl0, ay - (H + d)),
                    (xl0 - 2 * u, ay - (H + d)),
                    (xl0 - 2 * u, ay - (H - d)),
                    (xl0, ay - (H - d)),
                ]
            )
            arm_xr = placed[h - 2][1]
            cx_l, cx_r = placed[h - 1][0], placed[h - 1][1]
            con.s_curve((arm_xr, ay - (H - d)), (cx_l, ay - d))
            con.path(
                [
                    (arm_xr, ay - (H + d)),
                    (cx_r + 3 * u, ay - (H + d)),
                    (cx_r + 3 * u, ay - d),
                    (cx_r, ay - d),
                ]
            )

    glyphs: list[str] = []
    for xl, _, col in placed:
        for box in col:
            cy = ay - box.side * H
            over_rising = (box.handedness > 0) != (box.side < 0)
            for j in range(box.count):
                cx = xl + d + 2 * d * j
                glyphs.append(_glyph(cx, cy, d, over_rising, box.position, box.side, st))

    axis = _line((6, ay), (width - 6, ay), "axis", st.axis_color, st.axis_width, dashed=True)
    entries = ",".join(str(a) for a in lay.cf.entries)
    body = "\n".join([axis, *con.parts, *glyphs])
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}">\n'
        f"<title>twist diagram [{entries}]</title>\n"
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="{st.background}"/>\n'
        f"{body}\n</svg>\n"
    )
