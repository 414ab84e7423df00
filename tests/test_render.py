import hashlib
import re

import pytest

from svgcheck import axis_y, crossing_groups, parse_primitives, symmetry_defect
from twobridge.contfrac import ContinuedFraction, ExpansionClass, crossing_sum
from twobridge.render import layout, to_svg


def cf(*entries):
    return ContinuedFraction(tuple(entries))


class TestLayout:
    def test_type_a_worked_example(self):
        lay = layout(cf(1, 2, -2, -2))
        assert lay.expansion_class is ExpansionClass.TYPE_A
        on_axis = {(b.position, b.count) for b in lay.twist_boxes if b.side == 0}
        split = [(b.position, b.count, b.side) for b in lay.twist_boxes if b.side != 0]
        assert on_axis == {(1, 1), (3, 2)}
        assert sorted(split) == [(2, 1, -1), (2, 1, 1), (4, 1, -1), (4, 1, 1)]
        assert sum(b.count for b in lay.twist_boxes) == crossing_sum(lay.cf)

    def test_type_b_palindrome(self):
        lay = layout(cf(3, 1, 3))
        assert lay.expansion_class is ExpansionClass.TYPE_B
        center = [b for b in lay.twist_boxes if b.side == 0]
        arms = [b for b in lay.twist_boxes if b.side != 0]
        assert len(center) == 1 and center[0].count == 1 and center[0].position == 2
        assert sorted((b.position, b.count, b.side) for b in arms) == [
            (1, 3, 1),
            (3, 3, -1),
        ]

    def test_handedness_recorded(self):
        lay = layout(cf(1, -4))
        box = [b for b in lay.twist_boxes if b.side == 1][0]
        assert box.handedness == -1
        assert box.count == 2

    def test_rejects_neither_naming_both_conditions(self):
        with pytest.raises(ValueError, match=r"not Type A .*odd.*not Type B"):
            layout(cf(2, 1, 1, 2))

    @pytest.mark.parametrize(
        "entries,why",
        [
            ((1, 1), "not Type A (entry at position 2 is odd); not Type B (length is even)"),
            ((1, 2, 1), "not Type A (length is odd); not Type B (central entry is even)"),
            (
                (1, 2, 3),
                "not Type A (length is odd); not Type B (entries are not a signed palindrome)",
            ),
            ((1, 3, 1, 2), "not Type A (entry at position 2 is odd); not Type B (length is even)"),
            ((2, 2, 1, 1), "not Type A (entry at position 4 is odd); not Type B (length is even)"),
        ],
    )
    def test_rejection_text(self, entries, why):
        with pytest.raises(ValueError) as err:
            layout(cf(*entries))
        assert str(err.value) == f"no symmetric layout: {why}"

    def test_step1_scan_words_no_rejection(self, monkeypatch):
        # Only layout words a failed shape; the rung scan over every
        # candidate of every knot through c = 10 must not.
        import twobridge.render as render
        from twobridge.knot import enumerate_knots
        from twobridge.solver import c2

        def boom(entries):
            raise AssertionError(f"worded {entries}")

        monkeypatch.setattr(render, "_why_neither", boom)
        with pytest.raises(AssertionError, match="worded"):
            layout(cf(1, 1))
        for c in range(3, 11):
            for k in enumerate_knots(c):
                c2(k)

    def test_crossing_sum_invariant(self):
        for entries in [(1, 2), (5,), (3, 1, 3), (2, 6, 1, 4), (1, 2, 1, 2, 1)]:
            lay = layout(cf(*entries))
            assert sum(b.count for b in lay.twist_boxes) == crossing_sum(lay.cf)


SYMMETRY_CASES = [
    (1, 2, -2, -2),
    (2, -2, -2, 2),
    (1, 4),
    (-1, 2),
    (2, 2),
    (2, 6, 1, 4),
    (1, 2, 1, 2, 1),
    (3, 1, 3),
    (3, -1, 3),
    (5,),
    (-3,),
    (1, 2, 3, 2, 1),
]


class TestSvg:
    @pytest.mark.parametrize("entries", SYMMETRY_CASES, ids=repr)
    def test_mirror_symmetry(self, entries):
        svg = to_svg(layout(cf(*entries)))
        assert symmetry_defect(svg) == []

    @pytest.mark.parametrize("entries", SYMMETRY_CASES, ids=repr)
    def test_glyph_counts(self, entries):
        c = cf(*entries)
        svg = to_svg(layout(c))
        groups = crossing_groups(svg)
        assert len(groups) == crossing_sum(c)
        on_axis = sum(1 for g in groups if g["side"] == 0)
        n = len(entries)
        if len(entries) % 2 == 0:
            want = sum(abs(a) for i, a in enumerate(entries, 1) if i % 2)
        else:
            want = abs(entries[(n - 1) // 2])
        assert on_axis == want
        ay = axis_y(svg)
        for g in groups:
            assert (g["center"][1] == ay) == (g["side"] == 0)

    def test_worked_example_counts(self):
        svg = to_svg(layout(cf(1, 2, -2, -2)))
        groups = crossing_groups(svg)
        assert len(groups) == 7
        assert sum(1 for g in groups if g["side"] == 0) == 3

    def test_palindrome_counts(self):
        svg = to_svg(layout(cf(3, 1, 3)))
        groups = crossing_groups(svg)
        assert len(groups) == 7
        assert sum(1 for g in groups if g["side"] == 0) == 1

    def test_deterministic(self):
        a = to_svg(layout(cf(1, 2, -2, -2)))
        b = to_svg(layout(cf(1, 2, -2, -2)))
        assert a == b

    def test_exactly_one_axis_line(self):
        svg = to_svg(layout(cf(3, 1, 3)))
        prims = parse_primitives(svg)
        assert sum(1 for p in prims if p[1] == "axis") == 1

    def test_halo_per_crossing(self):
        c = cf(2, 6, 1, 4)
        svg = to_svg(layout(c))
        prims = parse_primitives(svg)
        halos = [p for p in prims if p[0] == "circle" and p[1] == "halo"]
        assert len(halos) == crossing_sum(c)

    @pytest.mark.parametrize(
        "entries,digest",
        [
            ((1, 2, -2, -2), "9568d74c61f2964da3b1bfb5b3ad7876acdeee9b8a75efb4ebd2d82df6dccda5"),
            ((3, 1, 3), "59697088b90218f55a894216a9db1efe206efefceacaea3f7c6e04d65ba57a6f"),
            ((5,), "9ecb0c2490848156d34de8f3af49e3d7edb814570e9e6c5e77f2956d2af346e5"),
            ((-3,), "7eac8d9823367fdbcdba811d520e7e53ddf83512e66e87e8beada3f3824bdf95"),
            ((2, 6, 1, 4), "6a7c07c812658533ef522689f22d3c76994688cd7bdca6212c5d7d955a011e5b"),
            ((1, 2, 3, 2, 1), "e7b7ab7763caa1e0e6b72368c3c52ca79a8baff0e53a454636c0d1af6e190825"),
            ((3, -1, 3), "5859054fdefd289640c5ed18451bbf38988bf0dcee465e62ded5646e012421c2"),
            # Type A with one split column: no split-to-split rail
            ((1, 2), "52e73e0526837507b8f641d9c250759e3bf10d8aff5512c99cb1a07cc99802a4"),
            # Type B with four columns: two arm links
            (
                (2, 1, 1, 3, 1, 1, 2),
                "4254a574358f664154b66d17432c76c52ba6f16253adbdc48c12144a9fc68e75",
            ),
            # the c2 witness of K(100003,16668)
            (
                (5, 2, -1, -3332, 2, 2),
                "57ae34b60766d5856e70c98377abbf77216c61cd0c25fe92dbdda1412e010bd7",
            ),
        ],
        ids=repr,
    )
    def test_pinned_bytes(self, entries, digest):
        svg = to_svg(layout(cf(*entries)))
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == digest

    def test_all_coordinates_integral(self):
        # parse_primitives raises on any non-integral coordinate
        parse_primitives(to_svg(layout(cf(2, 6, 1, 4))))

    def test_long_palindrome_columns(self):
        # 9,999 ones, just under the CLI's render limit: every crossing is
        # drawn once, column by column, arm pairs before the center.
        n = 9_999
        svg = to_svg(layout(cf(*[1] * n)))
        assert svg.count('<g class="crossing"') == n
        positions = [int(x) for x in re.findall(r'data-position="(\d+)"', svg)]
        h = (n + 1) // 2
        assert positions == [x for i in range(1, h) for x in (i, n + 1 - i)] + [h]
