import dataclasses
import errno
import hashlib
import json
from pathlib import Path

import pytest

from conftest import EXPECTED_TABLE
from test_lemmas import _PARITY_STEP
from twobridge.cli import main
from twobridge.knot import _families, canonicalize, crossing_number, enumerate_knots
from twobridge.solver import _solve, solve_many
from twobridge.table import (
    ALGORITHM_VERSION,
    CrossCheckError,
    TableRow,
    build_table,
    table_row,
)


class TestEnumerateKnots:
    @pytest.mark.parametrize("c,count", [(3, 1), (7, 7), (10, 45), (14, 693)])
    def test_counts(self, c, count):
        assert len(enumerate_knots(c)) == count

    def test_trefoil(self):
        assert enumerate_knots(3) == {canonicalize(3, 2)}

    def test_members_have_the_right_crossing_number(self):
        for c in range(3, 11):
            for k in enumerate_knots(c):
                assert crossing_number(k) == c

    def test_disjoint_across_crossing_numbers(self):
        seen = set()
        for c in range(3, 12):
            ks = enumerate_knots(c)
            assert not (ks & seen)
            seen |= ks

    def test_rejects_small_c(self):
        with pytest.raises(ValueError):
            enumerate_knots(2)


class TestTableRow:
    def test_pinned_rows(self):
        assert table_row(6).offsets == {0: 2, 1: 1}
        assert table_row(10).offsets == {0: 17, 1: 25, 2: 3}

    def test_validation(self):
        with pytest.raises(ValueError):
            TableRow(5, 2, {1: 2})  # j = 0 key missing
        with pytest.raises(ValueError):
            TableRow(5, 2, {0: 1})  # counts do not sum
        with pytest.raises(ValueError):
            TableRow(5, 2, {0: 2, -1: 0})  # negative offset
        with pytest.raises(ValueError):
            TableRow(5, 2, {0: 3, 1: -1})  # negative count
        with pytest.raises(ValueError):
            TableRow(5, 2, {0: 2, 7: 0})  # zero count past offset 0
        assert TableRow(5, 0, {0: 0}).offsets == {0: 0}

    def test_json_round_trip(self):
        row = table_row(8)
        again = TableRow.from_json_dict(json.loads(json.dumps(row.to_json_dict())))
        assert again == row


class TestBuildTable:
    def test_matches_expected_census(self):
        rows = build_table(3, 12)
        assert [r.c for r in rows] == list(range(3, 13))
        for r in rows:
            count, offsets = EXPECTED_TABLE[r.c]
            assert r.two_bridge_count == count
            assert {j: n for j, n in r.offsets.items() if n} == offsets

    def test_cross_check_passes(self):
        build_table(3, 8, cross_check=True)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            build_table(3, 2)
        with pytest.raises(ValueError):
            build_table(2, 5)

    def test_cross_check_detects_corruption(self, monkeypatch):
        victim = min(enumerate_knots(6))
        _corrupt(monkeypatch, {victim})
        with pytest.raises(CrossCheckError) as exc:
            build_table(6, 6, cross_check=True)
        assert exc.value.knot is not None
        assert exc.value.direct != exc.value.oracle

    def test_cross_check_names_the_least_row_first(self, monkeypatch, capsys):
        # Rows 6 and 7 both disagree, row 7 at a smaller knot; the error
        # names the row-6 knot.
        six, seven = max(enumerate_knots(6)), min(enumerate_knots(7))
        _corrupt(monkeypatch, {six, seven})
        with pytest.raises(CrossCheckError) as exc:
            build_table(6, 7, cross_check=True)
        assert exc.value.knot == six
        # The library's message is the CLI's exit-4 line.
        assert str(exc.value) == "cross-check failed at K(13,8): stepwise gave 8, sweep gave 7"
        assert main(["table", "--min", "6", "--max", "7", "--cross-check"]) == 4
        # The stepwise solve, corrupted to report c2 + 1, against the sweep.
        assert capsys.readouterr().err == (
            "cross-check failed at K(13,8): stepwise gave 8, sweep gave 7\n"
        )


def _corrupt(monkeypatch, victims):
    """Make build_table's per-record solve report value + 1 for the victims."""
    import twobridge.table as table

    real = table._solve

    def corrupt(fam, *args):
        res = real(fam, *args)
        if fam[0] in victims:
            res = dataclasses.replace(
                res, value=res.value + 1, semi_even_bound=res.semi_even_bound + 1
            )
        return res

    monkeypatch.setattr(table, "_solve", corrupt)


# Rows 17..21 as README's CI section prints them, and row 22 as the per-knot
# solve built it before rows were counted.
LARGE_ROWS = {
    17: (5504, {0: 694, 1: 1830, 2: 2277, 3: 619, 4: 84}),
    18: (10965, {0: 923, 1: 3667, 2: 3965, 3: 2212, 4: 188, 5: 10}),
    19: (21931, {0: 1767, 1: 5826, 2: 9207, 3: 4096, 4: 1023, 5: 12}),
    20: (43776, {0: 2464, 1: 11200, 2: 15704, 3: 12069, 4: 2109, 5: 230}),
    21: (87552, {0: 4521, 1: 17965, 2: 34269, 3: 21904, 4: 8429, 5: 452, 6: 12}),
    22: (174933, {0: 6509, 1: 33437, 2: 57973, 3: 57263, 4: 16560, 5: 3155, 6: 36}),
}


def _mul2(m, n):
    """m n mod 2, each matrix (a, b, c, d) standing for [[a, b], [c, d]]."""
    (a, b, c, d), (e, f, g, h) = m, n
    return (a * e + b * g) % 2, (a * f + b * h) % 2, (c * e + d * g) % 2, (c * f + d * h) % 2


def _reference_rows(c_max):
    """{c: row c's offsets} for c = 3..c_max, by a dict-keyed dynamic program
    over the parity words of compositions that shares no code with
    ``table._states`` or ``table._carry_counts``.

    A prefix of b = [a1, .., an] (a1, an >= 2) is read one unit at a time.
    Its key is (M, gq, f, y, X, Y) and the open last entry's class (1, even,
    or odd >= 3).  M is the closed entries' continuant matrix mod 2, as
    (p, r, q, s).  gq guesses q's parity, and f runs ``_PARITY_STEP`` from F
    or X as gq is 0 or 1.  y runs it backwards from a guessed end, so at b's
    end it is the start of the run over reversed(b), which must be F or X as
    r is even or odd.  X and Y count their carries.  A knot with no
    palindromic b is counted twice, at min(X, Y), once by b and once by
    reversed(b).

    Every closed prefix h is also the half of the palindromes
    h + reversed(h) and h + [m] + reversed(h), with M(reversed(h)) = M(h)^T.
    Where the run over h (and m) ends at y, the run over reversed(h)
    continues it, so X = X_h (+ m's carry) + Y_h.  Each such knot is moved
    from X to its c2 - c by Lemma C: 0 for odd m, X otherwise."""
    back = {(_PARITY_STEP[f][a], a): f for f in range(3) for a in (0, 1)}

    def close(key, a):  # the open entry ends, with parity a
        m, gq, f, y, x, yc = key
        f = _PARITY_STEP[f][a]
        return _mul2(m, (a, 1, 1, 0)), gq, f, back[y, a], x + (f == 2), yc + (y == 2)

    empty = {((1, 0, 0, 1), gq, 2 * gq, end, 0, 0): 1 for gq in (0, 1) for end in range(3)}
    layer = {(key, 2): n for key, n in empty.items()}  # a1 = 2, still open
    halves, twice = {0: empty}, {c: {} for c in range(3, c_max + 1)}
    for s in range(2, c_max + 1):
        halves[s], grown = {}, {}
        for (key, last), n in layer.items():
            closed = close(key, last % 2)
            halves[s][closed] = halves[s].get(closed, 0) + n
            (p, r, q, _), gq, _, y, x, yc = closed
            if s > 2 and last > 1 and p and q == gq and y == 2 * r:
                twice[s][min(x, yc)] = twice[s].get(min(x, yc), 0) + n
            bigger = key, 3 if last == 2 else 2  # the open entry grows by 1
            grown[bigger] = grown.get(bigger, 0) + n
        for closed, n in halves[s].items():
            grown[closed, 1] = grown.get((closed, 1), 0) + n  # a new entry opens at 1
        layer = grown
    for t, half in halves.items():
        for centre in (None, 0, 1):  # no centre, or m's parity
            sizes = [2 * t] if centre is None else range(2 * t + 2 - centre, c_max + 1, 2)
            sizes = [c for c in sizes if 3 <= c <= c_max]
            for (m, gq, f, y, x, yc), n in half.items():
                mid, carry = m, 0
                if centre is not None:
                    mid, f = _mul2(m, (centre, 1, 1, 0)), _PARITY_STEP[f][centre]
                    carry = f == 2
                pb, _, qb, _ = _mul2(mid, (m[0], m[2], m[1], m[3]))  # times M(h)^T
                if f == y and pb and qb == gq:
                    xb = x + carry + yc
                    j = 0 if centre == 1 else xb  # Lemma C
                    for c in sizes:
                        twice[c][xb] -= n
                        twice[c][j] = twice[c].get(j, 0) + 2 * n
    assert all(n % 2 == 0 for row in twice.values() for n in row.values())
    return {
        c: {j: n // 2 for j, n in sorted({0: 0, **row}.items()) if n or not j}
        for c, row in twice.items()
    }


class TestCount:
    """Each row is counted over compositions (``table._carry_counts``), with
    the palindromes moved by Lemma C; these pin the count."""

    def test_counted_rows_are_the_solved_tally_to_18(self):
        for row in build_table(3, 18):
            tally = {0: 0}
            for fam in _families(row.c):
                j = _solve(fam).value - row.c
                tally[j] = tally.get(j, 0) + 1
            assert row.offsets == tally, row.c

    def test_rows_17_to_22(self):
        rows = build_table(17, 22)
        assert {r.c: (r.two_bridge_count, r.offsets) for r in rows} == LARGE_ROWS

    def test_readme_prints_rows_17_to_21(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        for c, (n, offsets) in LARGE_ROWS.items():
            if c < 22:
                line = ",".join(map(str, [c, n, *offsets.values()]))
                assert f"\n{line}\n" in readme or f"\n{line},0\n" in readme, c

    def test_every_row_to_120_has_its_knot_count(self):
        # Past the pinned rows, each counted row still meets its
        # Ernst-Sumners size (build_table raises otherwise), which shares
        # no code with the count.
        rows = build_table(3, 120)
        assert rows[40 - 3].two_bridge_count == 45_813_071_872
        assert [r.c for r in rows] == list(range(3, 121))

    def test_the_count_runs_over_12_states(self):
        # A state is the prefix's matrix mod 2, one of the 6 of SL_2(F_2),
        # and the guessed parity of q: the 2 seeds reach 6 * 2 states.
        import twobridge.table as table

        keys, steps = table._states()
        assert len(keys) == len(set(keys)) == 12
        assert set(keys) == {
            (m, gq)
            for m in ((1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 0))
            for gq in (0, 1)
        }
        assert keys[:2] == (((1, 0, 0, 1), 0), ((1, 0, 0, 1), 1))
        for a in (0, 1):
            assert sorted(i for i, _, _ in steps[a]) == list(range(12))  # a permutation
            assert all(keys[i][1] == keys[j][1] for j, (i, _, _) in enumerate(steps[a]))

    def test_rows_to_60_equal_an_independent_count(self):
        # The reference shares no code with the count, and covers every row
        # the digest below pins.
        reference = _reference_rows(60)
        assert reference[10] == {0: 17, 1: 25, 2: 3}
        assert {r.c: r.offsets for r in build_table(3, 60)} == reference

    def test_rows_23_to_60_keep_their_digest(self):
        # Past the pinned rows only the Ernst-Sumners sizes checked the
        # count; this pins every offset of rows 23..60 as counted today.
        rows = build_table(23, 60)
        text = json.dumps([r.to_json_dict() for r in rows]).encode()
        assert hashlib.sha256(text).hexdigest() == (
            "960d1de65f4ede5a32ee577ac7e61c5db97bcb09ead6fa142aaa1d3d0c9b286b"
        )

    def test_cross_check_catches_a_miscount(self, monkeypatch, tmp_path):
        # One knot of row 7 counted one offset too high: the row keeps its
        # size, so only the solved tally can tell.
        import twobridge.table as table

        real = table._carry_counts

        def miscount(c_max):
            counts = real(c_max)
            counts[7][0] -= 2  # a knot with no palindromic b is counted twice
            counts[7][1] = counts[7].get(1, 0) + 2
            return counts

        path = table._cache_path(tmp_path)
        build_table(3, 4, cache_dir=tmp_path)
        before = path.read_text()
        monkeypatch.setattr(table, "_carry_counts", miscount)
        assert build_table(7, 7)[0].offsets == {0: 6, 1: 1}
        with pytest.raises(RuntimeError, match="row 7 counts"):
            build_table(3, 8, cross_check=True, cache_dir=tmp_path)
        # Rows 3..6 agreed, but a build that raises writes nothing.
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]


def _json_rows(*rows: str) -> str:
    """A cache file's text in its own spelling, one row per argument."""
    return "[\n" + ",\n".join(rows) + "\n]\n"


def _json_row(c: int, count: int, offsets: dict[str, int]) -> str:
    body = ",\n".join(f'      "{j}": {n}' for j, n in offsets.items())
    return f'  {{\n    "c": {c},\n    "count": {count},\n    "offsets": {{\n{body}\n    }}\n  }}'


def _must_not_count(c_max):
    raise AssertionError(f"rows to {c_max} were counted, not read from the cache")


class TestCache:
    def test_write_then_read(self, tmp_path, monkeypatch):
        import twobridge.table as table

        rows = build_table(5, 6, cache_dir=tmp_path)
        path = tmp_path / f"rows.v{ALGORITHM_VERSION}.json"
        assert list(tmp_path.iterdir()) == [path]
        five, six = _json_row(5, 2, {"0": 2}), _json_row(6, 3, {"0": 2, "1": 1})
        assert path.read_text() == _json_rows(five, six)

        # Second pass must not recompute: make recomputation explode.
        monkeypatch.setattr(table, "_carry_counts", _must_not_count)
        assert build_table(5, 6, cache_dir=tmp_path) == rows

    def test_failed_replace_leaves_previous_row(self, tmp_path, monkeypatch):
        import twobridge.table as table

        real_replace = table.os.replace

        def fail(src, dst):
            raise OSError("simulated crash before the rename")

        path = tmp_path / f"rows.v{ALGORITHM_VERSION}.json"
        monkeypatch.setattr(table.os, "replace", fail)
        with pytest.raises(OSError):
            build_table(5, 5, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

        monkeypatch.setattr(table.os, "replace", real_replace)
        build_table(5, 5, cache_dir=tmp_path)
        before = path.read_text()
        monkeypatch.setattr(table.os, "replace", fail)
        with pytest.raises(OSError):
            build_table(5, 6, cache_dir=tmp_path)
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_leaves_the_directory(self, tmp_path, monkeypatch):
        import twobridge.table as table

        build_table(5, 5, cache_dir=tmp_path)
        path = table._cache_path(tmp_path)
        before = path.read_text()
        real_fdopen, real_unlink, unlinked = table.os.fdopen, Path.unlink, []

        def full_disk(fd, *args, **kwargs):
            fh = real_fdopen(fd, *args, **kwargs)

            def write(text):
                raise OSError(errno.ENOSPC, "simulated full disk")

            fh.write = write
            return fh

        def spy(self, *args, **kwargs):
            unlinked.append(self.name)
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", spy)
        monkeypatch.setattr(table.os, "fdopen", full_disk)
        with pytest.raises(OSError, match="full disk"):
            build_table(5, 6, cache_dir=tmp_path)
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]
        assert [name.endswith(".tmp") for name in unlinked] == [True]  # as the write raised
        monkeypatch.setattr(table.os, "fdopen", real_fdopen)
        build_table(5, 6, cache_dir=tmp_path)
        assert len(unlinked) == 1  # a write that succeeds unlinks nothing
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "text",
        [
            "{ not json",
            '[{"c": 5, "count": 2, "offsets": [2]}]',
            '[{"c": 5, "count": 2, "offsets": null}]',
            "[5, 2, {}]",
            '[{"c": Infinity, "count": 2, "offsets": {"0": 2}}]',
            "[" * 100_000,
            '[{"c": 5, "count": true, "offsets": {"0": true}}]',
            '[{"c": 5.9, "count": 2.5, "offsets": {"0": 2.7}}]',
            '[{"c": "5", "count": "2", "offsets": {"0": "2"}}]',
            _json_rows(_json_row(5, 2, {"0": 3, "1": -1})),
            _json_rows(_json_row(5, 2, {"0": 2, "7": 0})),
            _json_rows(_json_row(5, 3, {"0": 3})),
            # A row file of ALGORITHM_VERSION 1, well-formed in its own layout.
            '{\n  "c": 5,\n  "count": 2,\n  "offsets": {\n    "0": 2\n  }\n}\n',
            _json_rows(_json_row(5, 2, {"0": 2})).replace("\n]", "\n"),
        ],
        ids=[
            "not-json", "offsets-list", "offsets-null", "top-level-list", "c-infinite", "too-deep",
            "booleans", "floats", "strings", "negative-count", "zero-count", "wrong-count",
            "v1-row", "torn",
        ],
    )
    def test_corrupt_cache_is_rebuilt(self, tmp_path, text):
        build_table(5, 5, cache_dir=tmp_path)
        path = tmp_path / f"rows.v{ALGORITHM_VERSION}.json"
        good = path.read_text()
        path.write_text(text)
        rows = build_table(5, 5, cache_dir=tmp_path)
        assert rows[0].two_bridge_count == 2
        # and the bad file was replaced with a good one
        assert json.loads(path.read_text())[0]["c"] == 5
        assert path.read_text() == good

    def test_row_short_of_its_count_raises(self, tmp_path, monkeypatch):
        # Row sizes come from the closed form, not the count: a knot the
        # count drops raises, and the build writes no row.
        import twobridge.table as table

        real = table._carry_counts

        def short(c_max):
            counts = real(c_max)
            counts[6][0] -= 2  # a knot with no palindromic b is counted twice
            return counts

        path = table._cache_path(tmp_path)
        build_table(3, 4, cache_dir=tmp_path)
        before = path.read_text()
        monkeypatch.setattr(table, "_carry_counts", short)
        with pytest.raises(RuntimeError, match="short"):
            build_table(5, 6, cache_dir=tmp_path)
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_mismatched_cache_content_is_ignored(self, tmp_path, monkeypatch):
        # Every row well-formed, but c not strictly ascending: the whole
        # file is a miss, row 6 included.
        import twobridge.table as table

        build_table(5, 6, cache_dir=tmp_path)
        path = table._cache_path(tmp_path)
        good = path.read_text()
        five, six = _json_row(5, 2, {"0": 2}), _json_row(6, 3, {"0": 2, "1": 1})
        real, counted = table._carry_counts, []

        def spy(c_max):
            counted.append(c_max)
            return real(c_max)

        monkeypatch.setattr(table, "_carry_counts", spy)
        for text in (_json_rows(six, five), _json_rows(five, five, six)):
            path.write_text(text)
            rows = build_table(6, 6, cache_dir=tmp_path)
            assert rows == [TableRow(6, 3, {0: 2, 1: 1})]
            assert path.read_text() == _json_rows(six)
        assert counted == [6, 6]
        assert good == _json_rows(five, six)

    def test_cross_check_bypasses_cache_read(self, tmp_path):
        import twobridge.table as table

        build_table(5, 6, cache_dir=tmp_path)
        path = table._cache_path(tmp_path)
        # Row 6 tampered to keep its knot count: only the cross-check can tell.
        rows = json.loads(path.read_text())
        rows[1]["offsets"] = {"0": 3}
        path.write_text(json.dumps(rows, indent=2) + "\n")
        assert build_table(6, 6, cache_dir=tmp_path)[0].offsets == {0: 3}
        rows = build_table(5, 6, cross_check=True, cache_dir=tmp_path)
        assert [r.offsets for r in rows] == [{0: 2}, {0: 2, 1: 1}]
        assert path.read_text() == table._rows_text(rows)

    def test_cold_build_replaces_once(self, tmp_path, monkeypatch):
        import twobridge.table as table

        real, renamed = table.os.replace, []

        def spy(src, dst):
            renamed.append(Path(dst).name)
            return real(src, dst)

        monkeypatch.setattr(table.os, "replace", spy)
        cold = build_table(3, 16, cache_dir=tmp_path / "cache")
        assert renamed == ["rows.v2.json"]
        assert [p.name for p in (tmp_path / "cache").iterdir()] == ["rows.v2.json"]
        assert cold == build_table(3, 16)

    def test_warm_build_counts_and_writes_nothing(self, tmp_path, monkeypatch):
        import twobridge.table as table

        cold = build_table(3, 16, cache_dir=tmp_path)

        def no_write(src, dst):
            raise AssertionError(f"a warm build wrote {dst}")

        monkeypatch.setattr(table, "_carry_counts", _must_not_count)
        monkeypatch.setattr(table.os, "replace", no_write)
        assert build_table(3, 16, cache_dir=tmp_path) == cold

    def test_rows_outside_the_range_are_not_checked(self, tmp_path, monkeypatch):
        # A cached row far past the range is kept but never sized: its
        # Ernst-Sumners count would have about 300,000 digits.
        import twobridge.table as table

        rows = [*build_table(3, 8), TableRow(10**6, 1, {0: 1})]
        path = table._cache_path(tmp_path)
        path.write_text(table._rows_text(rows))
        real, sized = table._knot_count, []

        def spy(c):
            sized.append(c)
            return real(c)

        monkeypatch.setattr(table, "_knot_count", spy)
        monkeypatch.setattr(table, "_carry_counts", _must_not_count)
        assert build_table(3, 8, cache_dir=tmp_path) == rows[:-1]
        assert sized == list(range(3, 9))
        assert path.read_text() == table._rows_text(rows)


class TestSharedSweep:
    """build_table counts each row it computes, solves no knot unless asked
    to cross-check, and writes each row as it completes."""

    def test_cached_rows_are_not_solved(self, monkeypatch, tmp_path):
        import twobridge.table as table

        cold = build_table(4, 8)
        build_table(5, 5, cache_dir=tmp_path)
        build_table(7, 7, cache_dir=tmp_path)
        assert [r["c"] for r in json.loads(table._cache_path(tmp_path).read_text())] == [5, 7]
        real_count, real_solve, solved = table._carry_counts, table._solve, []

        def recount(c_max):  # rows 5 and 7 come from the file, or the build raises
            counts = real_count(c_max)
            counts[5] = counts[7] = None
            return counts

        def resolve(fam):
            solved.append(fam[1])
            return real_solve(fam)

        monkeypatch.setattr(table, "_carry_counts", recount)
        monkeypatch.setattr(table, "_solve", resolve)
        assert build_table(4, 8, cache_dir=tmp_path) == cold
        assert table._cache_path(tmp_path).read_text() == table._rows_text(cold)
        assert solved == []  # Lemma C counts the palindromes too

    def test_census_solves_no_knot(self, monkeypatch):
        import twobridge.solver as solver
        import twobridge.table as table

        solved, real = [], solver._solve

        def spy(fam):
            solved.append(fam)
            return real(fam)

        for module in (solver, table):
            monkeypatch.setattr(module, "_solve", spy)
        rows = build_table(3, 22)
        assert {r.c: (r.two_bridge_count, r.offsets) for r in rows[14:]} == LARGE_ROWS
        assert solved == []
        build_table(3, 5, cross_check=True)  # the spy sees a solve when there is one
        assert len(solved) == 4

    def test_census_walks_no_knot(self, monkeypatch):
        # By Lemmas A and B the rungs decide every knot: the census walks no
        # preimage tree.
        import twobridge.search as search

        searched = []
        monkeypatch.setattr(search, "_least_hit", lambda fam, t, *args: searched.append(t))
        rows = build_table(3, 14)
        assert [(r.c, r.two_bridge_count, r.offsets) for r in rows] == [
            (c, *EXPECTED_TABLE[c]) for c in range(3, 15)
        ]
        assert searched == []

    def test_stream_matches_solve_many(self):
        # The counted rows are the tally of c2 over every knot.
        solved = solve_many(k for c in range(3, 14) for k in enumerate_knots(c))
        for row in build_table(3, 13):
            tally = {0: 0}
            for k, res in solved.items():
                if res.base_crossing == row.c:
                    tally[res.value - row.c] = tally.get(res.value - row.c, 0) + 1
            assert row.offsets == tally, row.c

    def test_interrupted_build_keeps_completed_rows(self, monkeypatch, tmp_path):
        # The file the last finished build wrote survives a build cut while
        # it writes, byte for byte, with no temporary file left behind.
        import twobridge.table as table

        cold = build_table(3, 8, cache_dir=tmp_path)
        path = table._cache_path(tmp_path)
        before = path.read_text()
        real = table.os.replace

        def cut(src, dst):  # interrupted while rows 3..12 are being written
            raise KeyboardInterrupt

        monkeypatch.setattr(table.os, "replace", cut)
        with pytest.raises(KeyboardInterrupt):
            build_table(3, 12, cache_dir=tmp_path)
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]
        monkeypatch.setattr(table.os, "replace", real)
        monkeypatch.setattr(table, "_carry_counts", _must_not_count)
        assert build_table(3, 8, cache_dir=tmp_path) == cold
