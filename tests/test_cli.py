import hashlib
import json
import time

import pytest

from svgcheck import crossing_groups, symmetry_defect
from twobridge.cli import _build_parser, main

EXPECTED_3_12 = """\
c,count,plus0,plus1,plus2,plus3
3,1,1,0,0,0
4,1,1,0,0,0
5,2,2,0,0,0
6,3,2,1,0,0
7,7,7,0,0,0
8,12,7,5,0,0
9,24,17,7,0,0
10,45,17,25,3,0
11,91,44,36,11,0
12,176,49,98,26,3
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExpand:
    @pytest.mark.parametrize(
        "mode,want",
        [
            ("even", "[2,-2,-2,2] sum=8"),
            ("semi-even", "[1,2,-2,-2] sum=7"),
            ("positive", "[1,1,1,1,2] sum=6"),
        ],
    )
    def test_pinned_outputs(self, capsys, mode, want):
        code, out, _ = run(capsys, "expand", "--p", "13", "--q", "8", "--mode", mode)
        assert code == 0
        assert out.strip() == want

    def test_variant(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--p", "13", "--q", "8", "--mode", "positive", "--variant"
        )
        assert code == 0
        assert out.strip() == "[1,1,1,1,1,1] sum=6"

    def test_variant_needs_positive_mode(self, capsys):
        code, _, err = run(
            capsys, "expand", "--p", "13", "--q", "8", "--mode", "even", "--variant"
        )
        assert code == 2
        assert "variant" in err

    def test_even_rejects_odd_denominator(self, capsys):
        code, _, err = run(capsys, "expand", "--p", "13", "--q", "7", "--mode", "even")
        assert code == 2
        assert err.startswith("error:")

    def test_rejects_non_coprime(self, capsys):
        code, _, err = run(capsys, "expand", "--p", "12", "--q", "8", "--mode", "positive")
        assert code == 2
        assert "coprime" in err

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--p", "13", "--q", "8", "--mode", "semi-even", "--json"
        )
        assert code == 0
        assert json.loads(out) == {
            "entries": [1, 2, -2, -2],
            "crossing_sum": 7,
            "class": "TypeA",
        }

    def test_json_neither_class(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--p", "13", "--q", "5", "--mode", "positive", "--json"
        )
        assert code == 0
        assert json.loads(out)["class"] == "Neither"


class TestC2:
    def test_worked_example_text(self, capsys):
        code, out, _ = run(capsys, "c2", "--p", "13", "--q", "5")
        assert code == 0
        assert out.strip() == (
            "K(13,8): c2=7 c=6 m=7 method=Step2 witness=[1,2,-2,-2] class=TypeA"
        )

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "c2", "--p", "13", "--q", "5", "--json")
        assert code == 0
        assert json.loads(out) == {
            "p": 13,
            "q_canonical": 8,
            "c": 6,
            "c2": 7,
            "m": 7,
            "method": "Step2",
            "witness": [1, 2, -2, -2],
            "witness_class": "TypeA",
        }

    def test_rejects_even_p(self, capsys):
        code, _, err = run(capsys, "c2", "--p", "4", "--q", "3")
        assert code == 2
        assert "link" in err

    def test_name_lookup(self, capsys, tmp_path):
        names = tmp_path / "names.csv"
        names.write_text("name,p,q\n3_1,3,2\n6_3,13,5\n")
        code, out, _ = run(
            capsys, "c2", "--name", "6_3", "--names-file", str(names)
        )
        assert code == 0
        assert out.startswith("K(13,8): c2=7")

    def test_name_miss_is_exit_3(self, capsys, tmp_path):
        names = tmp_path / "names.csv"
        names.write_text("name,p,q\n3_1,3,2\n")
        code, _, err = run(capsys, "c2", "--name", "9_9", "--names-file", str(names))
        assert code == 3
        assert "9_9" in err

    def test_name_requires_names_file(self, capsys):
        code, _, err = run(capsys, "c2", "--name", "3_1")
        assert code == 2

    def test_large_p_decides(self, capsys):
        # c = 3342 and m = 3344: the rungs decide it, with no search.
        code, out, _ = run(capsys, "c2", "--p", "100003", "--q", "40000")
        assert code == 0
        assert out.strip() == (
            "K(100003,16668): c2=3344 c=3342 m=3344 method=ExhaustedToBound"
            " witness=[5,2,-1,-3332,2,2] class=TypeA"
        )

    def test_large_p_decided_within_the_search_limit(self, capsys):
        # c = 139 and m = 147: by Lemma A the rungs decide it, with no
        # search; it is in README.
        code, out, _ = run(capsys, "c2", "--p", "314573286388203", "--q", "189071533637990")
        assert code == 0
        assert out.strip() == (
            "K(314573286388203,189071533637990): c2=147 c=139 m=147 method=ExhaustedToBound"
            " witness=[1,20,1,2,-2,-2,1,2,8,2,2,2,-1,-2,-1,-8,4,2,1,8,-3,-4,-1,-14,1,2,"
            "-3,-4,-1,-38,2,2] class=TypeA"
        )


class TestSearchLimit:
    # No CLI command runs the per-knot search: c2 is decided by its rungs.
    def test_rungs_need_no_search(self, capsys):
        code, out, _ = run(capsys, "c2", "--p", "13", "--q", "5")
        assert code == 0
        assert out.startswith("K(13,8): c2=7")


class TestTable:
    def test_pinned_row_10(self, capsys):
        code, out, _ = run(capsys, "table", "--min", "10", "--max", "10")
        assert code == 0
        assert out == "c,count,plus0,plus1,plus2,plus3\n10,45,17,25,3,0\n"

    def test_range_3_12(self, capsys):
        code, out, _ = run(capsys, "table", "--min", "3", "--max", "12")
        assert code == 0
        assert out == EXPECTED_3_12

    def test_rejects_bad_range(self, capsys):
        code, _, err = run(capsys, "table", "--min", "5", "--max", "4")
        assert code == 2

    @pytest.mark.parametrize(
        "row,count",
        [
            (22, "174,933"),
            (40, "45,813,071,872"),
            (20000, "more than 2^19995"),
            (10**18, f"more than 2^{10**18 - 5}"),
        ],
    )
    def test_refuses_rows_above_the_limit_at_once(self, capsys, row, count):
        # Row 40 alone has 2^37 compositions to walk: without the limit the
        # command runs silently for hours.  Past about 4,300 digits the count
        # is not printed in full, and not built.
        start = time.perf_counter()
        code, out, err = run(capsys, "table", "--min", str(row), "--max", str(row))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert f"row {row} has {count} knots" in err

    def test_csv_and_json_files(self, capsys, tmp_path):
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        code, out, _ = run(
            capsys,
            "table", "--min", "3", "--max", "6",
            "--csv", str(csv_path), "--json", str(json_path),
        )
        assert code == 0
        assert csv_path.read_text() == out
        rows = json.loads(json_path.read_text())
        assert [r["c"] for r in rows] == [3, 4, 5, 6]
        assert rows[3]["offsets"] == {"0": 2, "1": 1}

    def test_cache_dir_flag(self, capsys, tmp_path):
        # Cold, warm, then with row 5 miscounted in a well-formed file: the
        # same rows each time, and the bad row is rebuilt and written back.
        cache = tmp_path / "census"
        rows_file = cache / "rows.v2.json"
        want = "".join(EXPECTED_3_12.splitlines(keepends=True)[:7])
        for tamper in (False, False, True):
            if tamper:
                rows = json.loads(rows_file.read_text())
                rows[2].update(count=3, offsets={"0": 3})
                rows_file.write_text(json.dumps(rows, indent=2) + "\n")
            code, out, _ = run(
                capsys, "table", "--min", "3", "--max", "8", "--cache-dir", str(cache)
            )
            assert (code, out) == (0, want)
            assert [p.name for p in cache.iterdir()] == ["rows.v2.json"]
        assert json.loads(rows_file.read_text())[2] == {"c": 5, "count": 2, "offsets": {"0": 2}}

    def test_json_file_is_the_cache_file(self, capsys, tmp_path):
        # One spelling of rows: the --json export is the cache file's text.
        json_path = tmp_path / "t.json"
        code, _, _ = run(
            capsys, "table", "--min", "5", "--max", "8",
            "--json", str(json_path), "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 0
        assert json_path.read_bytes() == (tmp_path / "cache" / "rows.v2.json").read_bytes()

    @pytest.mark.parametrize("flag", ["--csv", "--json"])
    def test_unwritable_export_is_exit_2_before_stdout(self, capsys, tmp_path, flag):
        path = tmp_path / "missing" / "t.out"
        code, out, err = run(capsys, "table", "--min", "3", "--max", "4", flag, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    def test_rows_3_to_21_keep_their_pinned_digest(self, capsys):
        # Every row as built today, byte for byte; row 21 has no independent check.
        code, out, _ = run(capsys, "table", "--min", "3", "--max", "21")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f9ad719e3e99fdb693a0851cd9fa148d4be2e3f36c31dfc3f4f3be75459477b6"
        )

    def test_cross_check_flag(self, capsys):
        code, out, _ = run(capsys, "table", "--min", "3", "--max", "6", "--cross-check")
        assert code == 0
        assert out.splitlines()[-1] == "6,3,2,1,0,0"

    @pytest.mark.parametrize(
        "argv,moved,message",
        [
            ([], 0, "error: row 7 is over its knot count: 8 of 7"),
            (["--cross-check"], 2, "error: row 7 counts {0: 6, 1: 1} but solves to {0: 7}"),
        ],
    )
    def test_a_miscounted_row_is_exit_4(self, capsys, monkeypatch, argv, moved, message):
        # A census check that disagrees ends in exit 4 and one line on
        # stderr, not a traceback.  Row 7's knots are counted twice each.
        import twobridge.table as table

        real = table._carry_counts

        def miscount(c_max):
            counts = real(c_max)
            counts[7][0] -= moved
            counts[7][1] = 2
            return counts

        monkeypatch.setattr(table, "_carry_counts", miscount)
        code, out, err = run(capsys, "table", "--min", "3", "--max", "8", *argv)
        assert code == 4
        assert out == ""
        assert err == message + "\n"


class TestRender:
    def test_writes_svg(self, capsys, tmp_path):
        out_path = tmp_path / "k.svg"
        code, _, _ = run(capsys, "render", "--cf", "1,2,-2,-2", "--out", str(out_path))
        assert code == 0
        svg = out_path.read_text()
        assert len(crossing_groups(svg)) == 7
        assert symmetry_defect(svg) == []

    def test_pq_uses_the_witness(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run(capsys, "render", "--cf", "1,2,-2,-2", "--out", str(a))[0] == 0
        assert run(capsys, "render", "--p", "13", "--q", "5", "--out", str(b))[0] == 0
        assert a.read_text() == b.read_text()

    def test_neither_is_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "render", "--cf", "2,1,1,2", "--out", str(tmp_path / "x.svg")
        )
        assert code == 2
        assert "not Type A" in err and "not Type B" in err

    def test_unparsable_cf(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "render", "--cf", "1,zap,3", "--out", str(tmp_path / "x.svg")
        )
        assert code == 2

    @pytest.mark.parametrize(
        "spelling", [("--cf", "10000001"), ("--cf", "10001,2"), ("--p", "20003", "--q", "2")]
    )
    def test_refuses_above_crossing_limit(self, capsys, tmp_path, spelling):
        # 10001,2 is Type A and the c2 witness of K(20003,2): 10003 crossings.
        out_path = tmp_path / "x.svg"
        code, _, err = run(capsys, "render", *spelling, "--out", str(out_path))
        assert code == 2
        assert "limit" in err
        assert not out_path.exists()

    def test_cf_and_pq_conflict(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "render", "--cf", "3,1,3", "--p", "13", "--q", "5",
            "--out", str(tmp_path / "x.svg"),
        )
        assert code == 2
        assert "either" in err


class TestNames:
    def write(self, tmp_path, text):
        path = tmp_path / "names.csv"
        path.write_text(text)
        return str(path)

    def test_ok_summary(self, capsys, tmp_path):
        path = self.write(tmp_path, "name,p,q\n3_1,3,2\n6_3,13,5\n")
        code, out, _ = run(capsys, "names", "--csv", path)
        assert code == 0
        assert out.strip() == "ok: 2 names"

    def test_lookup_prints_canonical_pair(self, capsys, tmp_path):
        path = self.write(tmp_path, "name,p,q\n6_3,13,5\n")
        code, out, _ = run(capsys, "names", "--csv", path, "--lookup", "6_3")
        assert code == 0
        assert out.strip() == "K(13,8)"

    def test_lookup_miss(self, capsys, tmp_path):
        path = self.write(tmp_path, "name,p,q\n6_3,13,5\n")
        code, _, err = run(capsys, "names", "--csv", path, "--lookup", "7_1")
        assert code == 3

    def test_bad_row_reports_line_number(self, capsys, tmp_path):
        path = self.write(tmp_path, "name,p,q\n3_1,3,2\nx,4,2\n")
        code, _, err = run(capsys, "names", "--csv", path)
        assert code == 2
        assert "row 3" in err

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("3_1,3", "expected 3 fields, got 2"),
            (" ,3,2", "empty name"),
            ("3_1,x,2", "p and q must be integers"),
        ],
    )
    def test_bad_row_message(self, capsys, tmp_path, row, problem):
        path = self.write(tmp_path, f"name,p,q\n{row}\n")
        code, out, err = run(capsys, "names", "--csv", path)
        assert (code, out, err) == (2, "", f"error: {path} row 2: {problem}\n")

    def test_blank_row_is_skipped(self, capsys, tmp_path):
        path = self.write(tmp_path, "name,p,q\n\n6_3,13,5\n")
        assert run(capsys, "names", "--csv", path) == (0, "ok: 1 names\n", "")
        assert run(capsys, "names", "--csv", path, "--lookup", "6_3") == (0, "K(13,8)\n", "")

    def test_duplicate_name(self, capsys, tmp_path):
        path = self.write(tmp_path, "name,p,q\n3_1,3,2\n3_1,5,2\n")
        code, _, err = run(capsys, "names", "--csv", path)
        assert code == 2
        assert "duplicate" in err

    def test_bad_header(self, capsys, tmp_path):
        path = self.write(tmp_path, "nome,p,q\n3_1,3,2\n")
        code, _, err = run(capsys, "names", "--csv", path)
        assert code == 2
        assert "header" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "names", "--csv", str(tmp_path / "none.csv"))
        assert code == 2

    def test_field_over_the_csv_limit(self, capsys, tmp_path):
        path = self.write(tmp_path, "name,p,q\n3_1,3,2\n" + "x" * 200_000 + ",5,2\n")
        for argv in (["names", "--csv", path], ["c2", "--name", "3_1", "--names-file", path]):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and f"{path} row 3" in err


class TestParser:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    # main reuses one parser per process; no call may leave state for the next.
    def test_one_parser_per_process(self):
        assert _build_parser() is _build_parser()

    def test_help_twice_is_the_same(self, capsys):
        first, second = run(capsys, "--help"), run(capsys, "--help")
        assert first[0] == 0
        assert first[1].startswith("usage: twobridge ")
        assert second == first

    def test_usage_error_then_a_good_call(self, capsys):
        code, out, err = run(capsys, "table", "--min", "3")
        assert (code, out) == (2, "")
        assert "the following arguments are required: --max" in err
        code, out, _ = run(capsys, "table", "--min", "3", "--max", "8")
        assert code == 0
        assert out == "".join(EXPECTED_3_12.splitlines(keepends=True)[:7])

    def test_csv_path_does_not_carry_over(self, capsys, tmp_path):
        csv_path = tmp_path / "t.csv"
        argv = ["table", "--min", "3", "--max", "5"]
        assert run(capsys, *argv, "--csv", str(csv_path))[0] == 0
        csv_path.unlink()
        assert run(capsys, *argv)[0] == 0
        assert not csv_path.exists()

    def test_no_command(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["c2", "--name", "a", "--names-file", "f.csv", "--p", "13"],
                "give either --name or --p/--q, not both",
            ),
            (["c2"], "need --p and --q (or --name with --names-file)"),
            (
                ["expand", "--p", "5", "--q", "7", "--mode", "positive"],
                "need 0 < q < p, got p=5 q=7",
            ),
            (["render", "--p", "13"], "need both --p and --q"),
        ],
    )
    def test_argument_checks(self, capsys, tmp_path, argv, message):
        out_path = tmp_path / "x.svg"
        if argv[0] == "render":
            argv = [*argv, "--out", str(out_path)]
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
        assert not out_path.exists()
