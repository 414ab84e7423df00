"""Census tables: how far the symmetric-diagram crossing count sits above the
crossing number, tallied over :func:`twobridge.knot.enumerate_knots` per c.

:func:`build_table` solves each row it has to compute one record (k, c,
slopes, family) at a time, as ``knot._families`` reads them off one
composition per knot, through ``solver._solve``, the solve behind
:func:`twobridge.solver.c2`.  So no knot is canonicalized, expanded by
Euclid or sorted, and no result is held past its tally.  Each row's size is
known before its first knot: the closed form of Ernst and Sumners,
``knot._knot_count``.  A row is written once that many of its knots are
tallied, and a cached row is served only with that count.

Rows can be cached one file per crossing number, keyed by ALGORITHM_VERSION.
Bump it for any change to a row's counts or offsets, or to the row's JSON
layout.  The cache stores no witnesses, so a change that alters only
witnesses needs no bump.  A row file is written to a temporary name in the
same directory and renamed onto its path, so a reader never sees half a row.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .knot import TwoBridgeKnot, _families, _knot_count
from .solver import _solve, global_c2_map

__all__ = [
    "ALGORITHM_VERSION",
    "TableRow",
    "CrossCheckError",
    "table_row",
    "build_table",
]

ALGORITHM_VERSION = 1


class CrossCheckError(Exception):
    """Raised when the stepwise solver and the global sweep disagree."""

    def __init__(self, knot: TwoBridgeKnot, direct: int, oracle: int):
        self.knot = knot
        self.direct = direct
        self.oracle = oracle
        super().__init__(
            f"cross-check failed for {knot}: stepwise {direct}, global sweep {oracle}"
        )


@dataclass(frozen=True, eq=True)
class TableRow:
    """One census row: counts of knots by offset value - c."""

    c: int
    two_bridge_count: int
    offsets: dict[int, int]

    def __post_init__(self) -> None:
        if 0 not in self.offsets or any(j < 0 for j in self.offsets):
            raise ValueError(f"offsets must be >= 0 and include 0: {self.offsets}")
        # A row lists offset 0 always and any other offset only if a knot has
        # it: a count of 0 at j > 0 would add empty columns to the CSV.
        if any(n < 0 or (n == 0 and j > 0) for j, n in self.offsets.items()):
            raise ValueError(f"counts must be >= 0, and > 0 past offset 0: {self.offsets}")
        if sum(self.offsets.values()) != self.two_bridge_count:
            raise ValueError(
                f"offsets {self.offsets} do not sum to count {self.two_bridge_count}"
            )

    def to_json_dict(self) -> dict:
        return {
            "c": self.c,
            "count": self.two_bridge_count,
            "offsets": {str(j): self.offsets[j] for j in sorted(self.offsets)},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TableRow":
        return cls(
            c=int(d["c"]),
            two_bridge_count=int(d["count"]),
            offsets={int(j): int(n) for j, n in d["offsets"].items()},
        )


def table_row(c: int) -> TableRow:
    """Census row for one crossing number (no caching, no cross-check)."""
    return build_table(c, c)[0]


def _cache_path(cache_dir: str | Path, c: int) -> Path:
    return Path(cache_dir) / f"c{c}.v{ALGORITHM_VERSION}.json"


def _row_text(row: TableRow) -> str:
    """The row file's whole text: the one spelling a cached row may have."""
    return json.dumps(row.to_json_dict(), indent=2) + "\n"


def _read_cached_row(cache_dir: str | Path, c: int) -> TableRow | None:
    path = _cache_path(cache_dir, c)
    try:
        text = path.read_text(encoding="utf-8")
        row = TableRow.from_json_dict(json.loads(text))
    except (OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError,
            RecursionError):
        # Unreadable, or valid JSON of another shape (offsets as a list, an
        # infinite c, nesting too deep to parse): a miss, so the row is rebuilt.
        return None
    # int() takes true, 5.9 and "5" too: a row is served only if writing it
    # back gives the same text, and only with the row's Ernst-Sumners count.
    ok = row.c == c and row.two_bridge_count == _knot_count(c) and text == _row_text(row)
    return row if ok else None


def _write_cached_row(cache_dir: str | Path, row: TableRow) -> None:
    path = _cache_path(cache_dir, row.c)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(_row_text(row))
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)


def build_table(
    c_min: int,
    c_max: int,
    *,
    cross_check: bool = False,
    cache_dir: str | Path | None = None,
) -> list[TableRow]:
    """Rows for c_min..c_max inclusive.

    Each row not read from the cache is solved knot by knot and written to
    the cache as soon as it is complete, so an interrupted build keeps every
    row it completed.  A row whose knots fall short of its Ernst-Sumners
    count raises RuntimeError and is not written.

    With cross_check, every per-knot value is recomputed fresh (cache rows are
    not trusted) and compared against the independent global sweep; a
    disagreement raises CrossCheckError for the least disagreeing knot of the
    least row that has one, once that row is complete.  Only rows that agree
    are written.
    """
    if not 3 <= c_min <= c_max:
        raise ValueError(f"need 3 <= c_min <= c_max, got {c_min}..{c_max}")
    oracle = global_c2_map(c_max) if cross_check else None
    read = cache_dir is not None and not cross_check
    rows = []
    for c in range(c_min, c_max + 1):
        row = _read_cached_row(cache_dir, c) if read else None
        if row is None:
            offsets, bad = {0: 0}, []
            for fam in _families(c):
                res = _solve(fam)
                j = res.value - c
                offsets[j] = offsets.get(j, 0) + 1
                if oracle is not None and oracle[fam[0]][0] != res.value:
                    bad.append((fam[0], res.value, oracle[fam[0]][0]))
            if bad:
                raise CrossCheckError(*min(bad))
            if (n := sum(offsets.values())) != _knot_count(c):
                raise RuntimeError(f"row {c} is short of its knot count: {n} of {_knot_count(c)}")
            row = TableRow(c, n, offsets)
            if cache_dir is not None:
                _write_cached_row(cache_dir, row)
        rows.append(row)
    return rows
