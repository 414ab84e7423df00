"""Census tables: how far the symmetric-diagram crossing count sits above the
crossing number, tallied over :func:`twobridge.knot.enumerate_knots` per c.

:func:`build_table` counts each row it has to compute instead of solving
its knots.  Since Lemmas A and B (``solver``), a knot's c2 is c or its
semi-even bound m, and m - c is the fewer carries of its two even slopes'
positive expansions (``contfrac._semi_even_of``).  Write b = [a1, .., an]
for a composition of c with a1, an >= 2, and p = K(a1..an), q = K(a2..an),
r = K(a1..a(n-1)) for its continuants (``knot._family_of``):

- b names a knot when p is odd.  Its even slopes have the expansions b, or
  [1, a1 - 1, a2, .., an] when q is odd, and reversed(b), or
  [1, an - 1, .., a1] when r is odd.  So m - c = min(X, Y), the carries of
  those two.
- q^2 = +-1 (mod p) exactly when the slope pairs {q, p - q} and
  {r, p - r} meet.  Only r = q can, since the expansions of p - q and
  p - r start with 1 and those of q and r do not, so exactly when
  reversed(b) = b.  A knot with no palindromic b has no Type B sequence,
  so c2 = m, and it has exactly two such b: b and reversed(b), which give
  the same min(X, Y).
- The carries come from the parity table ``contfrac._PARITY_STEP``, and the
  parities of p, q and r from the continuant matrix mod 2.  So a count over
  compositions needs only the parity of each entry.  An entry of a given
  parity is its least value plus any number of 2s, so counts by entry sum
  come from prefix sums with step 2.
- The run on [1, a1 - 1, ..] is the run on b from X instead of F.  Each
  parity permutes the states, so the run on reversed(b), read from a1
  back to an, is deterministic too: the count guesses its final state
  and checks its start.

:func:`_carry_counts` counts every b of each c by min(X, Y) in one dynamic
program.  A row is then (that count, less the palindromes at their m - c)
/ 2, plus the palindromes at the c2 - c of ``solver._solve``, the solve
behind :func:`twobridge.solver.c2`.  Palindromic compositions number about
2^(c/2) and are listed directly (``knot._palindromes``).  Each row's size
is known apart from the count: the closed form of Ernst and Sumners,
``knot._knot_count``.  A row is written only with that many knots, and a
cached row is served only with that count.

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

from .contfrac import _PARITY_STEP
from .knot import TwoBridgeKnot, _families, _family_of, _knot_count, _palindromes
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


def _carry_counts(c_max: int) -> list[dict[int, int]]:
    """[{j: how many compositions b of c with first and last entry >= 2 and
    p odd have min(X, Y) = j} for c in 0..c_max], in one dynamic program;
    the dicts below c = 3 are empty.

    A prefix a1..ai is in state (M, f, y, gq, gr): M its continuant matrix
    mod 2 as (p, r, q, s), f the state of the run that gives X after the
    prefix, y the state of the run that gives Y before the prefix (that run
    reads an first and a1 last), and gq, gr the guessed parities of q and
    r, which pick the words: the run on b starts at F = 0, the run on
    [1, a1 - 1, ..] at X = 2.  The empty prefix gives y any state, and the
    last entry must bring it back to the start, 2 * gr.
    The prefixes of each state are kept as one polynomial in the carries,
    an int with the count of (X, Y) in the w bits at w * (X * w + Y)."""
    step = _PARITY_STEP
    back = {(step[s][a], a): s for s in range(3) for a in (0, 1)}
    w = c_max + 1  # above every carry count and every count's bit length

    def extend(layer, a, out):  # append an entry of parity a to each prefix
        for ((p, r, q, s), f, y, gq, gr), poly in layer.items():
            f1 = step[f][a]
            key = ((p & a ^ r, p, q & a ^ s, q), f1, back[y, a], gq, gr)
            poly <<= w * w * (f1 == 2) + w * (y == 2)
            out[key] = out.get(key, 0) + poly

    # seed: the empty prefix for each guess; prefixes[s]: a1 >= 2, then
    # entries >= 1, summing to s; ends[a][s]: prefixes[s - k] summed over the
    # k of parity a from 2 - a on, so one more entry of parity a reaches s.
    # Row s needs no layer below s - 2, so those are dropped.
    seed = {
        ((1, 0, 0, 1), 2 * gq, e, gq, gr): 1 for gq in (0, 1) for gr in (0, 1) for e in range(3)
    }
    prefixes, ends, counts = {}, ({}, {}), [{} for _ in range(c_max + 1)]
    for s in range(1, c_max + 1):
        for a in (0, 1):
            ends[a][s] = end = dict(ends[a].get(s - 2, {}))
            for key, poly in prefixes.get(s - 2 + a, {}).items():
                end[key] = end.get(key, 0) + poly
        prefixes[s] = {}
        if s > 1:
            extend(seed, s % 2, prefixes[s])
        for a in (0, 1):
            extend(ends[a][s], a, prefixes[s])
        if s < 3:
            continue
        last = {}
        for a, layer in ((s % 2, seed), (0, ends[0][s]), (1, ends[1][s - 2])):
            extend(layer, a, last)  # b = [s], then an even and an odd an >= 2
        total = sum(
            poly for ((p, r, q, _), _, y, gq, gr), poly in last.items()
            if p and q == gq and r == gr and y == 2 * gr
        )
        for i in range(w * w):
            if n := (total >> w * i) & ((1 << w) - 1):
                j = min(divmod(i, w))
                counts[s][j] = counts[s].get(j, 0) + n
        for layers in (prefixes, *ends):
            layers.pop(s - 2, None)
    return counts


def _offsets(c: int, counted: dict[int, int]) -> dict[int, int]:
    """Row c's offsets from its compositions counted by min(X, Y): each
    knot with no palindromic b is counted twice, at c2 - c; a palindrome is
    counted once, at m - c, and its c2 comes from the solve."""
    twice = {0: 0, **counted}
    for b in _palindromes(c):
        if fam := _family_of(b):
            res = _solve(fam)
            for j, n in ((res.semi_even_bound - c, -1), (res.value - c, 2)):
                twice[j] = twice.get(j, 0) + n
    return {j: n // 2 for j, n in sorted(twice.items()) if n or not j}


def build_table(
    c_min: int,
    c_max: int,
    *,
    cross_check: bool = False,
    cache_dir: str | Path | None = None,
) -> list[TableRow]:
    """Rows for c_min..c_max inclusive.

    Each row not read from the cache is counted (module docstring), from
    one count up to c_max made when the first such row is needed, and
    written to the cache as soon as it is complete, so an interrupted build
    keeps every row it completed.  A row whose count differs from its
    Ernst-Sumners count raises RuntimeError and is not written.

    With cross_check, every row is recomputed fresh (cache rows are not
    trusted), and each of its knots is also solved and compared against the
    independent global sweep; a disagreement raises CrossCheckError for the
    least disagreeing knot of the least row that has one, once that row is
    complete.  A row whose solved tally differs from its count raises
    RuntimeError.  Only rows that agree are written.
    """
    if not 3 <= c_min <= c_max:
        raise ValueError(f"need 3 <= c_min <= c_max, got {c_min}..{c_max}")
    oracle = global_c2_map(c_max) if cross_check else None
    read = cache_dir is not None and not cross_check
    rows, counts = [], None
    for c in range(c_min, c_max + 1):
        row = _read_cached_row(cache_dir, c) if read else None
        if row is None:
            if oracle is not None:
                tally, bad = {0: 0}, []
                for fam in _families(c):
                    res = _solve(fam)
                    tally[res.value - c] = tally.get(res.value - c, 0) + 1
                    if oracle[fam[0]][0] != res.value:
                        bad.append((fam[0], res.value, oracle[fam[0]][0]))
                if bad:
                    raise CrossCheckError(*min(bad))
            counts = counts or _carry_counts(c_max)
            offsets = _offsets(c, counts[c])
            if oracle is not None and tally != offsets:
                raise RuntimeError(f"row {c} counts {offsets} but solves to {tally}")
            if (n := sum(offsets.values())) != (want := _knot_count(c)):
                side = "short of" if n < want else "over"
                raise RuntimeError(f"row {c} is {side} its knot count: {n} of {want}")
            row = TableRow(c, n, offsets)
            if cache_dir is not None:
                _write_cached_row(cache_dir, row)
        rows.append(row)
    return rows
