"""Census tables: how far the symmetric-diagram crossing count sits above the
crossing number, tallied over :func:`twobridge.knot.enumerate_knots` per c.

:func:`build_table` counts each row instead of solving its knots.  By
Lemmas A and B (``solver``), c2 is c or the semi-even bound m, and m - c is
the fewer carries of the two even slopes' positive expansions
(``contfrac._semi_even_of``).  Write b = [a1, .., an] for a composition of c
with a1, an >= 2, and p = K(a1..an), q = K(a2..an), r = K(a1..a(n-1)):

- b names a knot when p is odd.  Its even slopes have the expansions b, or
  [1, a1 - 1, a2, .., an] when q is odd, and reversed(b), or
  [1, an - 1, .., a1] when r is odd.  So m - c = min(X, Y), their carries.
- q^2 = +-1 (mod p) exactly when the slope pairs {q, p - q} and {r, p - r}
  meet, so (the expansions of p - q and p - r start with 1) exactly when
  reversed(b) = b.  A knot with no palindromic b has no Type B sequence,
  so c2 = m, and two such b, b and reversed(b), with one min(X, Y).
- Lemma C: a knot's palindromic b = h + [centre] + reversed(h) has c2 = c
  if its length and centre are odd, else c2 - c = X = Y (q = r).  Of its
  eight candidates (``solver._candidates``) only b and
  [1, a1 - 1, .., an - 1, 1] can be palindromes, with centres of one
  parity, so only then is one Type B (Lemma B).  As b's continuant matrix
  is M(h) A(centre) M(h)^T, p = P(h) * centre (mod 2), so that is odd c.

The carries depend on the entries' parities alone, so :func:`_carry_counts`
counts every b by min(X, Y), and every palindrome by X, over 12 states: the
continuant matrix mod 2 and a guessed parity of q (:func:`_states`).  With
T_a their step matrix for an entry of parity a (u^dX v^dY where it carries)
and e the seeds, an entry of parity a contributes x^(2 - a) / (1 - x^2) T_a
and a1 >= 2, so the prefixes sum to F = e (x^2 T0 + x^3 T1) ((1 - x^2) I -
x^2 T0 - x T1)^-1, whose layers obey f(s) = f(s - 2) (I + T0) +
f(s - 1) T1 + [s = 2] e T0 + [s = 3] e T1.  The b, whose an >= 2 too, sum
to F (I - x T1), read at the states with p odd and q = gq.  A row is half
the count of its b, with each palindrome moved to its c2 - c and counted
twice, so the census solves no knot, and it is written or read from the
cache only with its Ernst-Sumners count (``_knot_count``).

Rows are cached in one file per directory, rows.v{ALGORITHM_VERSION}.json:
the --json export of its rows, in ascending c.  Bump ALGORITHM_VERSION (2
since the cache became one file) for any change to a row's counts or
offsets, or to the file's layout; witnesses are not cached.  The file is
written to a temporary name and renamed onto its path, so a reader never
sees half a file, and a build that raises leaves the directory as it was.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from dataclasses import dataclass
from operator import add
from pathlib import Path

from .knot import TwoBridgeKnot, _families, _knot_count
from .oracle import global_c2_map
from .solver import _solve

__all__ = [
    "ALGORITHM_VERSION",
    "TableRow",
    "CrossCheckError",
    "table_row",
    "build_table",
]

ALGORITHM_VERSION = 2


class CrossCheckError(Exception):
    """Raised when the stepwise solver and the global sweep disagree."""

    def __init__(self, knot: TwoBridgeKnot, direct: int, oracle: int):
        self.knot = knot
        self.direct = direct
        self.oracle = oracle
        super().__init__(
            f"cross-check failed at {knot}: stepwise gave {direct}, sweep gave {oracle}"
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


def _cache_path(cache_dir: str | Path) -> Path:
    return Path(cache_dir) / f"rows.v{ALGORITHM_VERSION}.json"


def _rows_text(rows: list[TableRow]) -> str:
    """The cache file's text, which is also the CLI's --json export."""
    return json.dumps([r.to_json_dict() for r in rows], indent=2) + "\n"


def _read_cached_rows(cache_dir: str | Path) -> dict[int, TableRow]:
    try:
        text = _cache_path(cache_dir).read_text(encoding="utf-8")
        rows = [TableRow.from_json_dict(d) for d in json.loads(text)]
    except (OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError,
            RecursionError):
        # Unreadable, or valid JSON of another shape (offsets as a list, an
        # infinite c, nesting too deep to parse): a miss, so its rows are rebuilt.
        return {}
    # int() takes true, 5.9 and "5" too: the file is used only if writing its
    # rows back, in strictly ascending c, gives the same text.
    ok = text == _rows_text(rows) and all(a.c < b.c for a, b in zip(rows, rows[1:]))
    return {r.c: r for r in rows} if ok else {}


def _write_cached_rows(cache_dir: str | Path, rows: list[TableRow]) -> None:
    path = _cache_path(cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(_rows_text(rows))
        os.replace(tmp, path)
    except BaseException:  # interrupts too: no temporary file outlives a failed write
        Path(tmp).unlink(missing_ok=True)
        raise


@functools.cache
def _states() -> tuple[tuple, tuple]:
    """(keys, steps): the 12 states (M, gq) of :func:`_carry_counts`, M in
    SL_2(F_2) as (p, r, q, s), found from the seeds (I, 0) and (I, 1), and
    steps[a][i] = (next state, X carry, Y carry) after parity a."""
    keys = [((1, 0, 0, 1), gq) for gq in (0, 1)]
    steps = ([], [])
    for (p, r, q, s), gq in keys:  # keys grows as states are found
        x, y = q ^ gq & p, s ^ gq & r  # X's row, which a goes to (x * a + y, x)
        for a in (0, 1):
            key = (p & a ^ r, p, q & a ^ s, q), gq
            if key not in keys:
                keys.append(key)
            steps[a].append((keys.index(key), x & (y ^ a), r & p))
    return tuple(keys), tuple(map(tuple, steps))


def _carry_counts(c_max: int) -> list[dict[int, int]]:
    """[{j: twice the number of knots with crossing number c and c2 - c = j}
    for c in 0..c_max] (empty below c = 3), in one dynamic program.

    A prefix a1..ai is in a state (M, gq) of :func:`_states`: M its
    continuant matrix mod 2 and gq the guessed parity of q, checked at b's
    end.  A run's state F, C or X is a point (0, 1), (1, 0) or (1, 1) of
    P^1(F_2), one of the three cosets of Gamma_0(2), and an entry carries
    when it leads into X.  The run for X reads b from F, or [1, a1 - 1, ..]
    from X when q is odd, so it is at M's bottom row, or the sum of its
    rows.  The run for Y reads b backwards and ends at F, an even slope's
    bottom row mod 2, so before the prefix it is at (r, p), and at 2 * r
    where b ends, as p is odd.  Each state holds one int, its prefixes by
    (X, Y) in the w bits at w * (X * w + Y); the decode reads only the
    blocks and fields below the int's bit length.  A prefix is also the h of h + [centre] + reversed(h),
    whose Y run retraces its X run: X = X_h + Y_h + the centre's carry.

    Raising an entry by 2 keeps its state and carries, which gives the
    recurrence of the module docstring: before its T1 term a layer holds the
    b of sum s, as no b ends in a 1."""
    keys, steps = _states()
    w = c_max + 1  # above every carry count and every count's bit length
    moves = [[(i, w * w * dx + w * dy) for i, dx, dy in steps[a]] for a in (0, 1)]
    zero = [0] * len(keys)

    def extend(layer, a, out):  # append an entry of parity a to each prefix
        for poly, (i, shift) in zip(layer, moves[a]):
            out[i] += poly << shift

    def unpack(poly):  # (X, Y, count) of each nonzero coefficient, peeled from the low end
        x = 0
        while poly:
            block, poly, y = poly & (1 << w * w) - 1, poly >> w * w, 0
            while block:
                if n := block & (1 << w) - 1:
                    yield x, y, n
                block, y = block >> w, y + 1
            x += 1

    def closed(halves, t):  # the knots h + [an odd centre, if t] + reversed(h), X in X_h's bits
        total = 0
        for poly, ((p, r, q, s), gq), (_, dx, _) in zip(halves, keys, steps[t]):
            pb, qb = (p, q & (p ^ r) ^ s & p) if t else (p ^ r, q & p ^ s & r)  # p, q of b
            if pb and qb == gq:
                total += poly << w * w * dx  # the odd centre's carry (with none, 0 as pb is odd)
        return total

    # f2, f1: f(s - 2), f(s - 1); halves: the h of sum <= s, and the empty h.
    seed = halves = [1, 1] + zero[2:]
    f2 = f1 = zero
    palindromes, counts = {}, [{} for _ in range(c_max + 1)]
    for s in range(1, c_max + 1):
        layer = list(f2)
        extend(f2, 0, layer)
        if s in (2, 3):
            extend(seed, s % 2, layer)
        total = sum(poly for poly, ((p, _, q, _), gq) in zip(layer, keys) if p and q == gq)
        extend(f1, 1, layer)
        f2, f1 = f1, layer
        if 2 * s <= c_max:
            halves = list(map(add, halves, layer))
            palindromes[2 * s], palindromes[2 * s + 1] = closed(layer, 0), closed(halves, 1)
        row = counts[s]
        for x, y, n in unpack(total):
            row[j] = row.get(j := min(x, y), 0) + n
        for x, y, n in unpack(palindromes.get(s, 0)):  # each counted once above, at X
            row[x + y] -= n
            row[0 if s % 2 else x + y] += 2 * n  # Lemma C
    return counts


def build_table(
    c_min: int,
    c_max: int,
    *,
    cross_check: bool = False,
    cache_dir: str | Path | None = None,
) -> list[TableRow]:
    """Rows for c_min..c_max inclusive.

    The cache file is read once, and a row served from it only with its
    Ernst-Sumners count.  The other rows are counted (module docstring),
    from one count up to c_max; if there are any, every row is merged into
    the file, written once after the last row.  A row that misses its
    Ernst-Sumners count raises RuntimeError.

    With cross_check, no cached row is served, and each knot of each row is
    also solved and compared against the independent global sweep: the
    least disagreeing knot of the least row that has one raises
    CrossCheckError, and a row whose solved tally differs from its count
    raises RuntimeError.
    """
    if not 3 <= c_min <= c_max:
        raise ValueError(f"need 3 <= c_min <= c_max, got {c_min}..{c_max}")
    oracle = global_c2_map(c_max) if cross_check else None
    cached = _read_cached_rows(cache_dir) if cache_dir is not None else {}
    rows, counts = [], None
    for c in range(c_min, c_max + 1):
        row = cached.get(c)
        if oracle is not None or row is None or row.two_bridge_count != _knot_count(c):
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
            offsets = {j: n // 2 for j, n in sorted({0: 0, **counts[c]}.items()) if n or not j}
            if oracle is not None and tally != offsets:
                raise RuntimeError(f"row {c} counts {offsets} but solves to {tally}")
            if (n := sum(offsets.values())) != (want := _knot_count(c)):
                side = "short of" if n < want else "over"
                raise RuntimeError(f"row {c} is {side} its knot count: {n} of {want}")
            row = TableRow(c, n, offsets)
        rows.append(row)
    if counts is not None and cache_dir is not None:
        merged = cached | {r.c: r for r in rows}
        _write_cached_rows(cache_dir, [merged[c] for c in sorted(merged)])
    return rows
