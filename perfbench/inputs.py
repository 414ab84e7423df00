"""Seeded inputs of the ``queries`` workload.

Queries are drawn from the knots whose reference outputs ``reference.json``
holds, so every answer can be checked against the output of the reference
commit.  Three strata, each with a fixed size so that every seed asks for the
same mix of work:

* small: every two-bridge knot with crossing number 5..13, split into cells by
  (crossing number, deciding rung, m - c); half of each cell, rounded up, is
  drawn.  The sweep cost of a knot is set almost entirely by its cell, so
  stratifying by cell keeps the stream's cost steady across seeds while each
  knot's chance of being drawn stays about one half.
* large: 40 knots with p in [1e5, 1e6] that Step1 or Step2 decides, one from
  each of 40 equal bins of a 200-knot pool sorted by crossing number.  Render
  cost grows with the crossing number, whose distribution has a long tail.
* sweep: the first 3 knots of the large-p draw that need the sweep (crossing
  numbers 47..110).  Each runs under the query deadline, which at the
  reference commit each misses.  About 80% of uniform large-p draws are of
  this kind (the exact counts are under ``large_p_draws`` in the reference);
  the stream holds only a handful, so that their fixed cost does not drown
  the rest.  They are the same for every seed because the memory an
  interrupted sweep has built by the deadline, which sets the run's peak
  memory, differs from knot to knot.  K(100003,16668), the far-tail example
  of ROADMAP item 3 (c = 3342), is timed in the traced run instead: what it
  builds in its one second grows with the machine's speed in that second.

Each knot is asked through a slope drawn from its class (q, p - q, the inverse
of q, its complement, or the mirror -q), so canonicalization does real work.
The two examples the library documents, K(13,5) and K(65,18), open every
stream; the rest is shuffled.  Nothing here imports the library.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple

from env import REFERENCE

LARGE_PER_STREAM = 40
PINNED = ((13, 5), (65, 18))


class Query(NamedTuple):
    kind: str  # "pinned", "small", "large" or "sweep"
    p: int
    q: int  # the slope handed to canonicalize, not necessarily canonical
    key: str  # canonical "p/q", the reference entry


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _split(key: str) -> tuple[int, int]:
    p, q = key.split("/")
    return int(p), int(q)


def _some_slope(rng: random.Random, key: str) -> tuple[int, int]:
    p, q = _split(key)
    qi = pow(q, -1, p)
    return p, rng.choice((q, p - q, qi, p - qi, -q))


def _canonical_key(p: int, q: int) -> str:
    # Mirrors and the four slopes of a class share the smaller even
    # denominator; the benchmark computes it itself to find the reference.
    q %= p
    evens = [r if r % 2 == 0 else p - r for r in (q, pow(q, -1, p))]
    return f"{p}/{min(evens)}"


def query_stream(ref: dict, seed: int) -> list[Query]:
    """The ordered queries of one stream for this seed."""
    rng = random.Random(seed)
    qref = ref["queries"]

    cells: dict[tuple, list[str]] = {}
    for key, (c, _value, method, m, _w, _svg) in qref["small"].items():
        cells.setdefault((c, method, m - c), []).append(key)
    small = []
    for cell in sorted(cells):
        keys = sorted(cells[cell], key=_split)
        small += rng.sample(keys, (len(keys) + 1) // 2)

    pool = sorted(qref["large"], key=lambda k: (qref["large"][k][0], _split(k)))
    width = len(pool) // LARGE_PER_STREAM
    large = [rng.choice(pool[i * width:(i + 1) * width]) for i in range(LARGE_PER_STREAM)]

    sweep = sorted(qref["sweep"], key=_split)

    rest = (
        [Query("small", *_some_slope(rng, k), k) for k in small]
        + [Query("large", *_some_slope(rng, k), k) for k in large]
        + [Query("sweep", *_some_slope(rng, k), k) for k in sweep]
    )
    rng.shuffle(rest)
    pinned = [Query("pinned", p, q, _canonical_key(p, q)) for p, q in PINNED]
    return pinned + rest
