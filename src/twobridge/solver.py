"""Least crossing count over symmetric-diagram expansions of a two-bridge knot.

The pipeline short-circuits in order of cost:

1. Step1: positive expansions (canonical and trailing-1 variant) of the four
   slopes.  A Type A or Type B hit settles the value at the crossing number.
2. Step2: the semi-even expansions of the two even-denominator slopes give an
   upper bound m realized by a Type A sequence.  m = c + 1 settles the value.
3. Search: for t = c + 1 .. m - 1, find the first Type A / Type B sequence
   with crossing sum t, in :func:`enumerate_type_ab` order, that evaluates
   into the knot's slope class.  Exhaustion settles the value at m.

Sign changes cost crossings.  The identity [.., a, -b, tail] = [.., a - 1,
1, b - 1, -tail] keeps the value and removes one crossing and one sign
change; the zeros it may leave merge without adding crossings ([x, 0, y] =
[x + y], a trailing [.., y, x, 0] = [.., y], and a leading [0, x, rest]
names the knot of [rest]).  So a sequence with crossing sum t and s sign
changes between adjacent entries evaluates to a knot with c <= t - s.

The per-knot search behind :func:`c2` and :func:`search_at` turns that
around.  Take a hit x at t = c + d with a positive first entry (its negation
names the mirror, the same knot).  Apply the move at its first sign change,
with its merges, again and again: each step removes at least one crossing,
so after at most d steps no sign change is left, and what is left is a
positive sequence of the knot's class with crossing sum c.  The positive
sequences of a value p/r are its Euclid expansion and the trailing-1
variant, so it is one of the eight Step1 candidates.  ``_preimages`` undoes
one such step exactly, at every cost: every x it yields maps back, and
every preimage is yielded once.  So the hits at t are the Type A / Type B
sequences among the preimages of the eight candidates that lie d crossings
up.  For fixed d their number is polynomial in c, where a sweep's grows
exponentially in t.  Each is evaluated before it counts, and the least
under ``_order_key``, which reproduces :func:`enumerate_type_ab` order, is
the answer.  The walk prunes what cannot be Type A: a later step keeps the
entries after the first sign change in place counted from the right, and
Type A fixes the parity of every other one of them; Type B needs an odd t
and a knot with q^2 = +-1 (mod p).  Where Type B cannot hit, a preimage
that spends all the crossings left is a leaf, and it is built only if it is
Type A, which a few parities of its node decide.  One call walks at most
``_SEARCH_LIMIT`` sequences: once it holds more than it may still walk, it
raises SearchBudgetExceeded with the proven bracket c <= c2 <= m.  A c2,
search_at or solve_many call never sweeps.

The census keeps the shared sweep.  ``_solve_stream``, which only the
census builder calls, yields each knot's result as soon as it is known and
sweeps each crossing total t once, against one lookup of every pending
knot.  For whole census rows one sweep per total costs less than one search
per knot: for the 2,158 knots of rows 3..16 that need the search, about a
fifth of the time (0.15 s against 0.69 s on a 2-vCPU VM), and tests hold
the two paths equal, witnesses included.  Every other caller gets the
per-knot search: :func:`solve_many` is :func:`c2` per knot, so no engine
limit picks between the two.  The sweep reads the sign vectors of each
magnitude pattern, within a budget of sign changes and in product order,
from a table of steps cached per length and cap.  By the lemma a knot is
hit at t only by sign vectors with at most t - c changes: ``_solve_stream``
passes t minus the least c pending below t.  :func:`global_c2_map` passes
t, which no sign vector exceeds, so no cap binds: the oracle walks every
sign vector, and the census cross-check keeps testing the lemma.  The sweep
skips sequences with a negative first entry: its negation has the same
magnitudes, comes earlier (+ sorts before -) and evaluates to the mirror.
A value num/den is in the class of K(p, q) exactly when |num| = p and den
mod p is a slope residue q, p - q, q^-1 or p - q^-1, as the knot's record
holds them.  These are closed under negation and inversion, and the
determinant of a Type A sequence's continuant matrix makes the numerator of
its head a[:-1] +-den^-1 (mod num): the Type A path probes with it and
computes no den.  Each value costs one int lookup in a row per pending p,
and nothing is canonicalized or inverted.

Each knot travels as one record, ``knot._Family`` = (k, c, slopes, family):
c, the slope residues and their positive expansions (the Step1 candidates
and search roots), read off one Euclid run or, in the census, one
composition.  ``_rungs_of`` runs Steps 1 and 2 on it once: the Step1 or
Step2 result, or else ExhaustedToBound at m with the semi-even witness,
which only a Search hit below m can replace: :func:`c2` then runs the
per-knot search on the record, and ``_solve_stream`` the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product
from typing import Iterable, Iterator

from .contfrac import (
    ContinuedFraction,
    ExpansionClass,
    _eval_entries,
    _semi_even_entries,
    _shape,
)
from .knot import TwoBridgeKnot, _Family, _families, _fills, _positive_family

__all__ = [
    "METHOD_STEP1",
    "METHOD_STEP2",
    "METHOD_SEARCH",
    "METHOD_EXHAUSTED",
    "C2Result",
    "SearchBudgetExceeded",
    "step1_check",
    "step2_bound",
    "enumerate_type_ab",
    "search_at",
    "c2",
    "solve_many",
    "global_c2_map",
]

METHOD_STEP1 = "Step1"
METHOD_STEP2 = "Step2"
METHOD_SEARCH = "Search"
METHOD_EXHAUSTED = "ExhaustedToBound"

# Work ceiling of one c2 or search_at call: sequences built by the per-knot
# search, over all the totals it tries.
_SEARCH_LIMIT = 100_000


@dataclass(frozen=True)
class C2Result:
    """Outcome of the solve for one knot.

    value is the least crossing sum over Type A / Type B sequences evaluating
    into the knot's slope class; witness is one sequence realizing it.
    base_crossing <= value <= semi_even_bound always holds.
    """

    value: int
    witness: ContinuedFraction
    witness_class: ExpansionClass
    method: str
    semi_even_bound: int
    base_crossing: int

    def __post_init__(self) -> None:
        if not self.base_crossing <= self.value <= self.semi_even_bound:
            raise ValueError(
                f"inconsistent result: c={self.base_crossing}, "
                f"value={self.value}, bound={self.semi_even_bound}"
            )


class SearchBudgetExceeded(RuntimeError):
    """The per-knot search reached its work ceiling before deciding c2(knot);
    only the proven bracket c <= c2 <= m is known.  t, when given, is the
    one crossing total that :func:`search_at` was searching."""

    def __init__(self, knot: TwoBridgeKnot, c: int, m: int, t: int | None = None):
        what = f"search of {knot} at t={t} passed" if t else f"c2 of {knot} undecided within"
        super().__init__(f"{what} the search limit: {c} <= c2 <= {m}")
        self.knot, self.c, self.m, self.t = knot, c, m, t


# ---------------------------------------------------------------------------
# Steps 1 and 2


def _semi_even_pick(
    k: TwoBridgeKnot, slopes: tuple[int, int, int, int]
) -> tuple[int, ContinuedFraction]:
    """Best semi-even expansion over the (one or two) even denominators among
    k's slope denominators, ties on crossing sum going to the smaller one."""
    s, _, entries = min(
        (sum(abs(a) for a in e), d, e)
        for d in {r for r in slopes if r % 2 == 0}
        for e in [_semi_even_entries(k.p, d)]
    )
    return s, ContinuedFraction._trusted(tuple(entries))


def _bound_above(k: TwoBridgeKnot, c: int, m: int) -> int:
    """m, checked to exceed c: m = c(K) would be a minimal diagram Step 1 missed."""
    if m <= c:
        raise RuntimeError(
            f"semi-even bound {m} for {k} does not exceed c={c}; "
            "Step 1 must already decide this knot"
        )
    return m


def _candidates(family: list[list[int]]) -> Iterator[list[int]]:
    """The eight Step1 candidates: each positive expansion of the four slopes
    (last entry >= 2) and its [.., a - 1, 1] variant."""
    for entries in family:
        yield entries
        yield entries[:-1] + [entries[-1] - 1, 1]


def _rungs(k: TwoBridgeKnot) -> C2Result:
    """:func:`_rungs_of` on k's record from ``_positive_family``."""
    return _rungs_of(_positive_family(k))


def _rungs_of(fam: _Family) -> C2Result:
    """The knot's result from the rungs below the search, from its record:
    the Step1 or Step2 result, or else ExhaustedToBound at the semi-even
    bound m with its witness, which a Search hit below m may replace."""
    k, c, slopes, family = fam
    m, wit = _semi_even_pick(k, slopes)
    for cand in _candidates(family):
        cls = _shape(cand)
        if cls is not ExpansionClass.NEITHER:
            cf = ContinuedFraction._trusted(tuple(cand))
            return C2Result(c, cf, cls, METHOD_STEP1, m, c)
    _bound_above(k, c, m)
    method = METHOD_STEP2 if m == c + 1 else METHOD_EXHAUSTED
    return C2Result(m, wit, ExpansionClass.TYPE_A, method, m, c)


def step1_check(k: TwoBridgeKnot) -> C2Result | None:
    """Try the eight positive sequences; a Type A/B hit means value = c(K)."""
    res = _rungs(k)
    return res if res.method == METHOD_STEP1 else None


def step2_bound(k: TwoBridgeKnot) -> int:
    """Semi-even upper bound m; meaningful once step1_check has failed.
    Raises RuntimeError when m <= c(K)."""
    res = _rungs(k)
    return _bound_above(k, res.base_crossing, res.semi_even_bound)


# ---------------------------------------------------------------------------
# Enumeration of Type A / Type B sequences by crossing sum


def _type_a_magnitudes(total: int) -> Iterator[tuple[int, ...]]:
    """Magnitude patterns of Type A sequences with the given crossing sum.

    Even length; odd positions carry any magnitude >= 1, even positions an
    even magnitude >= 2.  Ordered by length, then lexicographically.
    """
    for n in range(2, 2 * total // 3 + 1, 2):  # least sum of length n: 3n/2
        for m, rest in _fills(total, [1 + j % 2 for j in range(n - 1)], 1, 2):
            if rest % 2 == 0:  # the last slot is an even position
                yield (*m, rest)


def _type_b_halves(total: int) -> Iterator[tuple[int, ...]]:
    """Half patterns (m_1 .. m_h) of Type B palindromes, center last.

    Non-center magnitudes count twice, the center once and must be odd, so
    these exist only for odd totals.  Ordered by length, then lexicographically.
    """
    for h in range(1, (total + 1) // 2 + 1) if total % 2 else ():
        for m, rest in _fills(total, [1] * (h - 1), 2, 1):
            yield (*m, rest)


def enumerate_type_ab(t: int) -> Iterator[ContinuedFraction]:
    """Every signed sequence with crossing sum t that classify_type accepts,
    each exactly once.

    Deterministic order: all Type A sequences, then all Type B; within a class
    ascending length, magnitude tuples lexicographically, then sign vectors
    with + before - scanning left to right (Type B signs are chosen on the
    first half and mirrored).
    """
    if t < 1:
        raise ValueError(f"crossing sum must be >= 1, got {t}")
    for mag in _type_a_magnitudes(t):
        for signs in product((1, -1), repeat=len(mag)):
            yield ContinuedFraction._trusted(tuple(s * m for s, m in zip(signs, mag)))
    for half in _type_b_halves(t):
        for signs in product((1, -1), repeat=len(half)):
            head = tuple(s * m for s, m in zip(signs, half))
            yield ContinuedFraction._trusted(head + head[-2::-1])


@lru_cache
def _sign_steps(n: int, cap: int) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """The sign vectors of a pattern of length n with a + first entry and at
    most cap changes between adjacent entries, as steps.

    The heads, signs of slots 0 .. n - 2, come in product order (+ before -):
    each kept prefix is extended by + and then by -, so the work grows with
    the heads kept, not with 2^n.  Step (i, signs, lasts) turns the previous
    head into the next one: i is the first slot that differs, signs are the
    new signs of slots i .. n - 2, and lasts are the signs that the last slot
    may take within the cap, + first.
    """
    if n == 1:  # the one entry is the first
        return ((0, (), (1,)),)
    # (i, signs of slots i .. j, changes) for each kept head of slots 0 .. j.
    heads = [(0, (1,), 0)]
    for j in range(1, n - 1):
        longer = []
        for i, signs, k in heads:
            if k < cap:  # + keeps i; the - head after it differs from it first at j
                longer.append((i, signs + (1,), k + (signs[-1] < 0)))
                longer.append((j, (-1,), k + (signs[-1] > 0)))
            else:
                longer.append((i, signs + signs[-1:], k))
        heads = longer
    return tuple((i, signs, (1, -1) if k < cap else signs[-1:]) for i, signs, k in heads)


def _residue_lookup(slopes: Iterable[tuple[int, ...]]) -> dict[int, dict[int, tuple]]:
    """{p: {r: slopes}}: each knot's slope residues as its record holds them,
    canonical q first, each mapped to the tuple in a row at p = q + (p - q).
    They are closed under negation and inversion, so -den, den^-1 and
    -den^-1 (mod p) name the same knot as den: a sweep may probe with any."""
    lookup: dict[int, dict[int, tuple]] = {}
    for s in slopes:
        lookup.setdefault(s[0] + s[1], {}).update(dict.fromkeys(s, s))
    return lookup


def _take(lookup: dict[int, dict[int, tuple]], p: int, r: int) -> tuple[int, int]:
    """The key (p, q) of the residues at lookup[p][r], q the first of them,
    once they, and their row if it runs empty, have left lookup."""
    row = lookup[p]
    slopes = row[r]
    for s in slopes:
        row.pop(s, None)
    if not row:
        del lookup[p]
    return p, slopes[0]


def _sweep(t: int, lookup: dict, budget: int) -> Iterator[tuple]:
    """(key, sequence, class) at each key's first hit: among the sequences
    with crossing sum t and a positive first entry, in :func:`enumerate_type_ab`
    order, the first whose value num/den probes key = lookup[|num|][r].  The
    key's residues then leave lookup, and its row once empty; the sweep ends
    when lookup is empty.

    r is taken only when lookup has a row at |num|.  A Type A sequence
    P_n/Q_n probes r = P_(n-1) mod |num|, the numerator of its head a[:-1]:
    P_n Q_(n-1) - P_(n-1) Q_n = +-1 makes it +-den^-1, which names the same
    knot as den, so the Type A path keeps no denominators.  A Type B
    palindrome, evaluated from its half h as M(h) M(h[:-1])^T, has a
    symmetric matrix and probes r = den mod |num|.

    The signs of each pattern come from :func:`_sign_steps`.  The prefix
    continuants of the head a[:-1] are kept, so a step from slot i recomputes
    only the prefixes from i on, and each sign of the last entry is read off
    the head's continuants.

    Only sequences with at most budget sign changes between adjacent entries
    are evaluated (budget // 2 on a Type B half, whose palindrome doubles its
    changes), in the same order.  By the lemma in the module docstring this
    drops no first hit of a knot with c >= t - budget.  Budget t caps
    nothing: a Type A pattern has at most t - 1 changes, and a Type B half,
    of length at most (t + 1) / 2, at most t // 2.
    """
    if budget < 0:
        return
    A, B = ExpansionClass.TYPE_A, ExpansionClass.TYPE_B
    for mag in _type_a_magnitudes(t):
        a, n, last = list(mag), len(mag), mag[-1]
        P = [0, 1] + [0] * n  # P[j + 1] = K(a[:j]), from K() = 1
        for i, signs, lasts in _sign_steps(n, min(n - 1, budget)):
            for j, s in enumerate(signs, i):
                a[j] = x = s * mag[j]
                P[j + 2] = x * P[j + 1] + P[j]
            p1, p0 = P[n], P[n - 1]
            for s in lasts:
                num = abs(s * last * p1 + p0)
                if num in lookup and (r := p1 % num) in lookup[num]:
                    a[-1] = s * last
                    yield _take(lookup, num, r), ContinuedFraction._trusted(tuple(a)), A
                    if not lookup:
                        return
    for mag in _type_b_halves(t):
        a, n, last = list(mag), len(mag), mag[-1]
        # M(a[:j]) = [[P[j + 1], P[j]], [Q[j + 1], Q[j]]], from M([]) = I.
        P, Q = [0, 1] + [0] * n, [1, 0] + [0] * n
        for i, signs, lasts in _sign_steps(n, min(n - 1, budget // 2)):
            for j, s in enumerate(signs, i):
                a[j] = x = s * mag[j]
                P[j + 2] = x * P[j + 1] + P[j]
                Q[j + 2] = x * Q[j + 1] + Q[j]
            p1, p0, q1, q0 = P[n], P[n - 1], Q[n], Q[n - 1]
            for s in lasts:
                x = s * last
                num = abs(p1 * (x * p1 + 2 * p0))
                if num in lookup and (r := ((x * q1 + q0) * p1 + q1 * p0) % num) in lookup[num]:
                    a[-1] = x
                    yield _take(lookup, num, r), ContinuedFraction._trusted(tuple(a + a[-2::-1])), B
                    if not lookup:
                        return


# ---------------------------------------------------------------------------
# Per-knot search: the preimages of the eight Step1 candidates


def _negated(entries: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-a for a in entries)


def _unstack(stack: tuple[int, ...]) -> tuple[int, ...] | None:
    """The head L + (a,) of a preimage [L, a, -b, ..], L positive, from the
    positive entries that its move leaves before b - 1: those are L + (a - 1,
    1) when a >= 2, or L[:-1] + (l + 1,), merged from [.., l, 0, 1], when a =
    1.  None for (1,): a = 1 with L empty is the leading case."""
    if stack[-1] > 1:
        return stack[:-1] + (stack[-1] - 1, 1)
    return stack[:-2] + (stack[-2] + 1,) if len(stack) > 1 else None


def _pairs(room: int) -> Iterator[tuple[int, ...]]:
    """Every (s_1, .., s_k), k >= 0, of positive entries with 2 * sum <= room:
    the entries that cancel in pairs when a merge leaves another zero.

    Lexicographic order, a prefix first: the walk appends a 1 while room is
    left, else drops the last entry and raises the one before it."""
    tops, free = [], room
    yield ()
    while True:
        if free >= 2:
            tops.append(1)
        elif len(tops) < 2:
            return
        else:
            free += 2 * tops.pop()
            tops[-1] += 1
        free -= 2
        yield tuple(tops)


def _preimages(
    y: tuple[int, ...], room: int, a_only: bool
) -> Iterator[tuple[int, ...]]:
    """Every x with a positive first entry that the move at its first sign
    change, with the zero merges it leaves, carries to y or -y, at a cost of
    crossing_sum(x) - crossing_sum(y) <= room crossings.

    The move turns x = L + [a, -b] + R, L positive, into [L, a - 1, 1, b - 1,
    -R].  A zero at a - 1 merges into L (or, with L empty, leaves a leading
    [0, 1, ..] that drops the 1); a zero at b - 1 merges the entries on its
    two sides, again while they cancel, until one survives, R runs out (the
    trailing rule drops the entry left of the zero) or the left side does (the
    leading rule drops the entry right of it).  Each x is yielded once and
    maps back to y, so preimages of distinct sequences never meet.

    With a_only, only the x that can still lead to a Type A sequence are
    yielded.  Counted from the right, a Type A sequence has an even entry at
    every odd place.  Every later move keeps in place, counted from the
    right, the entries after the first negative y[j] of y (y[j] too, unless
    the move costs 3 or more), and x keeps those after the y[i] it merges
    into.  So y[low:], low the least index that qualifies, must cover both.

    An x of cost room is a leaf, and with a_only it is yielded only if it
    is Type A, which parities of y decide before it is built.  Most such x
    put two odd entries side by side around their -1.  The others rewrite
    y[i - 1] and y[i], or, when y[i - 1] = 1, y[i - 2 .. i] (the
    b >= 2 case at cost 1; the b = 1 merge of s = 1 into v = y[i], at cost
    1 or, for v < 0, 3), or y[0] (the leading case at cost 2).  Its length
    is n +- 1, so n must be odd.  The entries after the rewritten ones keep
    their places, which low covers; those before them move by one place,
    so they hold no odd entry at an odd index: they end at most at hi, the
    first such index (n if none).  The rewritten entries that land on odd
    places must be even:
      - b >= 2, y[i - 1] > 1: x has [y[i - 1] - 1, 1, -1 - y[i]], so n - i,
        y[i] and y[i - 1] are odd;
      - b >= 2, y[i - 1] = 1: x has [y[i - 2] + 1, -1 - y[i]], so y[i] is
        odd if n - i is odd, and y[i - 2] is odd if n - i is even;
      - the merge: x has [y[i - 1] + 1, -1, 1 - v], so n - i, v and
        y[i - 1] are odd;
      - the leading case: x starts [1, -1 - y[0]], so y[0] is odd.
    """
    n = len(y)
    if a_only and room == 1 and n % 2 == 0:  # every x has length n +- 1
        return
    j = next((i for i, a in enumerate(y) if a < 0), n)  # y[:j] is positive
    low, hi = 0, n
    if a_only:
        low = next((i + 1 for i in range(n - 1, -1, -2) if y[i] % 2), 0)
        if low > (j if room < 3 else j + 1):
            return
        hi = next((i for i in range(1, n, 2) if y[i] % 2), n)
    # b >= 2: y = stack + [b - 1] + (-R), cost 1.
    for i in range(max(1, low - 1), j):
        if a_only and room == 1 and not (
            y[i - 1] > 1 and (n - i) % 2 and y[i] % 2 and y[i - 1] % 2 and i - 1 <= hi
            or y[i - 1] == 1 and y[i if (n - i) % 2 else i - 2] % 2 and i - 2 <= hi
        ):
            continue
        head = _unstack(y[:i])
        if head:
            yield head + (-1 - y[i],) + _negated(y[i + 1:])
    # a = 1 with L empty and b >= 2: [0, 1, b - 1, -R] names the knot of [b - 1, -R].
    if room >= 2 and low <= 1 and (room > 2 or not a_only or n % 2 and y[0] % 2):
        yield (1, -1 - y[0]) + _negated(y[1:])
    # b = 1: the entries tops = (s_1, .., s_k) cancel against the top of the
    # stack first, then the zero ends in one of three ways.  The first is a
    # merge s + q = v into y[i] (or, at i = 0, into -y[0], the result then
    # being negated), at cost s + |q| - |v|.
    merges = [(i, y) for i in range(max(0, low - 1), min(j + 1, n))]
    if low <= 1:
        merges.append((0, _negated(y)))
    for tops in _pairs(room - 1):
        spent = 1 + 2 * sum(tops)
        rest = room - spent
        stacked = tops[::-1]
        for i, z in merges:
            v = z[i]
            top = max(v, 0) + rest // 2
            if a_only and not rest:
                top = 0 if tops else min(top, 1)
            for s in range(1, top + 1):
                cost = spent + s + abs(v - s) - abs(v)
                if s == v or a_only and cost == room and (
                    tops or s > 1
                    or not (n % 2 and (n - i) % 2 and v % 2 and z[i - 1] % 2 and i - 1 <= hi)
                ):
                    continue
                head = _unstack(z[:i] + (s,) + stacked)
                if head:
                    yield head + (-1,) + tops + (s - v,) + _negated(z[i + 1:])
        last = rest if a_only else rest + 1  # the three below end in odd neighbours
        # R runs out: the trailing rule drops the entry x above y.
        if j == n:
            for x in range(1, last):
                yield _unstack(y + (x,) + stacked) + (-1,) + tops
        # The stack runs out: the leading rule drops the entry x before +-y.
        head = _unstack(stacked) if tops and not low else None
        for x in range(1, last if head else 1):
            for sx, z in product((x, -x), (y, _negated(y))):
                yield head + (-1,) + tops + (-sx,) + _negated(z)
    # a = 1 with L empty and b = 1: [0, 1, 0, -x, +-y] names the knot of +-y.
    if not low:
        for x in range(1, room - 2 if a_only else room - 1):
            for sx, z in product((x, -x), (y, _negated(y))):
                yield (1, -1, -sx) + _negated(z)


def _order_key(entries: tuple[int, ...], cls: ExpansionClass) -> tuple:
    """:func:`enumerate_type_ab` order as a sort key: class A before B, then
    length, then magnitudes, then signs with + first; a Type B sequence is
    compared by its half, centre last."""
    if cls is ExpansionClass.TYPE_B:
        entries = entries[: len(entries) // 2 + 1]
    return (
        cls is ExpansionClass.TYPE_B,
        len(entries),
        tuple(abs(a) for a in entries),
        tuple(a < 0 for a in entries),
    )


def _least_hit(
    fam: _Family, t: int, m: int, work: list[int]
) -> tuple[tuple[int, ...], ExpansionClass] | None:
    """(entries, class) of the first sequence in :func:`enumerate_type_ab`
    order at crossing sum t that evaluates into the class of fam's knot, or None.

    The hits are the preimages, t - c crossings up, of the eight positive
    Step1 candidates under :func:`_preimages` (see the module docstring).
    The tree is walked depth first; each sequence taken from it costs one
    unit of work[0].  A stack longer than the work left raises
    SearchBudgetExceeded with c <= c2 <= m, so none is built longer.
    A Type B sequence has an odd crossing sum, and a palindrome has a
    symmetric continuant matrix, so its value num/den has den^2 = +-1 (mod
    num): Type B needs an odd t and a knot with q^2 = +-1 (mod p).  Otherwise
    the walk asks :func:`_preimages` for the Type A ones only.
    """
    k, c, slopes, family = fam
    if t < c:
        return None
    a_only = t % 2 == 0 or k.q * k.q % k.p not in (1, k.p - 1)
    residues = set(slopes)
    todo = list({tuple(e) for e in _candidates(family)})
    best = None
    while todo:
        if len(todo) > work[0]:
            raise SearchBudgetExceeded(k, c, m)
        work[0] -= 1
        y = todo.pop()
        room = t - sum(map(abs, y))
        if room:
            todo.extend(islice(_preimages(y, room, a_only), work[0] - len(todo) + 1))
            continue
        cls = _shape(y)
        if cls is ExpansionClass.NEITHER:
            continue
        num, den = _eval_entries(y)
        if abs(num) == k.p and den % k.p in residues:
            key = _order_key(y, cls)
            if best is None or key < best[0]:
                best = key, y, cls
    return best and best[1:]


def search_at(k: TwoBridgeKnot, t: int) -> ContinuedFraction | None:
    """First sequence in enumeration order at crossing sum t that evaluates
    into k's slope class, or None.  Raises SearchBudgetExceeded, naming t,
    past the search's work ceiling."""
    fam = _positive_family(k)
    try:
        hit = _least_hit(fam, t, _semi_even_pick(k, fam[2])[0], [_SEARCH_LIMIT])
    except SearchBudgetExceeded as exc:
        raise SearchBudgetExceeded(exc.knot, exc.c, exc.m, t) from None
    return hit and ContinuedFraction._trusted(hit[0])


# ---------------------------------------------------------------------------
# Full solves


def _solve_stream(records: Iterable[_Family]) -> Iterator[tuple[TwoBridgeKnot, C2Result]]:
    """(knot, result) for each of the distinct knots, as soon as it is known,
    from their records, which are read lazily, each through ``_rungs_of``;
    the census builder's solve.

    A Step1 or Step2 knot comes first, in input order.  Every ExhaustedToBound
    knot stays pending, its residues in the call's one lookup until ``_take``
    removes them.  Each total t in some pending span c < t < m is then swept
    once, with budget t minus the least c below t: a Search hit is yielded
    when found, and a knot still pending at t = m before that total is swept.
    The stream never runs the per-knot search, so it refuses no knot.
    """
    pending: dict[tuple[int, int], C2Result] = {}
    held: list[tuple[int, ...]] = []
    for fam in records:
        k, res = fam[0], _rungs_of(fam)
        if res.method == METHOD_EXHAUSTED:
            pending[(k.p, k.q)] = res
            held.append(fam[2])
        else:
            yield k, res
    lookup = _residue_lookup(held)

    # t runs up to each m, the value of a pending result: at t = m it is final.
    spans = {t for r in pending.values() for t in range(r.base_crossing + 1, r.value + 1)}
    for t in sorted(spans):
        for key in [key for key, r in pending.items() if r.value == t]:
            yield TwoBridgeKnot._trusted(*_take(lookup, *key)), pending.pop(key)
        # Every knot left has m > t and is hit with at most t - c sign changes:
        # one with c >= t only by a Step1 candidate, and none of those is A or B.
        least = min((r.base_crossing for r in pending.values()), default=t)
        for key, cf, cls in _sweep(t, lookup, t - least) if least < t else ():
            k, r = TwoBridgeKnot._trusted(*key), pending.pop(key)
            yield k, C2Result(t, cf, cls, METHOD_SEARCH, r.semi_even_bound, r.base_crossing)


def solve_many(knots: Iterable[TwoBridgeKnot]) -> dict[TwoBridgeKnot, C2Result]:
    """{k: c2(k)} for each distinct knot, in input order; raises
    SearchBudgetExceeded where :func:`c2` does.  No batch sweeps: only the
    census builder, through ``_solve_stream``, shares one sweep per total."""
    return {k: c2(k) for k in dict.fromkeys(knots)}


def c2(k: TwoBridgeKnot) -> C2Result:
    """Least crossing sum over Type A / Type B sequences representing k.

    The rungs of ``_rungs_of``; then, for an ExhaustedToBound result, the
    per-knot search at t = c + 1 .. m - 1, whose first hit is the Search
    result; no sweep.  Raises SearchBudgetExceeded, carrying c and m, when
    the search passes its work ceiling."""
    fam = _positive_family(k)
    res = _rungs_of(fam)
    if res.method == METHOD_EXHAUSTED:
        c, m, work = res.base_crossing, res.value, [_SEARCH_LIMIT]
        for t in range(c + 1, m):
            hit = _least_hit(fam, t, m, work)
            if hit:
                cf = ContinuedFraction._trusted(hit[0])
                return C2Result(t, cf, hit[1], METHOD_SEARCH, m, c)
    return res


def global_c2_map(
    max_crossing: int,
) -> dict[TwoBridgeKnot, tuple[int, ContinuedFraction]]:
    """Independent cross-check: sweep t = 1, 2, 3, ... over the full
    enumeration and record the first t at which each knot appears.

    Uses only enumeration, evaluation, and the slope-class lookup, none of
    the stepwise machinery, so agreement with :func:`c2` is meaningful.
    Returns {knot: (t, first witness)} for every knot with crossing number up
    to max_crossing.  Every knot is found by the time t reaches its semi-even
    bound m (that expansion is itself an enumerated Type A sequence); a knot
    first hit past its m, or left when t passes the largest m, would be an
    implementation bug and raises.
    """
    if max_crossing < 3:
        raise ValueError(f"max_crossing must be >= 3, got {max_crossing}")
    targets: dict[tuple[int, int], tuple[TwoBridgeKnot, int, tuple]] = {}
    for c in range(3, max_crossing + 1):
        for k, _, slopes, _ in _families(c):
            targets[(k.p, k.q)] = (k, _semi_even_pick(k, slopes)[0], slopes)

    lookup = _residue_lookup(slopes for *_, slopes in targets.values())
    found: dict[TwoBridgeKnot, tuple[int, ContinuedFraction]] = {}
    net = max(m for _, m, _ in targets.values())
    for t in range(1, net + 1):
        for key, cf, _ in _sweep(t, lookup, t):
            k, m, _ = targets[key]
            if t > m:
                raise RuntimeError(f"{k} first hit at t={t}, past its semi-even bound {m}")
            found[k] = (t, cf)
        if not lookup:
            return found
    raise RuntimeError(f"enumeration passed every pending bound ({net}) without a hit")
