"""Least crossing count over symmetric-diagram expansions of a two-bridge knot.

Two rungs decide c2, by Lemmas A and B below:

1. Step1: a Type A or Type B positive expansion settles the value at the
   crossing number c.  The Step2 bound m is c plus the fewer carries of
   the even slopes' positive expansions (``contfrac._semi_even_of``).  A
   Type A one is an even slope's that takes no carry, so it exists exactly
   when m = c, and the pick is then the first one (see ``_solve``).  A
   Type B one needs q^2 = +-1 (mod p) and may be a trailing-1 variant
   [.., a - 1, 1].
2. Step2: the semi-even expansions of the two even-denominator slopes give an
   upper bound m realized by a Type A sequence.  m = c + 1 settles the value.
   Otherwise the value is m, ExhaustedToBound: by Lemma A no Type A
   sequence into the knot's class has a crossing sum below m, and by
   Lemma B no Type B sequence reaches a knot that Step 1 leaves.

The paper's Step 3, a search of the totals between c and m, survives as
:func:`search_at`, the search at one total t; no :func:`c2` result carries
METHOD_SEARCH.  Each knot travels as one record, ``knot._Family`` = (k, c,
slopes, family): c, the slope residues and their positive expansions (the
Step1 candidates and search roots), read off one Euclid run or, in the
census, one composition.  One solve, ``_solve``, serves :func:`c2`,
:func:`solve_many` and the census.

Lemma A.  No Type A sequence into the class of an even slope p/r has a
smaller crossing sum than the semi-even expansion [a1, b1, .., an, bn] of
p/r.  Its continuant matrix g is U^a1 L^b1 .. U^an L^bn, with
U = [[1, 1], [0, 1]] and L = [[1, 0], [1, 1]], and a crossing sum is a word
length: U^+-1 costs 1 and L^+-2 costs 2.  U and L^2 generate Gamma_0(2),
which modulo +-I is the free product <u> * <e> of u = U and
e = L^2 U^-1 = [[1, -1], [2, -1]], e^2 = -I.  The class fixes the first
column of the matrix up to sign, so the Type A words into it are those of
the double coset <L^2> g <U> (of the mirror's, -p/r, the negated words).
With L^2 = e u and L^-2 = u^-1 e a word spells u^k0 e u^k1 .. e u^kr, one
e per L^+-2.

1. No e cancels.  An inner k_i = 0 is a subword L^2 U^-1 L^2, L^-2 U L^-2,
   L^2 L^-2 or L^-2 L^2, which is +-U, +-U^-1 or I: the shorter word saves
   4 crossings.  So a shortest word spells the reduced normal form of its
   matrix, which is unique, and only the source of each e is free:
   pi_j = 1 if e_j comes from L^2, which adds 1 to the segment after it,
   pi_j = 0 if from L^-2, which adds -1 to the one before it.
2. The choices decouple.  Segment i then holds U^(k_i - pi_i + 1 -
   pi_(i+1)), pi_0 = 0, and the last segment is free (the right coset).
   For k_i != 0, s_i = sign k_i, that costs |k_i| + s_i (1 - pi_i -
   pi_(i+1)), so a word costs a constant - sum_j pi_j (s_(j-1) + s_j),
   s_r = 0: pi_j = 1 is best where s_(j-1) + s_j >= 0, 0 where it is <= 0.
3. The expansion is optimal.  ``_semi_even_of`` flips its sign only between
   a constrained entry and the free one after it, so a_i has the sign of
   b_i, and a1 >= 1, b1 >= 2.  The segment around U^a_i is [b_(i-1) > 0] +
   a_i - [b_i < 0], with [b_0 > 0] = 0: nonzero, with the sign of b_i.
   The inner segments of L^2j are sign(j).  So the expansion spells the
   normal form of g, with k0 = a1 >= 1, and every e of L^b_i has a left
   neighbour of sign b_i: by 2 its choice pi = [b_i > 0] is best, and its
   crossing sum is the least over g <U>.
4. The left coset.  For j != 0, L^2j g spells the normal form of g with
   |j| more e's in front, kept reduced by k0 >= 1, and only the cost of
   k0's segment changes, by at most 1.  So each word of L^2j g <U> costs
   at least 2|j| - 1 more than the word of g with the same choices for
   g's e's.

So the least Type A crossing sum over the knot's even slopes is m.
``tests/test_lemmas.py`` checks the sign pattern and the segments on every
even slope with c <= 16 and on a seeded draw, and compares the least sum
with enumeration up to crossing sum 14.

Sign changes cost crossings.  The identity [.., a, -b, tail] = [.., a - 1,
1, b - 1, -tail] keeps the value and removes one crossing and one sign
change; the zeros it may leave merge without adding crossings ([x, 0, y] =
[x + y], a trailing [.., y, x, 0] = [.., y], and a leading [0, x, rest]
names the knot of [rest]).  So a sequence with crossing sum t and s sign
changes between adjacent entries evaluates to a knot with c <= t - s.

Lemma B.  If a Type B sequence evaluates into a knot's class, one of the
knot's eight positive sequences (:func:`_candidates`) is Type B.  Write it
as x = w [z] rev(w), z odd, with a positive first entry (-x names the
mirror); M(x) = M(w) S_z M(w)^T, with M([a]) = S_a = [[a, 1], [1, 0]].

1. Reduction.  At a sign change, w = u [a, -b] v, the identity reads
   M(w) = M(w') D with w' = u [a - 1, 1, b - 1] (-v) and D = diag(+-1, +-1),
   det D = -1, so D S_z D = -S_(-z): w' [-z] rev(w') has x's value up to
   sign and 2 fewer crossings.  Zeros merge on both sides at once; one next
   to the centre takes z to z + 2y, still odd, and a leading one drops with
   its mirror.  A negative first entry is negated.  This ends at a base
   w [z] rev(w) in the class, w positive or empty and z odd.
2. Bases.  If z > 0 or w is empty, the base or its negation is positive.
   Else z = -z', w = u [a], and moves at the centre give
   u [a - 1, 1, z' - 2, 1, a - 1] rev(u) if z' >= 3, u [a - 2, 1, a - 2]
   rev(u) if z' = 1, and for a = z' = 1 [u, -rev(u)], then
   u' [a2 - 1, 1, a2 - 1] rev(u') for u = u' [a2].  Zeros merge as in 1,
   or leave [0, 1, 0] or [1, -1, 1], no knot.  The result, 0, 2 or 4
   crossings below the base, is a positive odd palindrome with an odd
   centre, so one of the eight (see below).  ``tests/test_lemmas.py``
   checks each case.

The per-knot search of :func:`search_at` turns that around.  Take a hit x
at t = c + d with a positive first entry (its negation names the mirror,
the same knot).  Apply the move at its first sign change,
with its merges, again and again: each step removes at least one crossing,
so after at most d steps no sign change is left, and what is left is a
positive sequence of the knot's class with crossing sum c.  The positive
sequences of a value p/r are its Euclid expansion and the trailing-1
variant, so it is one of the eight of :func:`_candidates`.  ``_preimages`` undoes
one such step exactly, at every cost: every x it yields maps back, and
every preimage is yielded once.  So the hits at t are the Type A / Type B
sequences among the preimages of the eight candidates that lie d crossings
up.  For fixed d their number is polynomial in c, where a sweep's grows
exponentially in t.  Each is evaluated before it counts, and the least
under ``_order_key``, which reproduces :func:`enumerate_type_ab` order, is
the answer.  The walk prunes what cannot be Type A: a later step keeps the
entries after the first sign change in place counted from the right, and
Type A fixes the parity of every other one of them.  Where Type B cannot
hit, a preimage that spends all the crossings left is a leaf, and it is
built only if it is Type A, which a few parities of its node decide.  One
:func:`search_at` call walks at most ``_SEARCH_LIMIT`` sequences: once it
holds more than it may still walk, it raises SearchBudgetExceeded with its
total and the proven bracket c <= c2 <= m.

The sweep serves only :func:`global_c2_map`, the independent oracle.  It
skips sequences with a negative first entry, whose negations come earlier
(+ sorts before -) and name the mirror, and probes each value with one int
lookup of a slope residue q, p - q, q^-1 or p - q^-1 (see :func:`_sweep`).
A Type A counter step sets the signs of all but the last two entries and
then probes the sign pairs of those two in product order, + first.
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
    _semi_even_of,
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

# Work ceiling of one search_at call: sequences built by the per-knot search.
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
    """:func:`search_at` reached its work ceiling at the crossing total t;
    the message names t and the proven bracket c <= c2 <= m."""

    def __init__(self, knot: TwoBridgeKnot, c: int, m: int, t: int):
        super().__init__(f"search of {knot} at t={t} passed the search limit: {c} <= c2 <= {m}")
        self.knot, self.c, self.m, self.t = knot, c, m, t


# ---------------------------------------------------------------------------
# Steps 1 and 2


def _semi_even_pick(fam: _Family) -> tuple[int, ContinuedFraction]:
    """(m, witness): the best semi-even expansion over the (one or two) even
    slopes of the knot's record, ties on crossing sum going to the smaller
    one.

    A record lists its smaller even slope first and the other pair's even
    one in slopes[2:]; they agree exactly when q^2 = +-1 (mod p).  Each
    expansion is read off the slope's positive expansion by the carry rule
    of ``contfrac._semi_even_of``, so m = c + the fewer carries."""
    _, c, slopes, family = fam
    j = 2 if slopes[2] % 2 == 0 else 3
    e, s = _semi_even_of(family[0])
    if slopes[j] != slopes[0]:
        f, t = _semi_even_of(family[j])
        if t < s:
            e, s = f, t
    return c + s, ContinuedFraction._trusted(tuple(e))


def _candidates(family: list[list[int]]) -> Iterator[list[int]]:
    """The eight positive sequences of a knot's class, the search roots:
    each positive expansion of the four slopes (last entry >= 2) and its
    [.., a - 1, 1] variant."""
    for entries in family:
        yield entries
        yield entries[:-1] + [entries[-1] - 1, 1]


def _solve(fam: _Family) -> C2Result:
    """The knot's result from its record, the one solve behind :func:`c2`,
    :func:`solve_many` and the census: the Step1 or Step2 result, or else
    ExhaustedToBound at the semi-even bound m with its witness, which by
    Lemmas A and B (module docstring) no sequence below m beats.

    Step1's Type A case is m = c, with the pick's witness.  m is c plus the
    fewer carries, and an even slope's positive expansion b takes no carry
    exactly when it is Type A: up to its first carry the rule copies b,
    whose even places are the constrained slots, so a Type A b takes none,
    and with none b is the semi-even expansion, which is Type A for an even
    denominator.  Odd slopes are never Type A (a Type A value has an even
    denominator), and ties go to the smaller slope, the record's first."""
    c = fam[1]
    m, wit = _semi_even_pick(fam)
    if m == c:
        return C2Result(c, wit, ExpansionClass.TYPE_A, METHOD_STEP1, m, c)
    if root := _type_b_root(fam):
        cf = ContinuedFraction._trusted(tuple(root))
        return C2Result(c, cf, ExpansionClass.TYPE_B, METHOD_STEP1, m, c)
    method = METHOD_STEP2 if m == c + 1 else METHOD_EXHAUSTED
    return C2Result(m, wit, ExpansionClass.TYPE_A, method, m, c)


def step1_check(k: TwoBridgeKnot) -> C2Result | None:
    """Try the positive sequences; a Type A/B hit means value = c(K)."""
    res = c2(k)
    return res if res.method == METHOD_STEP1 else None


def step2_bound(k: TwoBridgeKnot) -> int:
    """Semi-even upper bound m; meaningful once step1_check has failed.
    Raises RuntimeError when m <= c(K): there Step 1 decides the knot."""
    res = c2(k)
    c, m = res.base_crossing, res.semi_even_bound
    if m <= c:
        raise RuntimeError(
            f"semi-even bound {m} for {k} does not exceed c={c}; "
            "Step 1 must already decide this knot"
        )
    return m


def _palindromic(k: TwoBridgeKnot) -> bool:
    """q^2 = +-1 (mod p): only such a knot has a Type B sequence, whose
    symmetric continuant matrix makes den^2 = +-1 (mod num)."""
    return k.q * k.q % k.p in (1, k.p - 1)


def _type_b_root(fam: _Family) -> list[int] | None:
    """The first Type B one of the knot's eight positive sequences, or None.
    By Lemma B (module docstring) the knot has a Type B sequence exactly
    when this is not None; q^2 = +-1 (mod p) is tested first."""
    if _palindromic(fam[0]):
        for cand in _candidates(fam[3]):
            if _shape(cand) is ExpansionClass.TYPE_B:
                return cand
    return None


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
def _sign_steps(n: int) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """The sign vectors of a pattern of length n with a + first entry, as
    steps.

    The heads, signs of slots 0 .. n - 2, come in product order (+ before -):
    each prefix is extended by + and then by -.  Step (i, signs, lasts) turns
    the previous head into the next one: i is the first slot that differs,
    signs are the new signs of slots i .. n - 2, and lasts are the signs that
    the last slot takes, + first.  The Type A sweep asks for n - 1 slots of
    its n: lasts then sign the slot before its last.
    """
    if n == 1:  # the one entry is the first
        return ((0, (), (1,)),)
    # (i, signs of slots i .. j) for each head of slots 0 .. j: + keeps i, and
    # the - head after it differs from it first at j.
    heads = [(0, (1,))]
    for j in range(1, n - 1):
        heads = [h for i, signs in heads for h in ((i, signs + (1,)), (j, (-1,)))]
    return tuple((i, signs, (1, -1)) for i, signs in heads)


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


def _sweep(t: int, lookup: dict) -> Iterator[tuple]:
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

    The signs of each pattern come from :func:`_sign_steps`, and the prefix
    continuants are kept, so a step from slot i recomputes only the prefixes
    from i on.  A Type A step covers the last two slots: its head a[:-2] comes
    from ``_sign_steps(n - 1)``, each sign of a[-2] gives K(a[:-1]) off the
    head's continuants, and both signs of a[-1] are probed inline, in
    product order; a[-2:] is written only on a hit.  A Type B step reads
    each sign of its centre off the continuants of its head a[:-1].
    """
    A, B = ExpansionClass.TYPE_A, ExpansionClass.TYPE_B
    for mag in _type_a_magnitudes(t):
        a, n, y, x = list(mag), len(mag), mag[-2], mag[-1]
        P = [0, 1] + [0] * n  # P[j + 1] = K(a[:j]), from K() = 1
        for i, signs, ys in _sign_steps(n - 1):
            for j, s in enumerate(signs, i):
                a[j] = v = s * mag[j]
                P[j + 2] = v * P[j + 1] + P[j]
            p1, p0 = P[n - 1], P[n - 2]
            for s in ys:
                h = s * y * p1 + p0  # K(a[:-1])
                u = x * h
                num = abs(u + p1)
                if num in lookup and (r := h % num) in lookup[num]:
                    a[-2:] = s * y, x
                    yield _take(lookup, num, r), ContinuedFraction._trusted(tuple(a)), A
                    if not lookup:
                        return
                num = abs(u - p1)
                if num in lookup and (r := h % num) in lookup[num]:
                    a[-2:] = s * y, -x
                    yield _take(lookup, num, r), ContinuedFraction._trusted(tuple(a)), A
                    if not lookup:
                        return
    for mag in _type_b_halves(t):
        a, n, last = list(mag), len(mag), mag[-1]
        # M(a[:j]) = [[P[j + 1], P[j]], [Q[j + 1], Q[j]]], from M([]) = I.
        P, Q = [0, 1] + [0] * n, [1, 0] + [0] * n
        for i, signs, lasts in _sign_steps(n):
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
# Per-knot search: the preimages of the eight positive sequences


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
    sequences of :func:`_candidates` under :func:`_preimages` (see the
    module docstring).
    The tree is walked depth first; each sequence taken from it costs one
    unit of work[0].  A stack longer than the work left raises
    SearchBudgetExceeded with t and c <= c2 <= m, so none is built longer.
    Type B needs an odd t and, by Lemma B, a knot with a Type B positive
    sequence (:func:`_type_b_root`); otherwise the walk asks
    :func:`_preimages` for the Type A ones only.
    """
    k, c, slopes, family = fam
    if t < c:
        return None
    a_only = t % 2 == 0 or not _type_b_root(fam)
    residues = set(slopes)
    todo = list({tuple(e) for e in _candidates(family)})
    best = None
    while todo:
        if len(todo) > work[0]:
            raise SearchBudgetExceeded(k, c, m, t)
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
    past the search's work ceiling.

    A t below m gets None with no walk when it is even or the knot has no
    Type B sequence (:func:`_type_b_root`): by Lemma A no Type A sequence
    and by Lemma B no Type B one can hit there."""
    fam = _positive_family(k)
    m = _semi_even_pick(fam)[0]
    if t < m and (t % 2 == 0 or not _type_b_root(fam)):
        return None
    hit = _least_hit(fam, t, m, [_SEARCH_LIMIT])
    return hit and ContinuedFraction._trusted(hit[0])


# ---------------------------------------------------------------------------
# Full solves


def solve_many(knots: Iterable[TwoBridgeKnot]) -> dict[TwoBridgeKnot, C2Result]:
    """{k: c2(k)} for each distinct knot, in input order."""
    return {k: c2(k) for k in dict.fromkeys(knots)}


def c2(k: TwoBridgeKnot) -> C2Result:
    """Least crossing sum over Type A / Type B sequences representing k:
    the one solve, ``_solve``, on k's record, with no search."""
    return _solve(_positive_family(k))


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
        for fam in _families(c):
            k, slopes = fam[0], fam[2]
            targets[(k.p, k.q)] = (k, _semi_even_pick(fam)[0], slopes)

    lookup = _residue_lookup(slopes for *_, slopes in targets.values())
    found: dict[TwoBridgeKnot, tuple[int, ContinuedFraction]] = {}
    net = max(m for _, m, _ in targets.values())
    for t in range(1, net + 1):
        for key, cf, _ in _sweep(t, lookup):
            k, m, _ = targets[key]
            if t > m:
                raise RuntimeError(f"{k} first hit at t={t}, past its semi-even bound {m}")
            found[k] = (t, cf)
        if not lookup:
            return found
    raise RuntimeError(f"enumeration passed every pending bound ({net}) without a hit")
