"""The independent oracle, :func:`global_c2_map`: the least crossing sum of
every knot up to a crossing number, from a sweep of the Type A / Type B
sequences by crossing sum.  It shares no rung or search code; from the
solver it takes only the semi-even bound m, which checks each first hit.

The sweep serves only the oracle.  It skips sequences with a negative
first entry, whose negations come earlier (+ sorts before -) and name the
mirror, and probes each value with one int lookup of a slope residue q,
p - q, q^-1 or p - q^-1 (see :func:`_sweep`).  A Type A counter step sets
the signs of all but the last three entries and then probes the sign
triples of those three in product order, + first.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator

from .contfrac import ContinuedFraction, ExpansionClass
from .knot import TwoBridgeKnot, _families, _fills
from .solver import _semi_even_pick

__all__ = ["enumerate_type_ab", "global_c2_map"]

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
def _sign_steps(n: int) -> tuple[tuple[tuple[tuple[int, int], ...], tuple[int, ...]], ...]:
    """The sign vectors of a pattern of length n with a + first entry, as
    steps.

    The heads, signs of slots 0 .. n - 2, come in product order (+ before -):
    each prefix is extended by + and then by -.  Step (pairs, lasts) turns
    the previous head into the next one: pairs are the (slot, sign) of each
    slot that it rewrites, from the first that differs through n - 2, and
    lasts are the signs that the last slot takes, + first.  The Type A sweep
    asks for n - 2 slots of its n: lasts then sign its third slot from the
    end.
    """
    if n == 1:  # the one entry is the first
        return (((), (1,)),)
    # The pairs of each head of slots 0 .. j: + extends the previous pairs,
    # and the - head after it differs from it first at j.
    heads = [((0, 1),)]
    for j in range(1, n - 1):
        heads = [h for pairs in heads for h in (pairs + ((j, 1),), ((j, -1),))]
    return tuple((pairs, (1, -1)) for pairs in heads)


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

    The signs of each pattern come from :func:`_sign_steps` as (slot, sign)
    pairs, and the prefix continuants are kept, so a step recomputes only the
    prefixes from its first pair on.  A Type A step covers the last three
    slots: its head a[:-3] comes from ``_sign_steps(n - 2)``, each sign of
    a[-3] gives K(a[:-2]) once, each sign of a[-2] then K(a[:-1]) once, and
    both signs of a[-1] are probed inline, all in product order; a[-3:] is
    written only on a hit.  The patterns [y, +-x] of length 2 are probed
    directly.  A Type B step reads each sign of its centre off the
    continuants of its head a[:-1].
    """
    A, B = ExpansionClass.TYPE_A, ExpansionClass.TYPE_B
    for mag in _type_a_magnitudes(t):
        a, n, y, x = list(mag), len(mag), mag[-2], mag[-1]
        if n == 2:  # [y, +-x]: K(a[:-1]) = y, K(a[:-2]) = 1
            for v in (x, -x):
                num = abs(v * y + 1)
                if num in lookup and (r := y % num) in lookup[num]:
                    yield _take(lookup, num, r), ContinuedFraction._trusted((y, v)), A
                    if not lookup:
                        return
            continue
        w, P = mag[-3], [0, 1] + [0] * n  # P[j + 1] = K(a[:j]), from K() = 1
        for pairs, zs in _sign_steps(n - 2):
            for j, s in pairs:
                a[j] = v = s * mag[j]
                P[j + 2] = v * P[j + 1] + P[j]
            p1, p0 = P[n - 2], P[n - 3]
            for z in zs:
                g = z * w * p1 + p0  # K(a[:-2])
                for s in (1, -1):
                    h = s * y * g + p1  # K(a[:-1])
                    u = x * h
                    num = abs(u + g)
                    if num in lookup and (r := h % num) in lookup[num]:
                        a[-3:] = z * w, s * y, x
                        yield _take(lookup, num, r), ContinuedFraction._trusted(tuple(a)), A
                        if not lookup:
                            return
                    num = abs(u - g)
                    if num in lookup and (r := h % num) in lookup[num]:
                        a[-3:] = z * w, s * y, -x
                        yield _take(lookup, num, r), ContinuedFraction._trusted(tuple(a)), A
                        if not lookup:
                            return
    for mag in _type_b_halves(t):
        a, n, last = list(mag), len(mag), mag[-1]
        # M(a[:j]) = [[P[j + 1], P[j]], [Q[j + 1], Q[j]]], from M([]) = I.
        P, Q = [0, 1] + [0] * n, [1, 0] + [0] * n
        for pairs, lasts in _sign_steps(n):
            for j, s in pairs:
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


def global_c2_map(
    max_crossing: int,
) -> dict[TwoBridgeKnot, tuple[int, ContinuedFraction]]:
    """Independent cross-check: sweep t = 1, 2, 3, ... over the full
    enumeration and record the first t at which each knot appears.

    Uses only enumeration, evaluation, and the slope-class lookup, none of
    the stepwise machinery, so agreement with ``solver.c2`` is meaningful.
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
