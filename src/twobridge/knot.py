"""Two-bridge knot identities.

A two-bridge knot is K(p, q) with p odd, and K(p, q) = K(p', q') exactly when
p = p' and q' is congruent to q or to the inverse of q mod p; mirrors are
identified, which folds q and p - q together.  Every class therefore contains
exactly two even denominators in (0, p), and the smaller one is the canonical
representative used everywhere in this package.

Each slope p/r, 0 < r < p, has one positive expansion with last entry >= 2
(Euclid's), and its entry sum is the crossing number c.  The four slopes of
a knot pair up in two ways, so one expansion gives all four:

- Mirror: if p/q = [a1, .., an] with a1 >= 2, then p/(p - q) = [1, a1 - 1,
  a2, .., an].  So of the slopes q and p - q exactly one has an expansion
  that starts with an entry >= 2, and it gives the other's.
- Reversal: the continuant matrix of [a1, .., an] is [[p, r], [q, s]], with
  p = K(a1..an), q = K(a2..an), r = K(a1..a(n-1)) and s = K(a2..a(n-1)).
  The reversed sequence has the transposed matrix, so [an, .., a1] = p/r,
  and the determinant p s - q r = (-1)^n gives q r = (-1)^(n+1) (mod p):
  r is q^-1 or p - q^-1, a slope of the same knot.

So a knot's slope expansions with first and last entry >= 2 are some b and
reversed(b), one sequence when b is a palindrome, and the other two are their
[1, a - 1, ..] partners.  :func:`_family_of` reads all four slopes and
expansions off b with no Euclid run and no modular inverse, and every path
goes through it: :func:`_positive_family` hands it one Euclid run, and
:func:`_families` each composition b of c with b <= reversed(b).  Both
give the same record, ``_Family`` = (k, c, slopes, family), which the
solver carries through every rung.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

from .contfrac import Rational, _positive_entries

__all__ = [
    "TwoBridgeKnot",
    "mod_inverse",
    "canonicalize",
    "slope_family",
    "fraction_to_knot",
    "crossing_number",
    "enumerate_knots",
]


def mod_inverse(q: int, p: int) -> int:
    """The q' in (0, p) with q * q' = 1 mod p; p odd >= 3, gcd(p, q) = 1."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {p}")
    if not 0 < q < p:
        raise ValueError(f"q must lie in (0, p), got q={q}, p={p}")
    if gcd(p, q) != 1:
        raise ValueError(f"q must be coprime to p, got q={q}, p={p}")
    return _slopes(p, q)[2]


def _slopes(p: int, q: int) -> tuple[int, int, int, int]:
    """The denominators q, p - q, q^-1, p - q^-1 (mod p) of the slopes of
    K(p, q), in :func:`slope_family` order.  One of each pair is even."""
    qi = pow(q, -1, p)
    return q, p - q, qi, p - qi


def _canonical_q(p: int, q: int) -> int:
    a, b, ai, bi = _slopes(p, q)
    e, ei = a if a % 2 == 0 else b, ai if ai % 2 == 0 else bi
    return e if e <= ei else ei


@dataclass(frozen=True, order=True)
class TwoBridgeKnot:
    """Canonical representative K(p, q): p odd >= 3, q even, q the smaller of
    the two even denominators in the equivalence class."""

    p: int
    q: int

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if p < 3 or p % 2 == 0:
            raise ValueError(f"p must be odd and >= 3, got {p}")
        if not 0 < q < p or q % 2 != 0 or gcd(p, q) != 1:
            raise ValueError(f"q={q} is not a valid even denominator for p={p}")
        if q != _canonical_q(p, q):
            raise ValueError(
                f"({p}, {q}) is not the canonical representative; use canonicalize()"
            )

    @classmethod
    def _trusted(cls, p: int, q: int) -> "TwoBridgeKnot":
        # Fast path for a (p, q) already known to be canonical, skips validation.
        k = object.__new__(cls)
        object.__setattr__(k, "p", p)
        object.__setattr__(k, "q", q)
        return k

    def __str__(self) -> str:
        return f"K({self.p},{self.q})"


def canonicalize(p: int, q: int) -> TwoBridgeKnot:
    """Map any valid (p, q) to the canonical representative of its class.

    A negative q means the mirror and is folded to p - |q| first; mirrors are
    identified anyway.
    """
    if p % 2 == 0:
        raise ValueError(f"p={p} is even: that is a two-bridge link, not a knot")
    if p <= 1:
        raise ValueError(f"p={p} does not describe a knot")
    if q == 0 or not -p < q < p:
        raise ValueError(f"q must satisfy 0 < |q| < p, got q={q}, p={p}")
    if q < 0:
        q += p
    if gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got p={p}, q={q}")
    return TwoBridgeKnot._trusted(p, _canonical_q(p, q))


def slope_family(k: TwoBridgeKnot) -> tuple[Rational, Rational, Rational, Rational]:
    """The four slopes of k, in the order p/q, p/(p-q), p/q', p/(p-q').

    This is a multiset: entries repeat whenever q is self-inverse mod p.
    """
    return tuple(Rational(k.p, r) for r in _slopes(k.p, k.q))


def _knot_key(num: int, den: int) -> tuple[int, int] | None:
    """Canonical (p, q) for a reduced fraction, or None when it is not a knot.

    None covers the infinite value, numerators of magnitude <= 1 (unknot), and
    even numerators (two-bridge links).  The denominator is reduced mod p; the
    sign of the numerator is dropped because mirrors are identified.
    """
    if den == 0:
        return None
    p = abs(num)
    if p <= 1 or p % 2 == 0:
        return None
    return p, _canonical_q(p, den % p)


def fraction_to_knot(r: Rational) -> TwoBridgeKnot | None:
    key = _knot_key(r.num, r.den)
    return None if key is None else TwoBridgeKnot._trusted(*key)


def _positive_family(k: TwoBridgeKnot) -> _Family:
    """k's record (k, c, slopes, family) from :func:`_family_of`, read off the
    Euclid expansion of p/q or p/(p - q), whichever denominator is below p/2
    and so starts with an entry >= 2."""
    return _family_of(_positive_entries(k.p, min(k.q, k.p - k.q)))


def crossing_number(k: TwoBridgeKnot) -> int:
    """Crossing number: the entry sum of any slope's positive expansion."""
    return _positive_family(k)[1]


def _fills(total: int, units: list[int], weight: int, least: int):
    """Every (m, rest), m in lexicographic order, with m[j] a positive multiple
    of units[j] and rest = total - weight * sum(m) >= least (m = units must
    fit).  m is one list, updated in place."""
    m = list(units)
    rest = total - weight * sum(m)
    while True:
        yield m, rest
        j = len(m) - 1
        while j >= 0 and rest - weight * units[j] < least:  # slot j is full
            rest += weight * (m[j] - units[j])
            m[j] = units[j]
            j -= 1
        if j < 0:
            return
        m[j] += units[j]
        rest -= weight * units[j]


_Family = tuple[TwoBridgeKnot, int, tuple[int, int, int, int], list[list[int]]]


def _family_of(b: list[int]) -> _Family | None:
    """(k, c, slopes, family) from a positive expansion b of a slope of k with
    first and last entry >= 2, or None when b names a link: c is the entry
    sum, slopes the denominators of :func:`_slopes` from k's canonical q, and
    family their positive expansions in the same order.

    With the continuants p = K(a1..an), q = K(a2..an) and r = K(a1..a(n-1))
    of b, q^-1 is r when n is odd and p - r when n is even.  The slopes q,
    p - q, q^-1, p - q^-1 have the expansions b, [1, a1 - 1, a2, .., an],
    and reversed(b) at r with its partner [1, an - 1, .., a1] at p - r, so
    their entry sums agree.  Started from the slope at index i of that list
    instead of q, :func:`_slopes` lists the slope at index j ^ i in place j,
    so the index of the canonical slope, the smaller of the two even ones,
    orders all four.
    """
    pm, p, qm, q = 1, b[0], 0, 1
    for a in b[1:]:
        pm, p = p, a * p + pm
        qm, q = q, a * q + qm
    if p % 2 == 0:
        return None
    rev = b[::-1]
    b1, rev1 = [1, b[0] - 1, *b[1:]], [1, rev[0] - 1, *rev[1:]]
    if len(b) % 2:  # q^-1 = r = pm, whose expansion is reversed(b)
        qi, family = pm, (b, b1, rev, rev1)
    else:  # q^-1 = p - r
        qi, family = p - pm, (b, b1, rev1, rev)
    slopes = (q, p - q, qi, p - qi)
    i, j = q % 2, 2 + qi % 2  # the even slope of each pair
    if slopes[j] < slopes[i]:
        i = j
    return (
        TwoBridgeKnot._trusted(p, slopes[i]),
        sum(b),
        (slopes[i], slopes[i ^ 1], slopes[i ^ 2], slopes[i ^ 3]),
        [family[i], family[i ^ 1], family[i ^ 2], family[i ^ 3]],
    )


def _families(c: int) -> Iterator[_Family]:
    """:func:`_family_of` of one composition b of c per knot with crossing
    number c: the b with first and last entry >= 2 and b <= reversed(b)."""
    for n in range(1, c - 1):  # a1, an >= 2 and the rest >= 1: n <= c - 2
        for m, rest in _fills(c - 1, [1] * (n - 1), 1, 2):
            b = [*m, rest]
            b[0] += 1  # a1 >= 2; for n = 1, b = [c]
            if b <= b[::-1] and (fam := _family_of(b)):
                yield fam


def _knot_count(c: int) -> int:
    """How many knots :func:`enumerate_knots` gives at c >= 3, with no
    enumeration: the closed form of Ernst and Sumners (1987)."""
    return (2 ** (c - 3) + 2 ** ((c - 3) // 2) + (0, 0, -1, 1)[c % 4]) // 3


def enumerate_knots(c: int) -> set[TwoBridgeKnot]:
    """All two-bridge knots with crossing number c: the knots of
    :func:`_families`, which takes one composition of c per knot."""
    if c < 3:
        raise ValueError(f"two-bridge knots need c >= 3, got {c}")
    return {k for k, *_ in _families(c)}
