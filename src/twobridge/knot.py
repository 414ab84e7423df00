"""Two-bridge knot identities.

A two-bridge knot is K(p, q) with p odd, and K(p, q) = K(p', q') exactly when
p = p' and q' is congruent to q or to the inverse of q mod p; mirrors are
identified, which folds q and p - q together.  Every class therefore contains
exactly two even denominators in (0, p), and the smaller one is the canonical
representative used everywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .contfrac import Rational, _eval_entries, _positive_entries

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
    return TwoBridgeKnot(p, _canonical_q(p, q))


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


def _slope_residues(p: int, q: int) -> set[int]:
    """Every r in (0, p) with _knot_key(p, r) == (p, q), for a canonical (p, q)."""
    return set(_slopes(p, q))


def _residue_lookup(keys: Iterable[tuple[int, int]]) -> dict[tuple[int, int], tuple]:
    """(p, r) -> (p, q) for every slope residue r of each knot key (p, q)."""
    return {(p, r): (p, q) for p, q in keys for r in _slope_residues(p, q)}


def fraction_to_knot(r: Rational) -> TwoBridgeKnot | None:
    key = _knot_key(r.num, r.den)
    return None if key is None else TwoBridgeKnot(*key)


def _positive_family(
    k: TwoBridgeKnot,
) -> tuple[int, tuple[int, int, int, int], list[list[int]]]:
    """(c, the four slope denominators from :func:`_slopes`, the positive
    expansion entries of those slopes in the same order): c is their common
    entry sum.  Disagreement would invalidate the whole pipeline and is raised
    as a hard error."""
    slopes = _slopes(k.p, k.q)
    family = [_positive_entries(k.p, r) for r in slopes]
    sums = {sum(e) for e in family}
    if len(sums) != 1:
        raise RuntimeError(
            f"positive expansions of the four slopes of {k} disagree: {sorted(sums)}"
        )
    return sums.pop(), slopes, family


def crossing_number(k: TwoBridgeKnot) -> int:
    """Crossing number, read off as the entry sum of any slope's positive
    expansion; all four slopes must agree."""
    return _positive_family(k)[0]


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


def enumerate_knots(c: int) -> set[TwoBridgeKnot]:
    """All two-bridge knots with crossing number c, canonical and deduplicated:
    each composition of c with last part >= 2 is the positive expansion of a slope."""
    if c < 3:
        raise ValueError(f"two-bridge knots need c >= 3, got {c}")
    comps = ((*m, rest) for n in range(1, c) for m, rest in _fills(c, [1] * (n - 1), 1, 2))
    keys = {_knot_key(*_eval_entries(comp)) for comp in comps}
    keys.discard(None)
    return {TwoBridgeKnot(p, q) for p, q in keys}
