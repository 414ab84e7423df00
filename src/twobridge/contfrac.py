"""Exact continued-fraction arithmetic for two-bridge slopes.

Evaluation uses the continuant recursion, which never divides and therefore
accepts signed sequences whose intermediate tails vanish; a vanishing final
denominator is reported as the infinite value, not an error.  The three
expansion procedures (positive, even, semi-even) are deterministic and
round-trip through :func:`eval_cf`.  Everything runs on Python integers, so
values of any size stay exact.

All functions are pure and all values immutable, so they are safe to share
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Iterable, Iterator

__all__ = [
    "Rational",
    "ContinuedFraction",
    "ExpansionClass",
    "eval_cf",
    "positive_expansion",
    "positive_expansion_variant",
    "even_expansion",
    "semi_even_expansion",
    "crossing_sum",
    "classify_type",
]


@dataclass(frozen=True)
class Rational:
    """A reduced fraction num/den with den >= 0.

    den == 0 encodes the infinite value that evaluating a signed sequence can
    produce; num is then normalized to +1 or -1.  Zero is 0/1.  0/0 is
    rejected.
    """

    num: int
    den: int = 1

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if den < 0:
            num, den = -num, -den
        if den == 0:
            if num == 0:
                raise ValueError("0/0 is not a value")
            num = 1 if num > 0 else -1
        else:
            g = gcd(abs(num), den)
            if g > 1:
                num //= g
                den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def __str__(self) -> str:
        return "infinity" if self.den == 0 else f"{self.num}/{self.den}"


class ContinuedFraction:
    """A finite sequence [a1, ..., an] of nonzero integer twist counts."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[int]):
        tup = tuple(int(a) for a in entries)
        if not tup:
            raise ValueError("a continued fraction needs at least one entry")
        if any(a == 0 for a in tup):
            raise ValueError(f"entries must be nonzero, got {list(tup)}")
        self.entries = tup

    @classmethod
    def _trusted(cls, tup: tuple[int, ...]) -> "ContinuedFraction":
        # Fast path for internally generated sequences, skips validation.
        cf = object.__new__(cls)
        cf.entries = tup
        return cf

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, ContinuedFraction) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"ContinuedFraction({list(self.entries)})"


class ExpansionClass(Enum):
    """Shape classes of expansions that admit a symmetric diagram."""

    TYPE_A = "TypeA"
    TYPE_B = "TypeB"
    NEITHER = "Neither"


# ---------------------------------------------------------------------------
# Evaluation


def _eval_entries(entries: tuple[int, ...]) -> tuple[int, int]:
    """Continuant recursion; returns (num, den) with den >= 0.

    p_i = a_i * p_{i-1} + p_{i-2} with seeds p_0 = a_1, p_{-1} = 1, and
    q_i likewise with q_0 = 1, q_{-1} = 0.  Consecutive continuants satisfy
    p_i q_{i-1} - p_{i-1} q_i = (-1)^i, so the result is always reduced and a
    zero denominator forces num = +-1.
    """
    pm, p = 1, entries[0]
    qm, q = 0, 1
    for a in entries[1:]:
        pm, p = p, a * p + pm
        qm, q = q, a * q + qm
    if q < 0:
        p, q = -p, -q
    return p, q


def eval_cf(cf: ContinuedFraction) -> Rational:
    """Evaluate [a1,...,an] = a1 + 1/(a2 + 1/(... + 1/an)) exactly."""
    return Rational(*_eval_entries(cf.entries))


def crossing_sum(cf: ContinuedFraction) -> int:
    """Total crossing count of the twist-region diagram, sum of |a_i|."""
    return sum(abs(a) for a in cf.entries)


# ---------------------------------------------------------------------------
# Expansions


def _require_slope(r: Rational, who: str) -> None:
    if r.is_infinite:
        raise ValueError(f"{who} needs a finite slope")
    if r.den < 1 or r.num <= r.den:
        raise ValueError(f"{who} needs num > den >= 1, got {r}")


def _require_mixed_parity(r: Rational, who: str) -> None:
    # Reduced fractions are never even/even, so this rejects odd/odd only.
    if (r.num - r.den) % 2 == 0:
        raise ValueError(
            f"{who} needs exactly one of numerator and denominator even, got {r}"
        )


def _positive_entries(p: int, q: int) -> list[int]:
    out = []
    while q:
        a, r = divmod(p, q)
        out.append(a)
        p, q = q, r
    return out


def positive_expansion(r: Rational) -> ContinuedFraction:
    """Canonical all-positive expansion via Euclid; last entry is >= 2."""
    _require_slope(r, "positive_expansion")
    return ContinuedFraction._trusted(tuple(_positive_entries(r.num, r.den)))


def positive_expansion_variant(cf: ContinuedFraction) -> ContinuedFraction:
    """The other positive expansion of the same value: [..., an - 1, 1]."""
    e = cf.entries
    if any(a < 1 for a in e) or e[-1] < 2:
        raise ValueError(f"not a canonical positive expansion: {list(e)}")
    return ContinuedFraction._trusted(e[:-1] + (e[-1] - 1, 1))


def even_expansion(r: Rational) -> ContinuedFraction:
    """All-even expansion: repeatedly take the even integer within distance 1.

    For p odd / q even the result has even length; for the even/odd extension
    it has odd length.  Entries alternate in magnitude freely but every entry
    is even, and the expansion is unique with that property.
    """
    _require_slope(r, "even_expansion")
    _require_mixed_parity(r, "even_expansion")
    p, q, out = r.num, r.den, []
    while q != 1:
        a = 2 * ((p + q) // (2 * q))  # parity keeps p/q off the odd integers
        out.append(a)
        p, q = q, p - a * q
        if q < 0:
            p, q = -p, -q
    assert p % 2 == 0, "even expansion must terminate on an even integer"
    return ContinuedFraction._trusted((*out, p))


def _semi_even_of(b: list[int], free: bool = True) -> tuple[list[int], int]:
    """(entries, carries): the semi-even expansion of the value of b, a
    positive expansion ending above 1 (or of one entry), read off b in one
    pass with no division, and its number of carries.  free: the first slot
    is free, as for an odd numerator.

    Semi-even slots alternate: a free one (odd numerator) truncates v
    toward zero, a constrained one takes the even integer within distance
    1, and v becomes 1/(v - a).  Both rules commute with negation, so a
    sign s, from +1, rides along and the rule reads |v| = [a, T], T > 1 or
    empty.  A free slot, or a constrained one with a even, emits s * a.  A
    constrained one with a odd, a carry, emits s * (a + 1), and
    a + 1/T - (a + 1) = -(T - 1)/T makes the next value -s (1 + 1/(T - 1)):
    s flips, and for T = [x, ..] the free slot emits s * 1 and the next
    constrained one reads [x - 1, ..] if x > 1; if x = 1, T - 1 = 1/[y, ..]
    and the free slot emits s * (y + 1).  Each carry turns (a, x) into
    (a + 1, 1, x - 1), or (a, 1, y) into (a + 1, y + 1): one more crossing,
    so the crossing sum is sum(b) + carries.  b never runs out in a carry:
    a constrained slot that ends reads an even integer, and b ends above 1.
    """
    out, carries, s = [], 0, 1
    it = iter(b)
    for a in it:
        if free or a % 2 == 0:
            out.append(s * a)
            free = not free
            continue
        while a % 2:  # a carry
            out.append(s * (a + 1))
            s, carries = -s, carries + 1
            x = next(it)
            if x == 1:  # the next slot is constrained again
                out.append(s * (next(it) + 1))
                break
            out.append(s)
            a = x - 1
        else:
            out.append(s * a)
            free = True
    return out, carries


def semi_even_expansion(r: Rational) -> ContinuedFraction:
    """Greedy expansion forcing even entries only where the shape needs them.

    A position is constrained exactly when the current numerator is even; a
    constrained position takes the nearest even integer, an unconstrained one
    truncates toward zero.  For p odd / q even the constrained positions are
    the even-indexed ones, the length comes out even, and the result is a
    Type A sequence whose crossing sum never exceeds the all-even expansion's.
    It is read off the positive expansion by :func:`_semi_even_of`.
    """
    _require_slope(r, "semi_even_expansion")
    _require_mixed_parity(r, "semi_even_expansion")
    entries = _semi_even_of(_positive_entries(r.num, r.den), r.num % 2 == 1)[0]
    return ContinuedFraction._trusted(tuple(entries))


# ---------------------------------------------------------------------------
# Shape classification


def _type_a_violation(entries: tuple[int, ...]) -> int | None:
    """None for a Type A sequence, else its first failed condition: 0 for an
    odd length, or the position (from 1) of the first odd entry at an even
    position.  It builds no text; :func:`twobridge.render.layout` words it."""
    n = len(entries)
    if n % 2:
        return 0
    for i in range(1, n, 2):
        if entries[i] % 2:
            return i + 1
    return None


def _type_b_violation(entries: tuple[int, ...]) -> int | None:
    """None for a Type B sequence, else its first failed condition: 0 for an
    even length, 1 for no signed palindrome, 2 for an even central entry."""
    n = len(entries)
    if n % 2 == 0:
        return 0
    if entries[: n // 2] != entries[: n // 2 : -1]:
        return 1
    if entries[n // 2] % 2 == 0:
        return 2
    return None


def _shape(entries) -> ExpansionClass:
    """:func:`classify_type` of a bare entry sequence, a tuple or a list."""
    if _type_a_violation(entries) is None:
        return ExpansionClass.TYPE_A
    if _type_b_violation(entries) is None:
        return ExpansionClass.TYPE_B
    return ExpansionClass.NEITHER


def classify_type(cf: ContinuedFraction) -> ExpansionClass:
    """Type A: even length, even entries at even positions.  Type B: odd
    length, signed palindrome, odd central entry.  Anything else: Neither."""
    return _shape(cf.entries)
