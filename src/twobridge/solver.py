"""Least crossing count over symmetric-diagram expansions of a two-bridge knot.

Two rungs decide c2, by Lemmas A and B below:

1. Step1: a Type A or Type B positive expansion settles the value at the
   crossing number c.  A Type A one exists exactly when the Step2 bound m
   is c (``_solve`` says why).  A Type B one needs q^2 = +-1 (mod p) and
   may be a trailing-1 variant [.., a - 1, 1] (``_type_b_root``).
2. Step2: the semi-even expansions of the two even-denominator slopes give an
   upper bound m realized by a Type A sequence: c plus the fewer carries of
   their positive expansions (``_semi_even_pick``).  m = c + 1 settles the
   value.
   Otherwise the value is m, ExhaustedToBound: by Lemma A no Type A
   sequence into the knot's class has a crossing sum below m, and by
   Lemma B no Type B sequence reaches a knot that Step 1 leaves.

The paper's Step 3, a search of the totals between c and m, survives as
``search.search_at``, the search at one total t, and the independent
oracle ``oracle.global_c2_map`` sweeps every total; this module imports
neither.  Each knot travels as one record, ``knot._Family`` = (k, c,
slopes, family): c, the slope residues and their positive expansions (the
Step1 candidates and search roots), read off one Euclid run or, in the
census, one composition.  One solve, ``_solve``, serves :func:`c2`,
:func:`solve_many` and the census's ``cross_check``; the census itself
counts its rows and solves no knot.

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
   centre, so one of the eight: a value's positive sequences are its
   Euclid expansion and its trailing-1 variant.  ``tests/test_lemmas.py``
   checks each case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .contfrac import ContinuedFraction, ExpansionClass, _semi_even_of, _shape
from .knot import TwoBridgeKnot, _Family, _positive_family

__all__ = [
    "METHOD_STEP1",
    "METHOD_STEP2",
    "METHOD_EXHAUSTED",
    "C2Result",
    "step1_check",
    "step2_bound",
    "c2",
    "solve_many",
]

METHOD_STEP1 = "Step1"
METHOD_STEP2 = "Step2"
METHOD_EXHAUSTED = "ExhaustedToBound"


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
    :func:`solve_many` and the census's cross_check: the Step1 or Step2
    result, or else ExhaustedToBound at the semi-even bound m with its
    witness, which by Lemmas A and B (module docstring) no sequence below m
    beats.

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


def _type_b_root(fam: _Family) -> list[int] | None:
    """The first Type B one of the knot's eight positive sequences, or None.
    By Lemma B (module docstring) the knot has a Type B sequence exactly
    when this is not None.  Only a knot with q^2 = +-1 (mod p) has one (a
    symmetric continuant matrix makes den^2 = +-1 (mod num)), and that is
    tested first, on the record: q^-1 is then q or p - q.  It tests bare
    entry lists; ``_solve`` builds a ContinuedFraction only for the hit."""
    slopes = fam[2]
    if slopes[2] in slopes[:2]:
        for cand in _candidates(fam[3]):
            if _shape(cand) is ExpansionClass.TYPE_B:
                return cand
    return None


# ---------------------------------------------------------------------------
# Full solves


def solve_many(knots: Iterable[TwoBridgeKnot]) -> dict[TwoBridgeKnot, C2Result]:
    """{k: c2(k)} for each distinct knot, in input order."""
    return {k: c2(k) for k in dict.fromkeys(knots)}


def c2(k: TwoBridgeKnot) -> C2Result:
    """Least crossing sum over Type A / Type B sequences representing k:
    the one solve, ``_solve``, on k's record, with no search."""
    return _solve(_positive_family(k))
