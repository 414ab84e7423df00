"""Evidence for c2 in {c, m}: two lemmas, checked by enumeration.

Lemma A: for p odd and r even, no Type A sequence whose value has numerator
+-p and denominator +-r (mod p) has a smaller crossing sum than the
semi-even expansion of p/r.  A Type A value always has an even denominator
(mod 2 each pair of continuant matrices multiplies to [[1, a], [0, 1]]), so
r is den mod p, or p minus it when that is odd.

Lemma B, in the form that holds: a knot's least Type B crossing sum, when
it is below the semi-even bound m, is the crossing number c, and the knot
is decided by Step1.  Through crossing sum 15 it is c for every knot that
a Type B sequence reaches.  The stronger form, that no Type B sequence has
a crossing sum strictly between c and m, is false.
"""

from math import gcd

import pytest

from twobridge.contfrac import (
    ContinuedFraction,
    ExpansionClass,
    _eval_entries,
    _semi_even_entries,
    classify_type,
    crossing_sum,
)
from twobridge.knot import TwoBridgeKnot, _knot_key
from twobridge.solver import METHOD_STEP1, _rungs, c2, enumerate_type_ab


def _semi_even_sum(p, r):
    return sum(map(abs, _semi_even_entries(p, r)))


def _even_slope(num, den):
    """(p, r): |num| and the even one of +-den mod |num|."""
    p, r = abs(num), den % abs(num)
    return p, r if r % 2 == 0 else p - r


def _values(totals, cls):
    """(t, entries, num, den) for each sequence of class cls in
    :func:`enumerate_type_ab` at the given totals."""
    for t in totals:
        for cf in enumerate_type_ab(t):
            if classify_type(cf) is cls:
                yield (t, cf.entries, *_eval_entries(cf.entries))


@pytest.fixture(scope="module")
def type_a_slopes_to_14():
    """(t, entries, p, r): each Type A sequence with crossing sum t <= 14 and
    |num| = p >= 3, with its even slope residue r."""
    return [
        (t, entries, *_even_slope(num, den))
        for t, entries, num, den in _values(range(1, 15), ExpansionClass.TYPE_A)
        if abs(num) >= 3
    ]


class TestLemmaA:
    def test_no_type_a_sequence_beats_its_semi_even_sum(self, type_a_slopes_to_14):
        for t, entries, p, r in type_a_slopes_to_14:
            assert _semi_even_sum(p, r) <= t, entries
        assert len(type_a_slopes_to_14) == 16_128
        assert len({(p, r) for *_, p, r in type_a_slopes_to_14}) == 1_104

    def test_every_even_slope_within_14_is_reached(self, type_a_slopes_to_14):
        slopes = [
            (p, r)
            for p in range(3, 200, 2)
            for r in range(2, p, 2)
            if gcd(p, r) == 1 and _semi_even_sum(p, r) <= 14
        ]
        assert len(slopes) == 978
        assert set(slopes) <= {(p, r) for *_, p, r in type_a_slopes_to_14}


class TestLemmaB:
    def test_a_type_b_sequence_between_c_and_m(self):
        # K(209, 56) has c = 13 and m = 16, and a Type B sequence at 15.
        cf = ContinuedFraction((4, -3, -1, -3, 4))
        assert _eval_entries(cf.entries) == (209, 56)
        assert classify_type(cf) is ExpansionClass.TYPE_B
        assert crossing_sum(cf) == 15
        res = c2(TwoBridgeKnot(209, 56))
        assert (res.base_crossing, res.semi_even_bound) == (13, 16)
        assert (res.value, res.method) == (13, METHOD_STEP1)

    def test_least_type_b_sum_below_m_is_c(self):
        # Odd totals to 15: the least Type B sum of each knot it reaches.
        least = {}
        for t, _, num, den in _values(range(1, 16, 2), ExpansionClass.TYPE_B):
            if key := _knot_key(num, den):
                least.setdefault(key, t)
        below = 0
        for key, t in least.items():
            res = _rungs(TwoBridgeKnot(*key))
            assert (t, res.method) == (res.base_crossing, METHOD_STEP1), key
            below += t < res.semi_even_bound
        # The other 7 are K(p, p - 1), p = 3 .. 15, with c = m = p.
        assert (len(least), below) == (85, 78)
