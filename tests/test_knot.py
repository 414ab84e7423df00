import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twobridge.contfrac import Rational, _eval_entries, crossing_sum, eval_cf, positive_expansion
from twobridge.knot import (
    TwoBridgeKnot,
    _families,
    _fills,
    _knot_count,
    _knot_key,
    _positive_family,
    canonicalize,
    crossing_number,
    enumerate_knots,
    fraction_to_knot,
    mod_inverse,
    slope_family,
)


def all_knot_pairs(p_max):
    """Every (p, q) with p odd, 3 <= p < p_max, 0 < q < p, coprime."""
    for p in range(3, p_max, 2):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                yield p, q


@st.composite
def knots(draw, max_p=4001):
    p = draw(st.integers(1, max_p // 2)) * 2 + 1
    q = draw(st.integers(1, p - 1))
    g = math.gcd(p, q)
    while g > 1:  # nudge q to the next coprime value
        q = q % (p - 1) + 1
        g = math.gcd(p, q)
    return canonicalize(p, q)


class TestModInverse:
    def test_pinned(self):
        assert mod_inverse(5, 13) == 8
        assert mod_inverse(1, 97) == 1
        assert mod_inverse(4, 15) == 4

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            mod_inverse(6, 9)

    @pytest.mark.parametrize(
        "q, p, message", [(3, 4, "modulus must be odd"), (5, 3, "q must lie in")]
    )
    def test_rejects_bad_modulus_and_range(self, q, p, message):
        with pytest.raises(ValueError, match=message):
            mod_inverse(q, p)

    @given(knots())
    def test_involution(self, k):
        inv = mod_inverse(k.q, k.p)
        assert 0 < inv < k.p
        assert (inv * k.q) % k.p == 1
        assert mod_inverse(inv, k.p) == k.q


class TestCanonicalize:
    def test_canonical_q_computed_once(self, monkeypatch):
        import twobridge.knot as knot

        calls, real = [], knot._slopes

        def counted(p, q):
            calls.append((p, q))
            return real(p, q)

        monkeypatch.setattr(knot, "_slopes", counted)
        k = canonicalize(100003, 40000)
        assert len(calls) == 1
        calls.clear()
        assert fraction_to_knot(Rational(100003, 40000)) == k
        assert len(calls) == 1
        assert k == TwoBridgeKnot(100003, 16668)

    def test_pinned(self):
        assert canonicalize(13, 5) == TwoBridgeKnot(13, 8)
        assert canonicalize(13, 8) == TwoBridgeKnot(13, 8)
        assert canonicalize(3, 1) == TwoBridgeKnot(3, 2)
        assert canonicalize(15, 11) == TwoBridgeKnot(15, 4)

    def test_mirror_folds_in(self):
        assert canonicalize(13, -5) == canonicalize(13, 5)
        assert canonicalize(7, -3) == canonicalize(7, 4)

    def test_rejects_links_and_junk(self):
        with pytest.raises(ValueError):
            canonicalize(4, 3)  # even p: two-bridge link
        with pytest.raises(ValueError):
            canonicalize(1, 1)
        with pytest.raises(ValueError):
            canonicalize(9, 3)  # not coprime
        with pytest.raises(ValueError):
            canonicalize(9, 11)  # out of range

    def test_constructor_requires_canonical_form(self):
        with pytest.raises(ValueError):
            TwoBridgeKnot(13, 5)  # odd q
        with pytest.raises(ValueError):
            TwoBridgeKnot(17, 12)  # even, but the partner slope 10 is smaller
        with pytest.raises(ValueError, match="p must be odd"):
            TwoBridgeKnot(4, 2)  # even p: two-bridge link

    def test_exhaustive_small_range(self):
        # Every slope of every knot with p < 400 canonicalizes to the same
        # knot, and the mirror does too.
        for p, q in all_knot_pairs(400):
            k = canonicalize(p, q)
            assert canonicalize(p, p - q) == k
            assert canonicalize(p, mod_inverse(q, p)) == k
            assert canonicalize(p, -q) == k

    @given(knots())
    def test_idempotent(self, k):
        assert canonicalize(k.p, k.q) == k


class TestSlopeFamily:
    def test_worked_example(self):
        fam = slope_family(TwoBridgeKnot(13, 8))
        assert sorted(str(r) for r in fam) == ["13/5", "13/5", "13/8", "13/8"]

    @given(knots())
    def test_all_slopes_reduce_to_same_knot(self, k):
        fam = slope_family(k)
        for r in fam:
            assert 0 < r.den < r.num == k.p
            assert fraction_to_knot(r) == k

    @given(knots())
    def test_exactly_two_even_denominators(self, k):
        evens = [r for r in slope_family(k) if r.den % 2 == 0]
        assert len(evens) == 2


class TestFractionToKnot:
    def test_links_and_trivial_values_map_to_none(self):
        assert fraction_to_knot(Rational(4, 3)) is None  # even numerator
        assert fraction_to_knot(Rational(1, 1)) is None
        assert fraction_to_knot(Rational(1, 0)) is None
        assert fraction_to_knot(Rational(0, 1)) is None

    def test_negative_value_is_mirror(self):
        assert fraction_to_knot(Rational(-13, 5)) == canonicalize(13, 5)

    def test_denominator_taken_mod_p(self):
        # 13/18 is not a slope, but 18 = 5 mod 13 names the same knot.
        assert fraction_to_knot(Rational(13, 18)) == canonicalize(13, 5)


class TestCrossingNumber:
    def test_pinned(self):
        assert crossing_number(canonicalize(3, 2)) == 3
        assert crossing_number(canonicalize(13, 5)) == 6
        assert crossing_number(canonicalize(15, 4)) == 7

    def test_exhaustive_four_slope_agreement(self):
        # The positive-expansion crossing sums of all four slopes agree, and
        # crossing_number, read off one of them, is that sum.
        for p, q in all_knot_pairs(400):
            k = canonicalize(p, q)
            sums = {
                crossing_sum(positive_expansion(r)) for r in slope_family(k)
            }
            assert len(sums) == 1
            assert crossing_number(k) == sums.pop()

    @given(st.one_of(knots(), knots(max_p=10**15)))
    def test_matches_own_slope_expansion(self, k):
        r = Rational(k.p, k.q)
        cf = positive_expansion(r)
        assert eval_cf(cf) == r
        assert crossing_number(k) == crossing_sum(cf)
        assert _positive_family(k) == (
            k,
            crossing_number(k),
            tuple(s.den for s in slope_family(k)),
            [list(positive_expansion(s).entries) for s in slope_family(k)],
        )


class TestEnumerateKnots:
    @staticmethod
    def ernst_sumners(c):
        # Two-bridge knots with crossing number c, mirrors identified
        # (Ernst and Sumners, 1987).
        if c % 2 == 0:
            return (2 ** (c - 3) + 2 ** ((c - 4) // 2) - (c % 4 == 2)) // 3
        return (2 ** (c - 3) + 2 ** ((c - 3) // 2) + (c % 4 == 3)) // 3

    @pytest.mark.parametrize("c", range(3, 19))
    def test_count_matches_closed_form(self, c):
        assert len(enumerate_knots(c)) == self.ernst_sumners(c)

    def test_library_count_matches_closed_form(self):
        assert [_knot_count(c) for c in range(3, 41)] == [
            self.ernst_sumners(c) for c in range(3, 41)
        ]

    @staticmethod
    def every_composition(c):
        # The reference: the knot of every composition of c with last part
        # >= 2, each the positive expansion of a slope, deduplicated.
        comps = ((*m, rest) for n in range(1, c) for m, rest in _fills(c, [1] * (n - 1), 1, 2))
        keys = {_knot_key(*_eval_entries(comp)) for comp in comps}
        keys.discard(None)
        return {TwoBridgeKnot(p, q) for p, q in keys}

    @pytest.mark.parametrize("c", range(3, 19))
    def test_one_composition_per_knot(self, c):
        families = list(_families(c))
        knots = [k for k, *_ in families]
        assert len(set(knots)) == len(knots)
        assert set(knots) == self.every_composition(c) == enumerate_knots(c)
        for fam in families:
            k = fam[0]
            assert TwoBridgeKnot(k.p, k.q) == k  # canonical
            assert fam == _positive_family(k)
            slopes = slope_family(k)  # from a modular inverse and Euclid runs
            assert fam == (
                k,
                c,
                tuple(s.den for s in slopes),
                [list(positive_expansion(s).entries) for s in slopes],
            )


def _palindromes(c):
    """The palindromic compositions b of c with first and last entry >= 2:
    [c], and h + [mid] + reversed(h) with h[0] >= 2 and mid >= 1, or with
    no middle entry (mid = 0).  About 2^(c/2) of them: the reference
    enumeration for the census's palindrome count."""
    yield [c]
    for k in range(1, c // 2):  # sum(h) >= k + 1
        for m, mid in _fills(c - 2, [1] * k, 2, 0):
            h = [m[0] + 1, *m[1:]]
            yield [*h, mid, *h[::-1]] if mid else [*h, *h[::-1]]


class TestPalindromes:
    @pytest.mark.parametrize("c", range(3, 17))
    def test_every_palindromic_composition_once(self, c):
        got = [tuple(b) for b in _palindromes(c)]
        comps = (
            (*m, rest) for n in range(1, c) for m, rest in _fills(c, [1] * (n - 1), 1, 2)
        )
        want = {b for b in comps if b[0] >= 2 and b == b[::-1]}
        assert len(got) == len(set(got)) and set(got) == want

    def test_palindromic_knots_are_the_palindromes_to_16(self):
        # q^2 = +-1 (mod p) exactly when the knot's compositions with first
        # and last entry >= 2, b and reversed(b), are one palindrome.
        for c in range(3, 17):
            for k, _, _, family in _families(c):
                b = [e for e in family if e[0] >= 2]
                assert (k.q * k.q % k.p in (1, k.p - 1)) == (b[0] == b[0][::-1]), k
