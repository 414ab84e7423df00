"""Evidence for c2 in {c, m}: two lemmas, checked by enumeration.

Lemma A: for p odd and r even, no Type A sequence whose value has numerator
+-p and denominator +-r (mod p) has a smaller crossing sum than the
semi-even expansion of p/r.  A Type A value always has an even denominator
(mod 2 each pair of continuant matrices multiplies to [[1, a], [0, 1]]), so
r is den mod p, or p minus it when that is odd.

The Type A distance of ``solver._type_a_distance``, read off a slope's
semi-even expansion in Gamma_0(2), is the least Type A crossing sum into
the slope, so Lemma A says that it is m.  Its three facts are checked here:
the expansion's first entries keep the normal form's first segment
positive, no inner segment is 0, and one update stands for a run of equal
segments.

Lemma B, in the form that holds: a knot's least Type B crossing sum, when
it is below the semi-even bound m, is the crossing number c, and the knot
is decided by Step1.  Through crossing sum 15 it is c for every knot that
a Type B sequence reaches.  The stronger form, that no Type B sequence has
a crossing sum strictly between c and m, is false.

The Type B bound of ``solver._type_b_reaches`` is computed, not proved to
be tight: it must only never rule out a total that a Type B sequence
reaches.  Both of its facts are checked here: every Type B sequence passes
it, and E(|K(w)|, |K(w[:-1])|) <= crossing_sum(w) for every signed w.

The rungs take shortcuts that rest on facts checked here too.  Step 1
scans the [.., a - 1, 1] variants only for a knot with q^2 = +-1 (mod p):
no variant is Type A, and no candidate of another knot is Type B.  Step 1's
Type A case is the semi-even bound m = c: m = c exactly when some positive
expansion of the four slopes is Type A, and the rungs equal a reference
copy of the scan over the candidates' shapes, witness included.  The
semi-even pick and the Type A distance equal reference copies of their
plainer forms, a sort over the set of even slopes and a min()-based
program.  Each is checked on every knot with c <= 16 and on a seeded draw
with p < 10^15.
"""

import random
import sys
from itertools import product
from math import gcd

import pytest

from twobridge.contfrac import (
    ContinuedFraction,
    ExpansionClass,
    _eval_entries,
    _semi_even_entries,
    _shape,
    classify_type,
    crossing_sum,
)
from twobridge.knot import (
    TwoBridgeKnot,
    _families,
    _knot_key,
    _positive_family,
    _slopes,
    canonicalize,
)
from twobridge.solver import (
    METHOD_EXHAUSTED,
    METHOD_STEP1,
    METHOD_STEP2,
    C2Result,
    _candidates,
    _divisors,
    _euclid_within,
    _palindromic,
    _rungs,
    _rungs_of,
    _semi_even_pick,
    _type_a_distance,
    _type_b_reaches,
    c2,
    enumerate_type_ab,
)


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


def _normal_form(entries):
    """The u-exponents k0, .., km of U^a1 L^b1 .. U^an L^bn in <u> * <e>,
    spelled letter by letter: L^2 = e u and L^-2 = u^-1 e."""
    ks = [0]
    for a, b in zip(entries[::2], entries[1::2]):
        ks[-1] += a
        for _ in range(abs(b) // 2):
            if b > 0:
                ks.append(1)
            else:
                ks[-1] -= 1
                ks.append(0)
    return ks


def _letter_distance(entries):
    """The two-state program over every segment of the normal form: P if
    the e before the next segment came from L^2, M if from L^-2; the last
    segment is free."""
    ks = _normal_form(entries)
    P, M = abs(ks[0]), abs(ks[0] + 1)
    for k in ks[1:-1]:
        P, M = min(P + abs(k - 1), M + abs(k)), min(P + abs(k), M + abs(k + 1))
    return 2 * (len(ks) - 1) + min(P, M)


def _even_slopes(c_max):
    """(k, m, semi-even expansions of its even slopes) for each knot with
    crossing number up to c_max."""
    for c in range(3, c_max + 1):
        for k, _, slopes, _ in _families(c):
            m, _, evens = _semi_even_pick(k, slopes)
            yield k, m, evens


class TestTypeADistance:
    def test_distance_is_the_least_type_a_sum_to_14(self, type_a_slopes_to_14):
        least = {}
        for t, _, p, r in type_a_slopes_to_14:
            least.setdefault((p, r), t)
        for (p, r), t in least.items():
            assert _type_a_distance([_semi_even_entries(p, r)]) == t, (p, r)
        # A Type A sequence with crossing sum t evaluates to a knot with
        # c <= t, and a knot with c <= 14 has p <= F(15) = 610.  Every slope
        # there within distance 14 is reached.
        within = {
            (p, r)
            for p in range(3, 611, 2)
            for r in range(2, p, 2)
            if gcd(p, r) == 1 and _type_a_distance([_semi_even_entries(p, r)]) <= 14
        }
        assert within == set(least)

    def test_distance_is_m_to_16(self):
        n = 0
        for k, m, evens in _even_slopes(16):
            assert _type_a_distance(evens) == m, k
            n += 1
        assert n == 5_546

    def test_normal_form_is_reduced_to_16(self):
        # a1 >= 1 and b1 >= 2 make k0 = a1 >= 1, and no inner segment is 0.
        n = 0
        for _, _, evens in _even_slopes(16):
            for e in evens:
                ks = _normal_form(e)
                assert e[0] >= 1 and e[1] >= 2 and ks[0] == e[0], e
                assert all(ks[1:-1]), e
                n += 1
        assert n == 10_922  # 170 knots have one even slope

    def test_run_saturated_program_is_the_letter_one(self):
        # K(100003,16668) spells 1,668 e's on one slope, 1,666 of them from
        # its entry -3332, and 4 on the other.  The second knot's expansions
        # carry 10^12 once as a U exponent and once as an L one, which no
        # letter-by-letter program could spell.
        k = canonicalize(100003, 16668)
        evens = _semi_even_pick(k, _positive_family(k)[2])[2]
        assert sorted(map(len, map(_normal_form, evens))) == [5, 1_669]
        for e in evens:
            assert _type_a_distance([e]) == _letter_distance(e) == sum(map(abs, e))
        k = canonicalize(6_000_000_000_005, 3_000_000_000_004)
        evens = _semi_even_pick(k, _positive_family(k)[2])[2]
        assert sorted(evens) == [[1, 2, -1, -10**12, 1, 2], [1, 2, 10**12, 2]]
        assert _type_a_distance([[1, 2, 10**12, 2]]) == _letter_distance([1, 2, 10**12, 2])
        assert _type_a_distance(evens) == 10**12 + 5 == c2(k).value


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


def _first_row(w):
    """(K(w), K(w[:-1])), the first row of w's continuant matrix."""
    A, B = 1, 0
    for a in w:
        A, B = a * A + B, A
    return A, B


def _compositions(n):
    """Every tuple of positive entries summing to n; () for n = 0."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first, *rest)


class TestTypeBBound:
    def test_every_type_b_sequence_passes_its_own_bound(self):
        # Its value num/den with p = |num|: its own total t is not ruled
        # out for the class {den, -den} (mod p), with the divisors that a
        # solve with m = t + 1 finds.
        n = 0
        for t, _, num, den in _values(range(1, 18, 2), ExpansionClass.TYPE_B):
            p = abs(num)
            if p >= 2:
                divisors = _divisors(p, t + 1, sys.maxsize)
                assert _type_b_reaches(p, t, (den % p, -den % p), divisors), (t, num, den)
                n += 1
        assert n == 17_060

    def test_quotient_sum_bounds_the_crossing_sum(self):
        # Every signed w with crossing sum <= 10; positive w meet the bound.
        n = 0
        for size in range(11):
            for parts in _compositions(size):
                for signs in product((1, -1), repeat=len(parts)):
                    w = [s * a for s, a in zip(signs, parts)]
                    A, B = _first_row(w)
                    assert _euclid_within(abs(A), abs(B), size), w
                    if size and min(signs) > 0:
                        assert not _euclid_within(A, B, size - 1), w
                    n += 1
        assert n == 3**10

    def test_bound_skipped_past_the_limit(self):
        # F(6) = 8 trial divisions for p = 65 and m = 12; None rules out nothing.
        assert _divisors(65, 12, 8) == {1, 5, 13, 65}
        assert _divisors(65, 12, 7) is None
        assert _type_b_reaches(65, 11, (18, 47), None)
        assert not _type_b_reaches(65, 11, (18, 47), {1, 5, 13, 65})


def _seeded_draw(n=300):
    """n knots with p < 10^15: p = randrange(3, 10^15, 2) from
    random.Random(20), q drawn until coprime, then canonicalized."""
    rng, knots = random.Random(20), []
    for _ in range(n):
        p = rng.randrange(3, 10**15, 2)
        q = rng.randrange(1, p)
        while gcd(p, q) != 1:
            q = rng.randrange(1, p)
        knots.append(canonicalize(p, q))
    return knots


@pytest.fixture(scope="module")
def records():
    """The record of each knot with c <= 16 and of the seeded draw."""
    fams = [fam for c in range(3, 17) for fam in _families(c)]
    return fams + [_positive_family(k) for k in _seeded_draw()]


class TestStep1Scan:
    def test_no_variant_is_type_a(self, records):
        # [.., a - 1, 1] ends in an odd entry, at an even place if its
        # length is even.
        for _, _, _, family in records:
            variants = list(_candidates(family))[1::2]
            assert len(variants) == 4
            for v in variants:
                assert _shape(v) is not ExpansionClass.TYPE_A, v
        assert len(records) == 5_546 + 300

    def test_no_candidate_of_a_non_palindromic_knot_is_type_b(self, records):
        palindromic = 0
        for k, _, _, family in records:
            if _palindromic(k):
                palindromic += 1
                continue
            for cand in _candidates(family):
                assert _shape(cand) is not ExpansionClass.TYPE_B, (k, cand)
        # Some knots have Type B candidates, and none of the draw does.
        assert 0 < palindromic < 5_546
        assert not any(_palindromic(fam[0]) for fam in records[-300:])

    def test_variants_still_decide_palindromic_knots(self, records):
        # 36 knots with c <= 16 are decided by a variant, a Type B one.
        decided = 0
        for fam in records:
            hits = [x for x in _candidates(fam[3]) if _shape(x) is not ExpansionClass.NEITHER]
            if hits and hits[0] not in fam[3]:
                res = _rungs_of(fam)[0]
                assert (res.method, list(res.witness.entries)) == (METHOD_STEP1, hits[0])
                assert res.witness_class is ExpansionClass.TYPE_B
                decided += 1
        assert decided == 36


def _scan_rungs(fam):
    """The rungs with Step 1 as a scan of the candidates' shapes: the first
    Type A or Type B one of the four positive expansions, and of their
    variants for a knot with q^2 = +-1 (mod p).  solver._rungs_of's
    reference."""
    k, c, slopes, family = fam
    m, wit, evens = _semi_even_pick(k, slopes)
    for cand in _candidates(family) if _palindromic(k) else family:
        cls = _shape(cand)
        if cls is not ExpansionClass.NEITHER:
            return C2Result(c, ContinuedFraction(cand), cls, METHOD_STEP1, m, c), evens
    method = METHOD_STEP2 if m == c + 1 else METHOD_EXHAUSTED
    return C2Result(m, wit, ExpansionClass.TYPE_A, method, m, c), evens


def _fibonacci_knots(n_max=40):
    """K(F(n), F(n - 1)) for 4 <= n <= n_max with F(n) odd."""
    f = [0, 1]
    while len(f) <= n_max:
        f.append(f[-1] + f[-2])
    return [canonicalize(f[n], f[n - 1]) for n in range(4, n_max + 1) if f[n] % 2]


# The knots of the README's c2 examples.
_README_KNOTS = [
    (13, 5),
    (13, 4),
    (15, 4),
    (100003, 40000),
    (314573286388203, 189071533637990),
    (791256216780409, 209614989723732),
    (12545, 3362),
    (53316291173, 20365011074),
]


class TestStep1TypeAIsMEqualsC:
    def test_m_is_c_exactly_when_a_family_expansion_is_type_a(self, records):
        type_a = two = 0
        for k, c, slopes, family in records:
            hits = {r for r, e in zip(slopes, family) if _shape(e) is ExpansionClass.TYPE_A}
            assert (_semi_even_pick(k, slopes)[0] == c) == bool(hits), k
            type_a += bool(hits)
            two += len(hits) == 2
        # Both even slopes are Type A for 56 knots with c <= 16, where the
        # pick's tie rule must find the scan's witness.
        assert (type_a, two) == (930, 56)

    def test_rungs_equal_the_scan(self, records):
        extra = _fibonacci_knots() + [canonicalize(p, q) for p, q in _README_KNOTS]
        fams = records + [_positive_family(k) for k in extra]
        for fam in fams:
            assert _rungs_of(fam) == _scan_rungs(fam), fam[0]
        step1 = [res for fam in fams if (res := _rungs_of(fam)[0]).method == METHOD_STEP1]
        assert {res.witness_class for res in step1} == {
            ExpansionClass.TYPE_A,
            ExpansionClass.TYPE_B,
        }
        assert len(extra) == 25 + 8


def _sorted_pick(k, slopes):
    """The semi-even pick as a sort over the set of even slopes, ties on
    crossing sum going to the smaller slope: solver._semi_even_pick's
    reference."""
    picks = sorted(
        (sum(abs(a) for a in e), d, e)
        for d in {r for r in slopes if r % 2 == 0}
        for e in [_semi_even_entries(k.p, d)]
    )
    s, _, entries = picks[0]
    return s, tuple(entries), [e for *_, e in picks]


def _min_distance(expansions):
    """solver._type_a_distance's two-state program with a min() and an
    abs() call per step: its reference."""
    least = []
    for entries in expansions:
        P, M, after = 1, 0, False
        it = iter(entries)
        for a, b in zip(it, it):
            k = after + a - (b < 0)
            if not k:
                return 0
            P, M = min(P + abs(k - 1), M + abs(k)), min(P + abs(k), M + abs(k + 1))
            if b > 2:
                P, M = min(P, M + 1), min(P + 1, M + 2)
            elif b < -2:
                P, M = min(P + 2, M + 1), min(P + 1, M)
            after = b > 0
        least.append(sum(map(abs, entries[1::2])) + min(P, M))
    return min(least)


class TestRungsEqualTheirReferences:
    @pytest.fixture(scope="class")
    def knots(self, records):
        large = [canonicalize(100003, 16668), canonicalize(6_000_000_000_005, 3_000_000_000_004)]
        return [fam[:3] for fam in records + [_positive_family(k) for k in large]]

    def test_pick(self, knots):
        # Both slope orders: a record's, and slope_family's from k's q.
        ties = 0
        for k, _, slopes in knots:
            want = _sorted_pick(k, slopes)
            for order in (slopes, _slopes(k.p, k.q)):
                m, wit, evens = _semi_even_pick(k, order)
                assert (m, wit.entries, evens) == want, k
            ties += len(evens) == 2 and len({sum(map(abs, e)) for e in evens}) == 1
        assert ties > 0  # some knots need the tie rule

    def test_distance(self, knots):
        for k, _, slopes in knots:
            evens = _semi_even_pick(k, slopes)[2]
            assert _type_a_distance(evens) == _min_distance(evens), k
            for e in evens:
                assert _type_a_distance([e]) == _min_distance([e]), e
        # A 0 segment reads 0 in both.
        assert _type_a_distance([[1, -2, 1, 2]]) == _min_distance([[1, -2, 1, 2]]) == 0
