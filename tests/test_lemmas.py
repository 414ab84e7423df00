"""Evidence for c2 in {c, m}: two lemmas, checked by enumeration.

Lemma A: for p odd and r even, no Type A sequence whose value has numerator
+-p and denominator +-r (mod p) has a smaller crossing sum than the
semi-even expansion of p/r.  A Type A value always has an even denominator
(mod 2 each pair of continuant matrices multiplies to [[1, a], [0, 1]]), so
r is den mod p, or p minus it when that is odd.  Its proof is in
``solver``'s docstring; its finite cases are checked here: each free entry
of the semi-even expansion has the sign of the constrained entry after it,
and each segment of its normal form in Gamma_0(2) is nonzero with the sign
of its L-power.  The reference :func:`_type_a_distance`, the two-state
program over that normal form that the solve ran before the proof, is the
least Type A crossing sum into the slope by enumeration up to 14, and it
equals each slope's semi-even crossing sum, so m, on every even slope with
c <= 16 and on seeded draws.  Its three facts are checked here too: the
expansion's first entries keep the normal form's first segment positive,
no inner segment is 0, and one update stands for a run of equal segments.

Lemma B: if a Type B sequence evaluates into a knot's class, one of the
knot's eight positive sequences is Type B, so Step1 decides the knot at c.
Its proof is in ``solver``'s docstring; its finite cases are checked here:
the move at a sign change is the identity up to a diagonal sign, every
base w [z] rev(w) with w positive, cs(w) <= 8 and |z| <= 11 lands on a
Type B positive sequence of its knot, and every Type B sequence with
crossing sum <= 17 reduces to a base of its knot.  So a knot's least Type
B crossing sum is c, where there is one.  The form that no Type B sequence
has a crossing sum strictly between c and m is false.

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

The semi-even expansions behind m are read off the positive expansions by
the carry rule of ``contfrac._semi_even_of``, with no division.  It equals
the nearest-even Euclid that it replaced, kept here as its reference, and
its crossing sum is c plus its carries, on every even slope of every knot
with c <= 16 and on a seeded draw of slopes of both numerator parities.
Its carries depend only on the parities of the entries: the parity table
``_PARITY_STEP`` gives the same carries on the same slopes.  Each parity
permutes the table's three states, and the state after a word is the
bottom row of the word's continuant matrix mod 2, so the states are the
three cosets of Gamma_0(2) in SL_2(Z) (the points of P^1(F_2)), and no two
of them are equivalent.  The census counts its rows on the matrix mod 2
alone (``table._states``): a run from X is at the sum of the matrix's rows
(p, r) + (q, s), and a backward run that ends at F is at (r, p).

Lemma C: a palindromic composition b = h + [centre] + reversed(h) of c that
names a knot has c2 - c = 0 when its length and centre are odd (a Type B
root) and its carries X otherwise, with X = Y.  Its proof is in ``table``'s
docstring, with the corollary that the first case is exactly odd c; both
are checked against the solve on every palindromic knot with c <= 24.
"""

import random
from itertools import product
from math import gcd

import pytest

from test_knot import _palindromes
from twobridge.contfrac import (
    ContinuedFraction,
    ExpansionClass,
    _eval_entries,
    _positive_entries,
    _semi_even_of,
    _shape,
    classify_type,
    crossing_sum,
)
from twobridge.knot import (
    TwoBridgeKnot,
    _families,
    _family_of,
    _knot_key,
    _positive_family,
    canonicalize,
)
from twobridge.oracle import _type_b_halves, enumerate_type_ab
from twobridge.solver import (
    METHOD_EXHAUSTED,
    METHOD_STEP1,
    METHOD_STEP2,
    C2Result,
    _candidates,
    _palindromic,
    _semi_even_pick,
    _solve,
    _type_b_root,
    c2,
)
from twobridge.table import _states


def _nearest_even_entries(p, q):
    """The semi-even expansion of p/q by Euclid: the even integer within
    distance 1 where the numerator is even, else truncation toward zero.
    contfrac._semi_even_of's reference."""
    out = []
    while q != 1:
        if p % 2 == 0:
            a = 2 * ((p + q) // (2 * q))
        else:
            a = -(-p // q) if p < 0 else p // q
        out.append(a)
        p, q = q, p - a * q
        if q < 0:
            p, q = -p, -q
    out.append(p)
    return out


def _semi_even_sum(p, r):
    return sum(map(abs, _nearest_even_entries(p, r)))


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


def _type_a_distance(expansions):
    """The least crossing sum of a Type A sequence into the class of one of
    the slopes whose semi-even expansions are given, or 0 where a segment of
    the normal form is 0, which by Lemma A no semi-even expansion has.

    With L^2 = e u and L^-2 = u^-1 e an expansion [a1, b1, .., an, bn]
    spells the normal form u^k0 e u^k1 .. e u^km of its matrix, with
    m = sum |b_i| / 2.  A shortest word cancels no e, so each e comes from
    one L^+-2, which adds 1 to the segment after it or -1 to the one
    before.  Two states carry the least cost of the segments so far: P if
    the last e came from L^2, M if from L^-2.  Starting at P, M = 1, 0, k0
    makes them |k0|, |k0 + 1|; the last segment is free (the right coset),
    so the distance is 2m + min(P, M).  Every step adds |k| to both states,
    so the program keeps them less that running cost.  The semi-even
    expansion has a1 >= 1 and b1 >= 2, so no power of L^2 on the left
    helps, and an entry b = 2j gives |j| e's whose inner segments all equal
    sign(j), on which the update is idempotent, so it runs once per entry.
    """
    least = None
    for entries in expansions:
        # P and M less cost, which both pay: |k| per segment and |b| per
        # entry.  after: the u that the last L^2 left over.
        P, M, cost, after = 1, 0, 0, False
        it = iter(entries)
        for a, b in zip(it, it):
            k = after + a - (b < 0)  # the segment that U^a and its neighbours make
            if k > 0:  # |k - 1| = |k| - 1 and |k + 1| = |k| + 1
                x, y = P - 1, M + 1
                P, M, cost = x if x < M else M, P if P < y else y, cost + k
            elif k:  # |k - 1| = |k| + 1 and |k + 1| = |k| - 1
                x, y = P + 1, M - 1
                P, M, cost = x if x < M else M, P if P < y else y, cost - k
            else:
                return 0
            if b > 2:  # the update at k = 1 stands for the run of u segments
                x = M + 1
                P = P if P < x else x
                M = P + 1
            elif b < -2:  # and at k = -1 for the run of u^-1 segments
                x = P + 1
                M = M if M < x else x
                P = M + 1
            cost += b if b > 0 else -b
            after = b > 0
        d = cost + (P if P < M else M)
        if least is None or d < least:
            least = d
    return least


def _evens(fam):
    """The semi-even expansions of the (one or two) even slopes of a knot's
    record, read by the carry rule, the pick's witness first."""
    _, _, slopes, family = fam
    j = 2 if slopes[2] % 2 == 0 else 3
    evens = [_semi_even_of(family[0])[0]]
    if slopes[j] != slopes[0]:
        evens.append(_semi_even_of(family[j])[0])
    wit = list(_semi_even_pick(fam)[1].entries)
    return sorted(evens, key=lambda e: e != wit)


def _even_slopes(c_max):
    """(k, m, semi-even expansions of its even slopes) for each knot with
    crossing number up to c_max."""
    for c in range(3, c_max + 1):
        for fam in _families(c):
            yield fam[0], _semi_even_pick(fam)[0], _evens(fam)


class TestTypeADistance:
    def test_distance_is_the_least_type_a_sum_to_14(self, type_a_slopes_to_14):
        least = {}
        for t, _, p, r in type_a_slopes_to_14:
            least.setdefault((p, r), t)
        for (p, r), t in least.items():
            assert _type_a_distance([_nearest_even_entries(p, r)]) == t, (p, r)
        # A Type A sequence with crossing sum t evaluates to a knot with
        # c <= t, and a knot with c <= 14 has p <= F(15) = 610.  Every slope
        # there within distance 14 is reached.
        within = {
            (p, r)
            for p in range(3, 611, 2)
            for r in range(2, p, 2)
            if gcd(p, r) == 1 and _type_a_distance([_nearest_even_entries(p, r)]) <= 14
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
        evens = _evens(_positive_family(k))
        assert sorted(map(len, map(_normal_form, evens))) == [5, 1_669]
        for e in evens:
            assert _type_a_distance([e]) == _letter_distance(e) == sum(map(abs, e))
        k = canonicalize(6_000_000_000_005, 3_000_000_000_004)
        evens = _evens(_positive_family(k))
        assert sorted(evens) == [[1, 2, -1, -10**12, 1, 2], [1, 2, 10**12, 2]]
        assert _type_a_distance([[1, 2, 10**12, 2]]) == _letter_distance([1, 2, 10**12, 2])
        assert _type_a_distance(evens) == 10**12 + 5 == c2(k).value


def _segments(entries):
    """(k, b) for each pair (a, b) of a Type A sequence: k = [b' > 0] + a -
    [b < 0], b' the entry before a, the segment of the normal form around
    U^a in the proof of Lemma A."""
    out, after = [], False
    it = iter(entries)
    for a, b in zip(it, it):
        out.append((after + a - (b < 0), b))
        after = b > 0
    return out


def _spelled(entries):
    """:func:`_normal_form` as the proof of Lemma A reads it: the segment
    around each U^a, the |j| - 1 inner segments sign(j) of each L^2j, and
    the free last segment [b_n > 0]."""
    ks = []
    for k, b in _segments(entries):
        ks += [k] + [1 if b > 0 else -1] * (abs(b) // 2 - 1)
    return ks + [int(entries[-1] > 0)]


def _odd_even_slopes(n=2_000):
    """n slopes p/r with p odd below 10^30 and r even, coprime:
    p = randrange(3, 10^randrange(2, 31), 2) and r = randrange(2, p, 2) from
    random.Random(29), skipping gcd > 1."""
    rng, slopes = random.Random(29), []
    while len(slopes) < n:
        p = rng.randrange(3, 10 ** rng.randrange(2, 31), 2)
        r = rng.randrange(2, p, 2)
        if gcd(p, r) == 1:
            slopes.append((p, r))
    return slopes


class TestLemmaAProof:
    """The finite cases of the proof of Lemma A in solver's docstring, on
    the semi-even expansion of every even slope of the records (c <= 16 and
    the draw below 10^15) and of 2,000 seeded slopes below 10^30."""

    @pytest.fixture(scope="class")
    def expansions(self, records):
        small = [e for fam in records[:-300] for e in _evens(fam)]
        large = [e for fam in records[-300:] for e in _evens(fam)]
        large += [_semi_even_of(_positive_entries(p, r))[0] for p, r in _odd_even_slopes()]
        assert (len(small), len(large)) == (10_922, 2_600)
        return small, large

    def test_the_group_and_the_cancelling_subwords(self):
        # e = L^2 U^-1 has e^2 = -I, L^2 = e u and L^-2 = -u^-1 e.  An inner
        # segment 0 is one of four subwords, each 4 crossings longer than
        # the +-U, +-U^-1 or I that it equals (step 1).
        def mul(*ms):
            (a, b), (c, d) = ((1, 0), (0, 1))
            for (x, y), (z, w) in ms:
                a, b, c, d = a * x + b * z, a * y + b * w, c * x + d * z, c * y + d * w
            return (a, b), (c, d)

        def neg(m):
            return tuple(tuple(-x for x in row) for row in m)

        I, U, Ui = ((1, 0), (0, 1)), ((1, 1), (0, 1)), ((1, -1), (0, 1))
        L2, L2i = ((1, 0), (2, 1)), ((1, 0), (-2, 1))
        e = mul(L2, Ui)
        assert e == ((1, -1), (2, -1)) and mul(e, e) == neg(I)
        assert mul(e, U) == L2 and mul(Ui, e) == neg(L2i)
        assert mul(L2, Ui, L2) == neg(U) and mul(L2i, U, L2i) == neg(Ui)
        assert mul(L2, L2i) == mul(L2i, L2) == I

    def test_each_free_entry_has_the_sign_of_the_next_constrained_one(self, expansions):
        small, large = expansions
        for e in small + large:
            assert len(e) % 2 == 0 and e[0] >= 1 and e[1] >= 2, e
            for a, b in zip(e[::2], e[1::2]):
                assert a * b > 0 and b % 2 == 0, e
        assert any(min(e) < 0 for e in small) and any(min(e) < 0 for e in large)

    def test_every_segment_is_nonzero_with_the_sign_of_its_b(self, expansions):
        small, large = expansions
        for e in small + large:
            for k, b in _segments(e):
                assert k * b > 0, e
        # The segments are those of the letter-by-letter normal form.
        for e in small:
            assert _spelled(e) == _normal_form(e), e

    def test_each_slopes_least_type_a_sum_is_its_expansions(self, expansions):
        small, large = expansions
        for e in small + large:
            assert _type_a_distance([e]) == sum(map(abs, e)), e


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
            res = c2(TwoBridgeKnot(*key))
            assert (t, res.method) == (res.base_crossing, METHOD_STEP1), key
            below += t < res.semi_even_bound
        # The other 7 are K(p, p - 1), p = 3 .. 15, with c = m = p.
        assert (len(least), below) == (85, 78)


def _compositions(n):
    """Every tuple of positive entries summing to n; () for n = 0."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first, *rest)


def _matrix(entries):
    """The continuant matrix M(entries), the product of the [[a, 1], [1, 0]],
    as (m00, m01, m10, m11)."""
    a, b, c, d = 1, 0, 0, 1
    for x in entries:
        a, b, c, d = a * x + b, a, c * x + d, c
    return a, b, c, d


def _negated(w):
    return [-a for a in w]


def _merged(w, z):
    """w [z] rev(w) with its zeros merged on both sides at once, as the
    (half, centre) of a palindrome with the same knot, or None for value 0."""
    while 0 in w:
        i = w.index(0)
        if i == 0:  # [0, x, rest, x, 0] names the knot of [rest]
            if len(w) == 1:
                return None  # [0, z, 0] = 0
            w = w[2:]
        elif i == len(w) - 1:  # [.., y, 0, z, 0, y, ..] = [.., 2y + z, ..]
            w, z = w[:-2], z + 2 * w[-2]
        else:  # [x, 0, y] = [x + y]
            w = w[: i - 1] + [w[i - 1] + w[i + 1]] + w[i + 2 :]
    return w, z


def _base(w, z):
    """Step 1 of Lemma B: the base (w, z), w positive or empty, of the knot
    of w [z] rev(w), or None for value 0.  The move at w's first sign
    change negates the centre (det D = -1)."""
    while True:
        if (merged := _merged(w, z)) is None:
            return None
        w, z = merged
        if w and w[0] < 0:
            w, z = _negated(w), -z
        i = next((i for i in range(len(w) - 1) if w[i] > 0 > w[i + 1]), None)
        if i is None:
            return w, z
        w, z = w[:i] + [w[i] - 1, 1, -w[i + 1] - 1] + _negated(w[i + 2 :]), -z


def _positive_of_base(w, z):
    """Step 2 of Lemma B: the (half, centre) of the positive palindrome of
    the knot of the base w [z] rev(w), or None for [1, -1, 1] = 1/0 and
    [0, 1, 0] = 0."""
    if z > 0 or not w:
        return w, abs(z)
    u, a, z = w[:-1], w[-1], -z
    if z >= 3:
        return _merged(u + [a - 1, 1], z - 2)
    if a >= 2:
        return _merged(u + [a - 2], 1)
    # a = z' = 1: [u, 1, -1, 1, rev(u)] = [u, -rev(u)]
    return _merged(u[:-1] + [u[-1] - 1], 1) if u else None


def _palindrome(half, centre):
    return [*half, centre, *half[::-1]]


def _type_b_sequences(t_max):
    """(t, w, z) for each Type B sequence w [z] rev(w) with odd crossing
    sum t <= t_max."""
    for t in range(1, t_max + 1, 2):
        for half in _type_b_halves(t):
            for signs in product((1, -1), repeat=len(half)):
                *w, z = (s * a for s, a in zip(signs, half))
                yield t, w, z


class TestLemmaBProof:
    """The finite cases of the proof of Lemma B in solver's docstring."""

    def test_the_move_is_the_identity_up_to_a_diagonal_sign(self):
        # M(u [a, -b] v) = M(u [a - 1, 1, b - 1] (-v)) D with det D = -1, so
        # in a palindrome the centre changes sign; [x, 0, y] = [x + y].
        rng = random.Random(27)

        def signed(n):
            return [rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(n)]

        for _ in range(5_000):
            u, v = signed(rng.randint(0, 4)), signed(rng.randint(0, 4))
            z = 2 * rng.randint(-6, 6) + 1
            a, b = rng.randint(1, 6), rng.randint(1, 6)
            w, moved = u + [a, -b] + v, u + [a - 1, 1, b - 1] + _negated(v)
            m, (n00, n01, n10, n11) = _matrix(w), _matrix(moved)
            ds = [(d1, d2) for d1, d2 in product((1, -1), repeat=2)
                  if m == (d1 * n00, d2 * n01, d1 * n10, d2 * n11)]
            assert ds in ([(1, -1)], [(-1, 1)]), (w, moved)
            x, y = _matrix(_palindrome(w, z)), _matrix(_palindrome(moved, -z))
            assert x in (y, tuple(map(int.__neg__, y))), (w, z)
            assert _matrix(u + [a, 0, -b] + v) == _matrix(u + [a - b] + v)

    def test_every_base_lands_on_a_type_b_root(self):
        # w positive with cs(w) <= 8 and odd |z| <= 11: each knot-valued
        # base is carried to one of its knot's eight positive sequences, a
        # Type B one, 0, 2 or 4 crossings below it.
        drops = {}
        for size in range(9):
            for w in map(list, _compositions(size)):
                for z in range(-11, 12, 2):
                    base = _palindrome(w, z)
                    key = _knot_key(*_eval_entries(base))
                    got = _positive_of_base(w, z)
                    if key is None:
                        assert got is None or _knot_key(*_eval_entries(_palindrome(*got))) is None
                        continue
                    x = _palindrome(*got)
                    assert min(x) > 0 and _shape(x) is ExpansionClass.TYPE_B, (w, z)
                    assert _knot_key(*_eval_entries(x)) == key, (w, z)
                    fam = _positive_family(TwoBridgeKnot(*key))
                    assert x in list(_candidates(fam[3])) and _type_b_root(fam), (w, z)
                    assert sum(x) == fam[1], (w, z)
                    drop = sum(map(abs, base)) - fam[1]
                    drops[drop] = drops.get(drop, 0) + 1
        assert drops == {0: 1_024, 2: 840, 4: 172}

    def test_every_type_b_sequence_reaches_a_type_b_root(self):
        # Odd crossing sums to 17: step 1 carries each sequence to a base of
        # its knot, and step 2 the base to one of the knot's eight positive
        # sequences, which Step 1 of the solve finds.
        fams, n = {}, 0
        for t, w, z in _type_b_sequences(17):
            n += 1
            key = _knot_key(*_eval_entries(_palindrome(w, z)))
            if key is None:
                continue
            bw, bz = _base(w, z)
            assert min(bw, default=1) > 0 and bz % 2, (w, z)
            assert _knot_key(*_eval_entries(_palindrome(bw, bz))) == key, (w, z)
            assert 2 * sum(bw) + abs(bz) <= t
            x = _palindrome(*_positive_of_base(bw, bz))
            if key not in fams:
                fams[key] = _positive_family(TwoBridgeKnot(*key))
            assert x in list(_candidates(fams[key][3])), (w, z)
        assert n == 19_682
        for fam in fams.values():
            res = _solve(fam)
            assert _type_b_root(fam) and (res.value, res.method) == (fam[1], METHOD_STEP1)
        assert len(fams) == 170


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
                res = _solve(fam)
                assert (res.method, list(res.witness.entries)) == (METHOD_STEP1, hits[0])
                assert res.witness_class is ExpansionClass.TYPE_B
                decided += 1
        assert decided == 36


def _scan_rungs(fam):
    """The rungs with Step 1 as a scan of the candidates' shapes: the first
    Type A or Type B one of the four positive expansions, and of their
    variants for a knot with q^2 = +-1 (mod p).  solver._solve's
    reference."""
    k, c, slopes, family = fam
    m, wit = _semi_even_pick(fam)
    for cand in _candidates(family) if _palindromic(k) else family:
        cls = _shape(cand)
        if cls is not ExpansionClass.NEITHER:
            return C2Result(c, ContinuedFraction(cand), cls, METHOD_STEP1, m, c)
    method = METHOD_STEP2 if m == c + 1 else METHOD_EXHAUSTED
    return C2Result(m, wit, ExpansionClass.TYPE_A, method, m, c)


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
        for fam in records:
            k, c, slopes, family = fam
            hits = {r for r, e in zip(slopes, family) if _shape(e) is ExpansionClass.TYPE_A}
            assert (_semi_even_pick(fam)[0] == c) == bool(hits), k
            type_a += bool(hits)
            two += len(hits) == 2
        # Both even slopes are Type A for 56 knots with c <= 16, where the
        # pick's tie rule must find the scan's witness.
        assert (type_a, two) == (930, 56)

    def test_rungs_equal_the_scan(self, records):
        extra = _fibonacci_knots() + [canonicalize(p, q) for p, q in _README_KNOTS]
        fams = records + [_positive_family(k) for k in extra]
        for fam in fams:
            assert _solve(fam) == _scan_rungs(fam), fam[0]
        step1 = [res for fam in fams if (res := _solve(fam)).method == METHOD_STEP1]
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
        for e in [_nearest_even_entries(k.p, d)]
    )
    s, _, entries = picks[0]
    return s, tuple(entries), [e for *_, e in picks]


def _min_distance(expansions):
    """:func:`_type_a_distance`'s two-state program with a min() and an
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
        return records + [_positive_family(k) for k in large]

    def test_pick(self, knots):
        ties = 0
        for fam in knots:
            k, _, slopes, _ = fam
            m, wit = _semi_even_pick(fam)
            evens = _evens(fam)
            assert (m, wit.entries, evens) == _sorted_pick(k, slopes), k
            ties += len(evens) == 2 and len({sum(map(abs, e)) for e in evens}) == 1
        assert ties > 0  # some knots need the tie rule

    def test_distance(self, knots):
        for fam in knots:
            k = fam[0]
            evens = _evens(fam)
            assert _type_a_distance(evens) == _min_distance(evens), k
            for e in evens:
                assert _type_a_distance([e]) == _min_distance([e]), e
        # A 0 segment reads 0 in both.
        assert _type_a_distance([[1, -2, 1, 2]]) == _min_distance([[1, -2, 1, 2]]) == 0


def _seeded_slopes(n=2_000):
    """n slopes p/q with p < 10^30 and one of p, q even, both numerator
    parities: p = randrange(3, 10^randrange(2, 31)) and q = randrange(1, p)
    from random.Random(28), skipping gcd > 1 and odd/odd pairs."""
    rng, slopes = random.Random(28), []
    while len(slopes) < n:
        p = rng.randrange(3, 10 ** rng.randrange(2, 31))
        q = rng.randrange(1, p)
        if gcd(p, q) == 1 and (p - q) % 2:
            slopes.append((p, q))
    return slopes


class TestCarryRule:
    def _check(self, b, p, q):
        entries, carries = _semi_even_of(b, p % 2 == 1)
        assert entries == _nearest_even_entries(p, q), (p, q)
        assert sum(map(abs, entries)) == sum(b) + carries, (p, q)
        return carries

    def test_every_even_slope_to_16(self, records):
        n = carried = 0
        for k, _, slopes, family in records[:-300]:
            for j in (0, 2 if slopes[2] % 2 == 0 else 3):
                carried += self._check(family[j], k.p, slopes[j]) > 0
                n += 1
        assert n == 11_092
        assert 0 < carried < n

    def test_seeded_slopes_of_both_parities(self):
        slopes = _seeded_slopes()
        for p, q in slopes:
            self._check(_positive_entries(p, q), p, q)
        even = sum(p % 2 == 0 for p, _ in slopes)
        assert 0 < even < len(slopes)


# The carry rule of :func:`_semi_even_of` on parities alone, the parity
# table: _PARITY_STEP[s][a % 2] is the state after an entry a read in state
# s, where 0 (F) is a free slot, 1 (C) a constrained one and 2 (X) a
# constrained slot that reads x - 1 after a carry.  A run starts at F for an
# odd numerator, and an entry carries exactly when it leads into X.  Each
# parity permutes the states, so a run can be read backwards too.
_PARITY_STEP = ((1, 1), (0, 2), (2, 0))


def _table_carries(b, state=0):
    """The carries of b by the parity table, from F (0), C (1) or X (2)."""
    carries = 0
    for a in b:
        state = _PARITY_STEP[state][a % 2]
        carries += state == 2
    return carries


class TestParityTable:
    def test_every_even_slope_to_16(self, records):
        n = 0
        for k, _, slopes, family in records[:-300]:
            for j in (0, 2 if slopes[2] % 2 == 0 else 3):
                assert _table_carries(family[j]) == _semi_even_of(family[j])[1], k
                n += 1
        assert n == 11_092

    def test_seeded_slopes_of_both_parities(self):
        for p, q in _seeded_slopes():
            b = _positive_entries(p, q)
            assert _table_carries(b, 1 - p % 2) == _semi_even_of(b, p % 2 == 1)[1], (p, q)

    def test_each_parity_permutes_the_states(self):
        for a in (0, 1):
            assert sorted(row[a] for row in _PARITY_STEP) == [0, 1, 2]

    def test_the_states_are_the_cosets_of_gamma0_2(self):
        # F, C, X are the bottom rows (0, 1), (1, 0), (1, 1) of the word's
        # continuant matrix [[p, r], [q, s]] mod 2, so right cosets of
        # Gamma_0(2), which fixes a bottom row mod 2 up to its odd corner
        # entry.  The census reads its other runs off that matrix too: the
        # run from X is at (p + q, r + s), and the backward run (the word
        # read from its last entry) that ends at F starts at (r, p).
        rows = {(0, 1): 0, (1, 0): 1, (1, 1): 2}
        n = 0
        for length in range(13):
            for word in product((0, 1), repeat=length):
                f, x, y, (p, r, q, s) = 0, 2, 0, (1, 0, 0, 1)
                for a in word:
                    f, x = _PARITY_STEP[f][a], _PARITY_STEP[x][a]
                    y = [t[a] for t in _PARITY_STEP].index(y)  # the state from which a leads to y
                    p, r, q, s = (p * a + r) % 2, p, (q * a + s) % 2, q
                assert (f, x, y) == (rows[q, s], rows[p ^ q, r ^ s], rows[r, p]), word
                n += 1
        assert n == 2**13 - 1
        # No two states are equivalent: one entry of some parity gives them
        # different carries, so the automaton is minimal.
        for s, t in ((0, 1), (0, 2), (1, 2)):
            assert any((_PARITY_STEP[s][a] == 2) != (_PARITY_STEP[t][a] == 2) for a in (0, 1))

    def test_the_census_steps_carry_as_the_table(self):
        # table._states' steps, walked over a word from the seed (I, gq),
        # give the carries of the run from F or X and of the backward run
        # that ends at F.
        _, steps = _states()
        for length in range(11):
            for word in product((0, 1), repeat=length):
                y = 0
                for a in word:
                    y = [t[a] for t in _PARITY_STEP].index(y)
                for gq in (0, 1):
                    i, dx, dy = gq, 0, 0
                    for a in word:
                        i, x1, y1 = steps[a][i]
                        dx, dy = dx + x1, dy + y1
                    want = _table_carries(word, 2 * gq), _table_carries(word[::-1], y)
                    assert (dx, dy) == want, (word, gq)


class TestLemmaC:
    def test_every_palindromic_knot_to_24(self):
        n = type_b = 0
        for c in range(3, 25):
            for b in _palindromes(c):
                if not (fam := _family_of(b)):
                    continue
                k, _, slopes, family = fam
                x, y = (_semi_even_of(family[j])[1] for j in (slopes[0] % 2, 2 + slopes[2] % 2))
                odd = len(b) % 2 == 1 and b[len(b) // 2] % 2 == 1
                res = _solve(fam)
                assert x == y, b
                assert res.value - c == (0 if odd else x), b
                assert (_type_b_root(fam) is not None) == odd == (c % 2 == 1), b
                n += 1
                type_b += odd
        assert (n, type_b) == (2_730, 1_365)
