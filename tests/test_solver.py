import hashlib
import random
import time
import tracemalloc
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings

from test_knot import knots
from twobridge.contfrac import (
    ContinuedFraction,
    ExpansionClass,
    _eval_entries,
    _shape,
    classify_type,
    crossing_sum,
    eval_cf,
)
from twobridge.knot import (
    TwoBridgeKnot,
    _knot_key,
    _positive_family,
    _slopes,
    canonicalize,
    crossing_number,
    enumerate_knots,
    fraction_to_knot,
)
from twobridge.oracle import (
    _residue_lookup,
    _sign_steps,
    _sweep,
    _type_a_magnitudes,
    _type_b_halves,
    enumerate_type_ab,
    global_c2_map,
)
from twobridge.search import _order_key, _pairs, _preimages, SearchBudgetExceeded, search_at
from twobridge.solver import (
    _candidates,
    _semi_even_pick,
    METHOD_EXHAUSTED,
    METHOD_STEP1,
    METHOD_STEP2,
    C2Result,
    c2,
    solve_many,
    step1_check,
    step2_bound,
)

# Brute-force oracle: every signed sequence with |a| summing to t, filtered
# by classify_type.  Independent of the solver's shape-directed generators.


def compositions(rem):
    if rem == 0:
        yield ()
        return
    for a in range(1, rem + 1):
        for rest in compositions(rem - a):
            yield (a,) + rest


def brute_sequences(t):
    out = set()
    for mags in compositions(t):
        for signs in product((1, -1), repeat=len(mags)):
            e = tuple(m * s for m, s in zip(mags, signs))
            if classify_type(ContinuedFraction(e)) is not ExpansionClass.NEITHER:
                out.add(e)
    return out


# Counts of admissible sequences per crossing sum, frozen from the
# brute-force enumeration (even sums lack the palindromic class entirely).
SEQUENCE_COUNTS = {1: 2, 2: 0, 3: 10, 4: 4, 5: 26, 6: 24, 7: 98, 8: 92, 9: 370, 10: 432}


class TestEnumerator:
    @pytest.mark.parametrize("t", range(1, 9))
    def test_matches_brute_force(self, t):
        got = [cf.entries for cf in enumerate_type_ab(t)]
        assert len(got) == len(set(got)), "enumerator produced duplicates"
        assert set(got) == brute_sequences(t)

    @pytest.mark.parametrize("t,n", sorted(SEQUENCE_COUNTS.items()))
    def test_counts(self, t, n):
        assert sum(1 for _ in enumerate_type_ab(t)) == n

    def test_deterministic_order(self):
        a = [cf.entries for cf in enumerate_type_ab(7)]
        b = [cf.entries for cf in enumerate_type_ab(7)]
        assert a == b

    def test_order_prefix(self):
        # Shape class A first, then B; short before long; signs flip from
        # the right with positive first.
        first = [list(cf.entries) for cf in enumerate_type_ab(3)]
        assert first[:8] == [
            [1, 2],
            [1, -2],
            [-1, 2],
            [-1, -2],
            [3],
            [-3],
            [1, 1, 1],
            [1, -1, 1],
        ]

    @pytest.mark.parametrize("t", range(1, 10))
    def test_yields_are_valid(self, t):
        for cf in enumerate_type_ab(t):
            assert crossing_sum(cf) == t
            assert classify_type(cf) is not ExpansionClass.NEITHER

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            next(enumerate_type_ab(0))

    @pytest.mark.parametrize(
        "patterns,total,length,first",
        [
            (_type_a_magnitudes, 200, 4, (1, 2, 1, 196)),
            (_type_b_halves, 201, 4, (1, 1, 1, 195)),
        ],
    )
    def test_patterns_stream(self, patterns, total, length, first):
        # The first pattern of a length must come without that whole length
        # being built first: at a large total that is ~10^5 tuples and more.
        tracemalloc.start()
        try:
            got = next(mag for mag in patterns(total) if len(mag) == length)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == first
        assert peak < 64 * 1024


class _EveryResidue(dict):
    """The row of _EveryValue at p: every probe r hits the one residue r, so
    _take names the key (p, r), and it never runs empty."""

    def __contains__(self, r):
        return True

    def __getitem__(self, r):
        return (r,)

    def __len__(self):
        return 1


class _EveryValue(dict):
    """A lookup with a row at every |num| > 1 that every sequence hits under
    its own probe, (|num|, r), and that never runs empty: _sweep then yields
    its whole stream."""

    def __contains__(self, p):
        return p > 1

    def __getitem__(self, p):
        return _EveryResidue()

    def __len__(self):
        return 1


class _Drained(dict):
    """A lookup that fails any probe made once it has run empty."""

    def __contains__(self, p):
        assert self, "probed an empty lookup"
        return dict.__contains__(self, p)


def _lookup(keys):
    """The sweep's lookup of the knots with these keys, from the slope
    residues that their records hold, canonical q first."""
    return _residue_lookup(_slopes(p, q) for p, q in keys)


@pytest.fixture(scope="module")
def keys_le_14():
    return [(k.p, k.q) for c in range(3, 15) for k in enumerate_knots(c)]


class TestSweep:
    @pytest.mark.parametrize("t", range(1, 16))
    def test_stream_is_the_positive_half_in_order(self, t):
        # Values with |num| <= 1 (zero, the unknot, infinity) are no knot and
        # are never looked up, so they are left out on both sides.
        want = [
            cf.entries
            for cf in enumerate_type_ab(t)
            if cf.entries[0] > 0 and abs(_eval_entries(cf.entries)[0]) > 1
        ]
        assert [cf.entries for _, cf, _ in _sweep(t, _EveryValue())] == want

    @pytest.mark.parametrize("t", range(1, 16))
    def test_probes_and_classes(self, t):
        # Type A probes with the continuant of its head, +-den^-1 (mod p);
        # a Type B palindrome with den itself.
        for (p, r), cf, cls in _sweep(t, _EveryValue()):
            num, den = _eval_entries(cf.entries)
            assert p == abs(num)
            if cls is ExpansionClass.TYPE_A:
                assert r * den % p in {1, p - 1}
            else:
                assert r in {den % p, -den % p}
            assert cls is classify_type(cf)

    @pytest.mark.parametrize("t", range(3, 13))
    def test_reversal_probe_finds_the_key_of_every_type_a_value(self, t):
        # The probe of a Type A value num/den is the numerator of its head
        # a[:-1], not den mod p; in the lookup it must name num/den's knot.
        keyed = []
        for cf in enumerate_type_ab(t):
            if classify_type(cf) is ExpansionClass.TYPE_A:
                num, den = _eval_entries(cf.entries)
                if key := _knot_key(num, den):
                    keyed.append((key, _eval_entries(cf.entries[:-1])[0]))
        lookup = _lookup({key for key, _ in keyed})
        for (p, q), head in keyed:
            assert lookup[p][head % p] == _slopes(p, q)
        assert keyed

    @pytest.mark.parametrize("t", range(1, 16))
    def test_yields_first_hits_of_the_full_enumeration(self, t, keys_le_14):
        got = [(key, cf.entries) for key, cf, _ in _sweep(t, _lookup(keys_le_14))]
        for key, entries in got:
            assert key == _knot_key(*_eval_entries(entries))
        targets, first = set(keys_le_14), {}
        for cf in enumerate_type_ab(t):
            key = _knot_key(*_eval_entries(cf.entries))
            if key in targets:
                first.setdefault(key, cf.entries)
        assert got == list(first.items())

    @pytest.mark.parametrize(
        "key, t, entries",
        [((23, 4), 10, (4, -6)), ((49, 18), 10, (1, 2, -2, -2, -1, -2))],
    )
    def test_stops_at_the_hit_that_empties_the_lookup(self, key, t, entries):
        # A length-2 pattern hit with its - last sign, and a longer one hit
        # with its last tail signs (-, -, -): no probe may follow either.
        lookup = _Drained(_lookup([key]))
        got = [(k, cf.entries) for k, cf, _ in _sweep(t, lookup)]
        assert got == [(key, entries)]
        assert not lookup

    def test_knot_key_ignores_negation(self):
        for t in range(1, 11):
            for cf in enumerate_type_ab(t):
                neg = tuple(-a for a in cf.entries)
                assert _knot_key(*_eval_entries(neg)) == _knot_key(*_eval_entries(cf.entries))


def sign_changes(entries):
    return sum((x > 0) != (y > 0) for x, y in zip(entries, entries[1:]))


@pytest.fixture(scope="module")
def keys_by_c_le_14():
    return {c: [(k.p, k.q) for k in enumerate_knots(c)] for c in range(3, 15)}


class TestSignBudget:
    """A signed sequence with crossing sum t and s sign changes evaluates to
    a knot with c <= t - s: the per-knot search walks back from the Step1
    candidates in at most t - c moves, each removing a sign change."""

    def test_lemma_for_every_signed_sequence_up_to_sum_11(self):
        # The first sign is fixed: negation keeps the changes and the knot.
        crossing, seen, tight = {}, 0, 0
        for t in range(1, 12):
            for mags in compositions(t):
                for signs in product((1, -1), repeat=len(mags) - 1):
                    e = (mags[0], *(s * m for s, m in zip(signs, mags[1:])))
                    seen += 1
                    key = _knot_key(*_eval_entries(e))
                    if key is None:
                        continue
                    if key not in crossing:
                        crossing[key] = crossing_number(TwoBridgeKnot(*key))
                    bound = t - sign_changes(e)
                    assert crossing[key] <= bound, e
                    tight += crossing[key] == bound
        assert seen == 88_573
        assert tight > 0

    def test_sign_table_grows_with_its_output(self):
        # Every head of k slots with a + first sign, in product order, each
        # step rewriting, as (slot, sign) pairs, the slots from the first
        # that differs through k - 1.
        assert _sign_steps(0) == ((),)
        for k in range(1, 12):
            steps, head = _sign_steps(k), []
            assert len(steps) == 2 ** (k - 1)
            heads = []
            for pairs in steps:
                i = pairs[0][0]
                assert [j for j, _ in pairs] == list(range(i, k))
                new = head[:i] + [s for _, s in pairs]
                assert not head or head[i] != new[i]
                head = new
                heads.append(tuple(head))
            assert heads == [(1, *rest) for rest in product((1, -1), repeat=k - 1)]

    @pytest.mark.parametrize("t", range(4, 16))
    def test_first_hits_of_the_knots_within_budget(self, t, keys_by_c_le_14):
        # A knot of crossing number c first hit at t is hit with at most
        # t - c sign changes; here c is within 3 of t.
        keys = {key: c for c, ks in keys_by_c_le_14.items() if t - 3 <= c < t for key in ks}
        hits = [(key, cf) for key, cf, _ in _sweep(t, _lookup(keys))]
        assert hits
        for key, cf in hits:
            assert sign_changes(cf.entries) <= t - keys[key]

    def test_search_at_below_and_above_c(self):
        # The per-knot search against the sweep's first hit.
        for c in range(3, 12):
            for k in enumerate_knots(c):
                for t in range(c - 1, c + 5):
                    full = _sweep(t, _lookup([(k.p, k.q)]))
                    want = next((cf for _, cf, _ in full), None)
                    assert search_at(k, t) == want
                    if t < c:
                        assert want is None

    def test_search_at_one_and_two_above_c_to_13(self):
        hits = 0
        for c in range(12, 14):
            for k in enumerate_knots(c):
                for t in (c + 1, c + 2):
                    full = _sweep(t, _lookup([(k.p, k.q)]))
                    want = next((cf for _, cf, _ in full), None)
                    assert search_at(k, t) == want
                    hits += want is not None
        assert hits > 0

    def test_search_at_finds_every_oracle_witness_to_13(self):
        # No solve runs the per-knot search since Lemma A, so it is checked
        # on its own: at each knot's c2, c or m, it finds the unpruned
        # oracle's first witness.
        oracle = global_c2_map(13)
        for k, (t, cf) in oracle.items():
            assert search_at(k, t) == cf, k
        assert len(oracle) == 714


def _move(x):
    """(y, cost): the move [.., a, -b, R] -> [.., a - 1, 1, b - 1, -R] at the
    first sign change of x (x[0] > 0), with its zero merges, and the first
    entry of y made positive; None where the merges leave no value.  Written
    forward, independently of the solver's inverse."""
    j = next(i for i, a in enumerate(x) if a < 0)
    left, a, b, right = list(x[: j - 1]), x[j - 1], -x[j], [-r for r in x[j + 1:]]
    cost = 1
    if a == 1 and not left:  # [0, 1, b - 1, ..]: the leading rule drops the 1
        if b > 1:
            y, cost = [b - 1] + right, 2
        elif not right:
            return None
        else:  # [0, 1, 0, r, ..] = [0, 1 + r, ..]: the leading rule drops 1 + r
            y, cost = right[1:], 2 + abs(right[0])
    else:
        stack = left + [a - 1, 1] if a > 1 else left[:-1] + [left[-1] + 1]
        if b > 1:
            y = stack + [b - 1] + right
        else:
            while True:  # a zero sits between stack and right
                if not right:  # trailing rule: [.., y, s, 0] = [.., y]
                    if len(stack) < 2:
                        return None
                    cost += stack.pop()
                    y = stack
                    break
                if not stack:  # leading rule: [0, r, rest] names [rest]
                    cost += abs(right[0])
                    y = right[1:]
                    break
                s, r = stack.pop(), right.pop(0)
                cost += s + abs(r) - abs(s + r)
                if s + r:
                    y = stack + [s + r] + right
                    break
    if not y:
        return None
    return tuple(a if y[0] > 0 else -a for a in y), cost


def signed_sequences(t):
    """Every sequence with crossing sum t and a positive first entry."""
    for mags in compositions(t):
        for signs in product((1, -1), repeat=len(mags) - 1):
            yield (mags[0], *(s * m for s, m in zip(signs, mags[1:])))


def _filter_nodes():
    """Every y with entries 1..4 and length <= 6, then seeded signed y."""
    for n in range(1, 7):
        yield from product(range(1, 5), repeat=n)
    rng = random.Random(20)
    for _ in range(1_000):
        n = rng.randint(2, 12)
        yield (rng.randint(1, 6), *(rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(n - 1)))


def _leaves(y, room, a_only):
    """The preimages of y that cost all of room, sorted."""
    t = sum(map(abs, y)) + room
    return sorted(x for x in _preimages(y, room, a_only) if sum(map(abs, x)) == t)


def _pairs_reference(room):
    yield ()
    for s in range(1, room // 2 + 1):
        for rest in _pairs_reference(room - 2 * s):
            yield (s, *rest)


class TestPreimages:
    @pytest.mark.parametrize("room", range(17))
    def test_pairs_matches_the_recursive_walk(self, room):
        assert list(_pairs(room)) == list(_pairs_reference(room))

    def test_every_knot_sequence_up_to_sum_10_is_found(self):
        # The search is complete if undoing one move finds every x again.
        found = 0
        for t in range(1, 11):
            for x in signed_sequences(t):
                key = _knot_key(*_eval_entries(x))
                if key is None or min(x) > 0:
                    continue
                y, cost = _move(x)
                assert _knot_key(*_eval_entries(y)) == key
                assert x in set(_preimages(y, cost, False))
                found += 1
        assert found == 14_736

    @pytest.mark.parametrize("room", [1, 2, 3, 4])
    def test_each_preimage_maps_back_once(self, room):
        for t in range(1, 8):
            for y in signed_sequences(t):
                if _knot_key(*_eval_entries(y)) is None:
                    continue
                got = list(_preimages(y, room, False))
                assert len(got) == len(set(got))
                for x in got:
                    cost = crossing_sum(ContinuedFraction(x)) - t
                    assert 1 <= cost <= room and x[0] > 0
                    assert _move(x) == (y, cost)

    @pytest.mark.parametrize("room", [1, 2, 3])
    def test_a_only_leaves_are_the_type_a_leaves(self, room):
        # A preimage that costs all of room is a leaf: it is built only if
        # it is Type A, and none of those is dropped.
        for y in _filter_nodes():
            want = [x for x in _leaves(y, room, False) if _shape(x) is ExpansionClass.TYPE_A]
            assert _leaves(y, room, True) == want, y

    def test_a_only_room_one_yields_only_type_a(self):
        # Every preimage one crossing up is a leaf.  (1, 1, 1, 1, 1, 1) has
        # the Neither preimage (1, 1, 1, 2, -2) there, and no Type A one.
        assert list(_preimages((1,) * 6, 1, True)) == []
        for y in _filter_nodes():
            for x in _preimages(y, 1, True):
                assert _shape(x) is ExpansionClass.TYPE_A, (y, x)

    @pytest.mark.parametrize("t", range(1, 11))
    def test_order_key_is_the_enumeration_order(self, t):
        got = [cf.entries for cf in enumerate_type_ab(t)]
        assert sorted(got, key=lambda e: _order_key(e, classify_type(ContinuedFraction(e)))) == got


class TestSteps:
    def test_step1_decides_trefoil(self):
        res = step1_check(canonicalize(3, 2))
        assert res is not None
        assert res.value == 3
        assert res.witness.entries == (1, 2)
        assert res.witness_class is ExpansionClass.TYPE_A
        assert res.method == METHOD_STEP1

    def test_step1_decides_via_palindrome(self):
        res = step1_check(canonicalize(15, 4))
        assert res is not None
        assert res.value == 7
        assert res.witness.entries == (3, 1, 3)
        assert res.witness_class is ExpansionClass.TYPE_B

    def test_step1_undecided(self):
        assert step1_check(canonicalize(13, 5)) is None

    def test_step2_bound_worked_example(self):
        assert step2_bound(canonicalize(13, 5)) == 7

    def test_step2_refuses_when_step1_applies(self):
        # A bound at or below the crossing number means step 1 was skipped.
        with pytest.raises(RuntimeError):
            step2_bound(canonicalize(3, 2))

    def test_search_at(self):
        k = canonicalize(13, 5)
        assert search_at(k, 6) is None
        hit = search_at(k, 7)
        assert hit is not None
        assert hit.entries == (1, 2, -2, -2)


class TestC2:
    def test_worked_example_full_record(self):
        res = c2(canonicalize(13, 5))
        assert res.value == 7
        assert res.base_crossing == 6
        assert res.semi_even_bound == 7
        assert res.method == METHOD_STEP2
        assert res.witness.entries == (1, 2, -2, -2)
        assert res.witness_class is ExpansionClass.TYPE_A

    def test_exhausted_to_bound_example(self):
        res = c2(canonicalize(65, 18))
        assert res.value == 12
        assert res.base_crossing == 10
        assert res.semi_even_bound == 12
        assert res.method == METHOD_EXHAUSTED
        assert res.witness.entries == (3, 2, -2, -2, 1, 2)

    def test_step1_example_with_non_canonical_slope(self):
        res = c2(canonicalize(17, 12))
        assert res.value == 7
        assert res.method == METHOD_STEP1
        assert res.witness.entries == (1, 2, 2, 2)

    def test_result_invariant_enforced(self):
        w = ContinuedFraction((1, 2))
        with pytest.raises(ValueError):
            C2Result(
                value=2,
                witness=w,
                witness_class=ExpansionClass.TYPE_A,
                method=METHOD_STEP1,
                semi_even_bound=3,
                base_crossing=3,
            )

    def test_against_brute_force(self):
        # First crossing sum at which each knot appears in the full
        # admissible enumeration; that minimum is the defined value.
        first_seen = {}
        for t in range(1, 9):
            for e in brute_sequences(t):
                k = fraction_to_knot(eval_cf(ContinuedFraction(e)))
                if k is not None and k not in first_seen:
                    first_seen[k] = t
        assert len(first_seen) >= 20
        for k, t in sorted(first_seen.items(), key=lambda kv: (kv[0].p, kv[0].q)):
            assert c2(k).value == t, f"{k}: solver disagrees with brute force"

    def test_batched_equals_individual(self):
        # solve_many is c2 per knot, witnesses included, in input order.
        knots = [k for c in range(3, 14) for k in enumerate_knots(c)]
        assert list(solve_many(knots).items()) == [(k, c2(k)) for k in knots]

    def test_c2_and_search_at_never_sweep(self, monkeypatch):
        import twobridge.oracle as oracle

        def no_sweep(*args):
            raise AssertionError("swept")

        monkeypatch.setattr(oracle, "_sweep", no_sweep)
        assert c2(canonicalize(65, 18)).method == METHOD_EXHAUSTED
        assert search_at(canonicalize(13, 5), 7).entries == (1, 2, -2, -2)

    def test_search_limit(self, monkeypatch):
        # K(65,18) has c = 10 and m = 12; its search at 12 takes 16
        # sequences, and 3 are too few for it.  c2 runs no search.
        import twobridge.search as search

        monkeypatch.setattr(search, "_SEARCH_LIMIT", 3)
        k = canonicalize(65, 18)
        with pytest.raises(SearchBudgetExceeded) as info:
            search_at(k, 12)
        assert (info.value.knot, info.value.c, info.value.m) == (k, 10, 12)
        assert str(info.value) == "search of K(65,18) at t=12 passed the search limit: 10 <= c2 <= 12"
        assert (c2(k).value, c2(k).method) == (12, METHOD_EXHAUSTED)
        assert c2(canonicalize(13, 5)).method == METHOD_STEP2

    def test_search_limit_bounds_the_preimages(self, monkeypatch):
        # The stack never grows past the work left: one node's preimages
        # are not all built before the limit is checked.
        import twobridge.search as search

        real, built = search._preimages, [0]

        def counted(*args):
            for x in real(*args):
                built[0] += 1
                assert built[0] <= 10_000, "preimages built past the limit"
                yield x

        monkeypatch.setattr(search, "_SEARCH_LIMIT", 1_000)
        monkeypatch.setattr(search, "_preimages", counted)
        with pytest.raises(SearchBudgetExceeded):
            search_at(canonicalize(13, 5), 80)

    @pytest.mark.parametrize("t", [80, 10**6])
    def test_search_limit_refuses_large_totals(self, t):
        k = canonicalize(13, 5)
        with pytest.raises(SearchBudgetExceeded) as info:
            search_at(k, t)
        assert (info.value.knot, info.value.c, info.value.m) == (k, 6, 7)

    def test_search_at_refusal_names_its_total(self):
        # search_at searches one total; c2 of K(13,8) is decided (Step2).
        with pytest.raises(SearchBudgetExceeded) as info:
            search_at(canonicalize(13, 5), 80)
        assert str(info.value) == (
            "search of K(13,8) at t=80 passed the search limit: 6 <= c2 <= 7"
        )

    def test_refusal_carries_its_total(self):
        # .t is the total a search_at refusal searched.
        with pytest.raises(SearchBudgetExceeded) as info:
            search_at(canonicalize(13, 5), 80)
        assert info.value.t == 80

    def test_c2_reads_no_slopes(self, monkeypatch):
        # A canonical knot's c2, search included, reads its slopes off one
        # Euclid run.
        import twobridge.knot as knot

        slopes, expansions = [], []
        real_slopes, real_entries = knot._slopes, knot._positive_entries

        def counted_slopes(p, q):
            slopes.append((p, q))
            return real_slopes(p, q)

        def counted_entries(p, q):
            expansions.append((p, q))
            return real_entries(p, q)

        k = canonicalize(187, 108)
        monkeypatch.setattr(knot, "_slopes", counted_slopes)
        monkeypatch.setattr(knot, "_positive_entries", counted_entries)
        res = c2(k)
        assert (res.base_crossing, res.value, res.method) == (12, 15, METHOD_EXHAUSTED)
        assert (slopes, len(expansions)) == ([], 1)

    def test_witnesses_check_out(self, solved_le_10):
        for k, res in solved_le_10.items():
            assert fraction_to_knot(eval_cf(res.witness)) == k
            assert crossing_sum(res.witness) == res.value
            assert classify_type(res.witness) is res.witness_class
            assert res.base_crossing == crossing_number(k)
            assert res.base_crossing <= res.value <= res.semi_even_bound

    def test_crossing_number_once_per_knot(self, monkeypatch):
        # One Euclid run gives a knot's record, c, the four slopes and the
        # Step1 candidates, and its one solve runs once on it.
        import twobridge.knot as knot
        import twobridge.solver as solver

        calls, solved, expansions = [], [], []
        real, real_solve = solver._positive_family, solver._solve
        real_entries = knot._positive_entries

        def counted(k):
            calls.append(k)
            return real(k)

        def counted_solve(fam):
            solved.append(fam[0])
            return real_solve(fam)

        def counted_entries(p, q):
            expansions.append((p, q))
            return real_entries(p, q)

        monkeypatch.setattr(solver, "_positive_family", counted)
        monkeypatch.setattr(solver, "_solve", counted_solve)
        monkeypatch.setattr(knot, "_positive_entries", counted_entries)
        knots = [k for c in range(3, 11) for k in enumerate_knots(c)]
        knots += [canonicalize(p, q) for p, q in _REFERENCE_LARGE_P]
        solve_many(knots)
        assert sorted(calls) == sorted(solved) == sorted(knots)
        assert len(expansions) == len(knots)

    def test_slopes_once_per_knot_on_the_rung_path(self, monkeypatch):
        # A knot's slope residues are read once, off its record: the rungs,
        # the batch lookup, the census and the oracle make no _slopes call.
        import twobridge.knot as knot
        import twobridge.oracle as oracle
        import twobridge.solver as solver
        from twobridge.table import build_table

        real_slopes, calls = knot._slopes, []

        def counted_slopes(p, q):
            calls.append((p, q))
            return real_slopes(p, q)

        knots = [k for c in range(3, 11) for k in enumerate_knots(c)]
        monkeypatch.setattr(knot, "_slopes", counted_slopes)
        for module in (solver, oracle):
            assert not hasattr(module, "_slopes")  # every call goes through knot
        results = solve_many(knots)
        assert any(r.method == METHOD_EXHAUSTED for r in results.values())
        build_table(3, 12)
        global_c2_map(10)
        assert calls == []


_REFERENCE_LARGE_P = [(100003, 40000), (912309, 231710), (594199, 41628), (534047, 62852)]


class TestRungsLargeP:
    @given(knots(max_p=10**6))
    def test_rung_witnesses_check_out(self, k):
        # Steps 1 and 2 decide every knot: most this large end
        # ExhaustedToBound at m, with the semi-even witness.
        res = c2(k)
        m, wit = _semi_even_pick(_positive_family(k))
        c = crossing_number(k)
        assert fraction_to_knot(eval_cf(wit)) == k
        assert classify_type(wit) is ExpansionClass.TYPE_A
        assert crossing_sum(wit) == m
        assert res.method in (METHOD_STEP1, METHOD_STEP2, METHOD_EXHAUSTED)
        assert (res.base_crossing, res.semi_even_bound) == (c, m)
        if res.method != METHOD_STEP1:
            assert (res.value, res.witness) == (m, wit)
        assert fraction_to_knot(eval_cf(res.witness)) == k
        assert classify_type(res.witness) is res.witness_class
        assert crossing_sum(res.witness) == res.value
        assert c <= res.value <= m


    @settings(deadline=None)
    @given(knots(max_p=10**6))
    def test_c2_checks_out(self, k):
        c, m = crossing_number(k), _semi_even_pick(_positive_family(k))[0]
        res = c2(k)
        assert fraction_to_knot(eval_cf(res.witness)) == k
        assert classify_type(res.witness) is res.witness_class
        assert crossing_sum(res.witness) == res.value
        assert (res.base_crossing, res.semi_even_bound) == (c, m)
        assert c <= res.value <= m

    @pytest.mark.parametrize("p,q", _REFERENCE_LARGE_P)
    def test_reference_knots_have_no_hit_below_m(self, p, q):
        # m = c + 2 for each, so only t = c + 1 is searched.  Check every
        # preimage one crossing up, without the search's Type A pruning.
        k = canonicalize(p, q)
        res = c2(k)
        c = res.base_crossing
        assert (res.method, res.value, res.semi_even_bound) == (METHOD_EXHAUSTED, c + 2, c + 2)
        assert search_at(k, c + 1) is None
        roots = {tuple(e) for e in _candidates(_positive_family(k)[3])}
        ups = {x for y in roots for x in _preimages(y, 1, False)}
        assert len(ups) > 30
        for x in map(ContinuedFraction, ups):
            assert crossing_sum(x) == c + 1
            assert _knot_key(*_eval_entries(x.entries)) == (k.p, k.q)
            assert classify_type(x) is ExpansionClass.NEITHER

    def test_search_size_of_the_readme_knot(self, monkeypatch):
        # c2 of K(100003,16668), c = 3342, runs no search, and
        # search_at runs none below m (q^2 is not +-1); the search one crossing up
        # takes 8 sequences from the search tree, counted off its work list.
        import twobridge.search as search

        real, works = search._least_hit, []

        def spy(fam, t, m, work):
            works.append(work)
            return real(fam, t, m, work)

        monkeypatch.setattr(search, "_least_hit", spy)
        k = canonicalize(100003, 40000)
        res = c2(k)
        assert (res.base_crossing, res.value, res.method) == (3342, 3344, METHOD_EXHAUSTED)
        assert works == []
        # 3343 is odd and below m, so search_at walks nothing; the search
        # tree one crossing up holds 8 sequences.
        assert search_at(k, 3343) is None
        assert works == []
        work = [search._SEARCH_LIMIT]
        assert real(_positive_family(k), 3343, 3344, work) is None
        assert search._SEARCH_LIMIT - work[0] == 8

    def test_solve_many_hands_large_bounds_to_c2(self):
        # solve_many returns what c2 does at once, where a sweep from
        # t = c + 1 up to their m would never end.
        knots = [canonicalize(p, q) for p, q in _REFERENCE_LARGE_P]
        start = time.perf_counter()
        got = solve_many(knots)
        assert time.perf_counter() - start < 1
        assert got == {k: c2(k) for k in knots}

    def test_solve_many_never_sweeps(self, monkeypatch):
        # solve_many is c2 per knot: only the oracle sweeps.  K(11047,6378)
        # has c = 21 and m = 27.
        import twobridge.oracle as oracle

        def no_sweep(*args):
            raise AssertionError("swept")

        knots = [k for c in range(3, 11) for k in enumerate_knots(c)]
        knots += [canonicalize(p, q) for p, q in _REFERENCE_LARGE_P + [(11047, 6378)]]
        want = {k: c2(k) for k in knots}
        assert any(r.method == METHOD_EXHAUSTED for r in want.values())
        monkeypatch.setattr(oracle, "_sweep", no_sweep)
        assert solve_many(knots) == want

    def test_large_p_decided_without_a_search(self, monkeypatch):
        # K(791256216780409,209614989723732), whose search from c = 105 to
        # m = 116 passes the search limit, and the first 20 knots of the
        # seeded draw p < 10^15: q^2 is not +-1 (mod p), so none is
        # searched.
        import twobridge.search as search

        def no_search(fam, *args):
            raise AssertionError(f"{fam[0]} searched")

        monkeypatch.setattr(search, "_least_hit", no_search)
        rng, knots = random.Random(20), [canonicalize(791256216780409, 209614989723732)]
        while len(knots) < 21:
            p = rng.randrange(3, 10**15, 2)
            q = rng.randrange(1, p)
            while gcd(p, q) != 1:
                q = rng.randrange(1, p)
            knots.append(canonicalize(p, q))
        for k in knots:
            res = c2(k)
            assert res.method == METHOD_EXHAUSTED
            assert fraction_to_knot(eval_cf(res.witness)) == k
            assert crossing_sum(res.witness) == res.value == res.semi_even_bound
        res = c2(knots[0])
        assert (res.base_crossing, res.value) == (105, 116)

    def test_solve_many_refuses_as_c2_does(self, monkeypatch):
        # c2 runs no search, so neither it nor solve_many refuses a knot
        # whose search_at refuses: K(65,18), c = 10 and m = 12, at a limit
        # of 3, as in TestC2::test_search_limit.
        import twobridge.search as search

        monkeypatch.setattr(search, "_SEARCH_LIMIT", 3)
        k = canonicalize(65, 18)
        with pytest.raises(SearchBudgetExceeded) as info:
            search_at(k, 12)
        assert (info.value.knot, info.value.c, info.value.m) == (k, 10, 12)
        knots = [canonicalize(13, 5), k]
        assert solve_many(knots) == {k: c2(k) for k in knots}

    def test_fibonacci_knots_decided_without_a_search(self, monkeypatch):
        # K(F(n), F(n - 1)) has q^2 = +-1 (mod p) by Cassini's identity.
        # For odd n and odd F(n), up to n = 301, the rungs decide n = 5 and
        # 7; from n = 11 on Step 1 finds no Type B positive sequence, so by
        # Lemma B no Type B sequence reaches the knot, and by Lemma A none
        # is searched.
        import twobridge.search as search

        def no_search(fam, *args):
            raise AssertionError(f"{fam[0]} searched")

        monkeypatch.setattr(search, "_least_hit", no_search)
        f = [0, 1]
        while len(f) <= 301:
            f.append(f[-1] + f[-2])
        ns = [n for n in range(5, 302, 2) if f[n] % 2]
        methods = []
        start = time.perf_counter()
        for n in ns:
            k = canonicalize(f[n], f[n - 1])
            res = c2(k)
            assert res.base_crossing == n - 1, k
            assert fraction_to_knot(eval_cf(res.witness)) == k
            assert crossing_sum(res.witness) == res.value
            methods.append(res.method)
        assert time.perf_counter() - start < 10
        assert len(ns) == 100
        assert methods[:2] == [METHOD_STEP1, METHOD_STEP2]
        assert set(methods[2:]) == {METHOD_EXHAUSTED}
        assert (res.base_crossing, res.value) == (300, 399)

    def test_type_b_bound_decides_a_palindromic_knot(self, monkeypatch):
        # K(12545,3362) has q^2 = +-1 (mod p), c = 22 and m = 28, and no
        # Type B positive sequence, so by Lemma B no Type B sequence reaches
        # it: 23, 25 and 27, whose walks for Type A and Type B sequences
        # take 131,772 sequences, more than the search limit, are ruled out.
        import twobridge.search as search

        def no_search(fam, *args):
            raise AssertionError(f"{fam[0]} searched")

        monkeypatch.setattr(search, "_least_hit", no_search)
        res = c2(canonicalize(12545, 3362))
        assert (res.base_crossing, res.value, res.method) == (22, 28, METHOD_EXHAUSTED)
        assert res.witness.entries == (3, 2, -1, -2, 3, 2, -2, -2, 1, 2, -3, -2, 1, 2)

    def test_search_at_obeys_the_certificates(self, monkeypatch):
        # Below m, search_at walks no total that the lemmas rule out: even ones, and every one of a knot with no Type B positive
        # sequence (Lemma B).  K(12545,3362)'s walk at 27 for Type A and
        # Type B sequences alone passes the search limit.
        import twobridge.search as search

        def no_search(fam, *args):
            raise AssertionError(f"{fam[0]} searched")

        monkeypatch.setattr(search, "_least_hit", no_search)
        for p, q, ts in [(12545, 3362, range(23, 28)), (100003, 40000, [3343]), (65, 18, [11])]:
            for t in ts:
                assert search_at(canonicalize(p, q), t) is None, (p, q, t)
        # At m it walks, and below it at an odd total of a knot
        # that Step 1 decides by a Type B sequence: K(15,4), c = 7, m = 8.
        for p, q, t in [(13, 5, 7), (65, 18, 12), (15, 4, 7)]:
            with pytest.raises(AssertionError, match="searched"):
                search_at(canonicalize(p, q), t)


class TestGlobalMap:
    def test_rejects_rows_below_3(self):
        with pytest.raises(ValueError, match="max_crossing must be >= 3"):
            global_c2_map(2)

    def test_no_hit_below_every_bound_raises(self, monkeypatch):
        # A sweep that never hits must end in an error, not a loop.
        import twobridge.oracle as oracle

        monkeypatch.setattr(oracle, "_sweep", lambda t, lookup: iter(()))
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="enumeration passed every pending bound"):
            global_c2_map(5)
        assert time.perf_counter() - start < 1

    def test_hit_past_its_own_bound_raises(self, monkeypatch):
        # K(13,8) has m = 7; reported as 6, its hit at t = 7 must raise
        # although knots with larger bounds are still pending.
        import twobridge.oracle as oracle

        real = oracle._semi_even_pick

        def low(fam):
            m, wit = real(fam)
            return (m - 1 if (fam[0].p, fam[0].q) == (13, 8) else m), wit

        monkeypatch.setattr(oracle, "_semi_even_pick", low)
        with pytest.raises(RuntimeError) as info:
            global_c2_map(8)
        assert str(info.value) == "K(13,8) first hit at t=7, past its semi-even bound 6"

    def test_agrees_with_per_knot_solver(self):
        gm = global_c2_map(8)
        knots = {k for c in range(3, 9) for k in enumerate_knots(c)}
        assert set(gm) == knots
        for k, (t, witness) in gm.items():
            assert c2(k).value == t
            assert fraction_to_knot(eval_cf(witness)) == k
            assert crossing_sum(witness) == t
            assert classify_type(witness) is not ExpansionClass.NEITHER

    @staticmethod
    def _digest(found):
        # Each knot with its first t and first witness, hashed in knot order.
        h = hashlib.sha256()
        for k in sorted(found):
            t, w = found[k]
            h.update(f"{k.p}/{k.q} {t} {','.join(map(str, w.entries))}\n".encode())
        return h.hexdigest()

    def test_map_through_row_17_is_pinned(self):
        # It sweeps t = 19 and 20 in full and leaves t = 21 early.  A knot's
        # first hit does not depend on the other pending knots, so its
        # 2,794 knots with c <= 15 are the benchmark's oracle pass.
        found = global_c2_map(17)
        assert len(found) == 11050
        assert self._digest(found) == "f11c984ef88fe6d9545579e28397eb9d0565ac64e5e7799a5340bd15b418452c"
        row_15 = {k: found[k] for k in found if crossing_number(k) <= 15}
        assert len(row_15) == 2794
        assert self._digest(row_15) == "8c9b5f0cb8125890ecf1f76714a8efef7bab4697a45cdc0785d2c1a817b0727e"

    def test_method_spread(self, solved_le_12):
        # Frozen tally: the intermediate search never fires on this range;
        # every undecided knot ends exactly at its semi-even bound.
        tally = {}
        for res in solved_le_12.values():
            tally[res.method] = tally.get(res.method, 0) + 1
        assert tally == {METHOD_STEP1: 147, METHOD_STEP2: 172, METHOD_EXHAUSTED: 43}
