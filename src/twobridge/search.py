"""The per-knot search at one crossing total, :func:`search_at`: the
paper's Step 3, which no :func:`~twobridge.solver.c2` result needs.

The search turns Lemma B's reduction (``solver``'s docstring) around.
Take a hit x at t = c + d with a positive first entry (its negation names
the mirror, the same knot).  Apply the move at its first sign change,
with its merges, again and again: each step removes at least one crossing,
so after at most d steps no sign change is left, and what is left is a
positive sequence of the knot's class with crossing sum c.  The positive
sequences of a value p/r are its Euclid expansion and the trailing-1
variant, so it is one of the eight of ``solver._candidates``.
``_preimages`` undoes one such step exactly, at every cost: every x it yields maps back, and
every preimage is yielded once.  So the hits at t are the Type A / Type B
sequences among the preimages of the eight candidates that lie d crossings
up.  For fixed d their number is polynomial in c, where a sweep's grows
exponentially in t.  Each is evaluated before it counts, and the least
under ``_order_key``, which reproduces ``oracle.enumerate_type_ab`` order, is
the answer.  The walk prunes what cannot be Type A: a later step keeps the
entries after the first sign change in place counted from the right, and
Type A fixes the parity of every other one of them.  Where Type B cannot
hit, a preimage that spends all the crossings left is a leaf, and it is
built only if it is Type A, which a few parities of its node decide.  One
:func:`search_at` call walks at most ``_SEARCH_LIMIT`` sequences: once it
holds more than it may still walk, it raises SearchBudgetExceeded with its
total and the proven bracket c <= c2 <= m.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Iterator

from .contfrac import ContinuedFraction, ExpansionClass, _eval_entries, _shape
from .knot import TwoBridgeKnot, _Family, _positive_family
from .solver import _candidates, _semi_even_pick, _type_b_root

__all__ = ["SearchBudgetExceeded", "search_at"]

# Work ceiling of one search_at call: sequences built by the per-knot search.
_SEARCH_LIMIT = 100_000


class SearchBudgetExceeded(RuntimeError):
    """:func:`search_at` reached its work ceiling at the crossing total t;
    the message names t and the proven bracket c <= c2 <= m."""

    def __init__(self, knot: TwoBridgeKnot, c: int, m: int, t: int):
        super().__init__(f"search of {knot} at t={t} passed the search limit: {c} <= c2 <= {m}")
        self.knot, self.c, self.m, self.t = knot, c, m, t


# ---------------------------------------------------------------------------
# Per-knot search: the preimages of the eight positive sequences


def _negated(entries: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-a for a in entries)


def _unstack(stack: tuple[int, ...]) -> tuple[int, ...] | None:
    """The head L + (a,) of a preimage [L, a, -b, ..], L positive, from the
    positive entries that its move leaves before b - 1: those are L + (a - 1,
    1) when a >= 2, or L[:-1] + (l + 1,), merged from [.., l, 0, 1], when a =
    1.  None for (1,): a = 1 with L empty is the leading case."""
    if stack[-1] > 1:
        return stack[:-1] + (stack[-1] - 1, 1)
    return stack[:-2] + (stack[-2] + 1,) if len(stack) > 1 else None


def _pairs(room: int) -> Iterator[tuple[int, ...]]:
    """Every (s_1, .., s_k), k >= 0, of positive entries with 2 * sum <= room:
    the entries that cancel in pairs when a merge leaves another zero.

    Lexicographic order, a prefix first: the walk appends a 1 while room is
    left, else drops the last entry and raises the one before it."""
    tops, free = [], room
    yield ()
    while True:
        if free >= 2:
            tops.append(1)
        elif len(tops) < 2:
            return
        else:
            free += 2 * tops.pop()
            tops[-1] += 1
        free -= 2
        yield tuple(tops)


def _preimages(
    y: tuple[int, ...], room: int, a_only: bool
) -> Iterator[tuple[int, ...]]:
    """Every x with a positive first entry that the move at its first sign
    change, with the zero merges it leaves, carries to y or -y, at a cost of
    crossing_sum(x) - crossing_sum(y) <= room crossings.

    The move turns x = L + [a, -b] + R, L positive, into [L, a - 1, 1, b - 1,
    -R].  A zero at a - 1 merges into L (or, with L empty, leaves a leading
    [0, 1, ..] that drops the 1); a zero at b - 1 merges the entries on its
    two sides, again while they cancel, until one survives, R runs out (the
    trailing rule drops the entry left of the zero) or the left side does (the
    leading rule drops the entry right of it).  Each x is yielded once and
    maps back to y, so preimages of distinct sequences never meet.

    With a_only, only the x that can still lead to a Type A sequence are
    yielded.  Counted from the right, a Type A sequence has an even entry at
    every odd place.  Every later move keeps in place, counted from the
    right, the entries after the first negative y[j] of y (y[j] too, unless
    the move costs 3 or more), and x keeps those after the y[i] it merges
    into.  So y[low:], low the least index that qualifies, must cover both.

    An x of cost room is a leaf, and with a_only it is yielded only if it
    is Type A, which parities of y decide before it is built.  Most such x
    put two odd entries side by side around their -1.  The others rewrite
    y[i - 1] and y[i], or, when y[i - 1] = 1, y[i - 2 .. i] (the
    b >= 2 case at cost 1; the b = 1 merge of s = 1 into v = y[i], at cost
    1 or, for v < 0, 3), or y[0] (the leading case at cost 2).  Its length
    is n +- 1, so n must be odd.  The entries after the rewritten ones keep
    their places, which low covers; those before them move by one place,
    so they hold no odd entry at an odd index: they end at most at hi, the
    first such index (n if none).  The rewritten entries that land on odd
    places must be even:
      - b >= 2, y[i - 1] > 1: x has [y[i - 1] - 1, 1, -1 - y[i]], so n - i,
        y[i] and y[i - 1] are odd;
      - b >= 2, y[i - 1] = 1: x has [y[i - 2] + 1, -1 - y[i]], so y[i] is
        odd if n - i is odd, and y[i - 2] is odd if n - i is even;
      - the merge: x has [y[i - 1] + 1, -1, 1 - v], so n - i, v and
        y[i - 1] are odd;
      - the leading case: x starts [1, -1 - y[0]], so y[0] is odd.
    """
    n = len(y)
    if a_only and room == 1 and n % 2 == 0:  # every x has length n +- 1
        return
    j = next((i for i, a in enumerate(y) if a < 0), n)  # y[:j] is positive
    low, hi = 0, n
    if a_only:
        low = next((i + 1 for i in range(n - 1, -1, -2) if y[i] % 2), 0)
        if low > (j if room < 3 else j + 1):
            return
        hi = next((i for i in range(1, n, 2) if y[i] % 2), n)
    # b >= 2: y = stack + [b - 1] + (-R), cost 1.
    for i in range(max(1, low - 1), j):
        if a_only and room == 1 and not (
            y[i - 1] > 1 and (n - i) % 2 and y[i] % 2 and y[i - 1] % 2 and i - 1 <= hi
            or y[i - 1] == 1 and y[i if (n - i) % 2 else i - 2] % 2 and i - 2 <= hi
        ):
            continue
        head = _unstack(y[:i])
        if head:
            yield head + (-1 - y[i],) + _negated(y[i + 1:])
    # a = 1 with L empty and b >= 2: [0, 1, b - 1, -R] names the knot of [b - 1, -R].
    if room >= 2 and low <= 1 and (room > 2 or not a_only or n % 2 and y[0] % 2):
        yield (1, -1 - y[0]) + _negated(y[1:])
    # b = 1: the entries tops = (s_1, .., s_k) cancel against the top of the
    # stack first, then the zero ends in one of three ways.  The first is a
    # merge s + q = v into y[i] (or, at i = 0, into -y[0], the result then
    # being negated), at cost s + |q| - |v|.
    merges = [(i, y) for i in range(max(0, low - 1), min(j + 1, n))]
    if low <= 1:
        merges.append((0, _negated(y)))
    for tops in _pairs(room - 1):
        spent = 1 + 2 * sum(tops)
        rest = room - spent
        stacked = tops[::-1]
        for i, z in merges:
            v = z[i]
            top = max(v, 0) + rest // 2
            if a_only and not rest:
                top = 0 if tops else min(top, 1)
            for s in range(1, top + 1):
                cost = spent + s + abs(v - s) - abs(v)
                if s == v or a_only and cost == room and (
                    tops or s > 1
                    or not (n % 2 and (n - i) % 2 and v % 2 and z[i - 1] % 2 and i - 1 <= hi)
                ):
                    continue
                head = _unstack(z[:i] + (s,) + stacked)
                if head:
                    yield head + (-1,) + tops + (s - v,) + _negated(z[i + 1:])
        last = rest if a_only else rest + 1  # the three below end in odd neighbours
        # R runs out: the trailing rule drops the entry x above y.
        if j == n:
            for x in range(1, last):
                yield _unstack(y + (x,) + stacked) + (-1,) + tops
        # The stack runs out: the leading rule drops the entry x before +-y.
        head = _unstack(stacked) if tops and not low else None
        for x in range(1, last if head else 1):
            for sx, z in product((x, -x), (y, _negated(y))):
                yield head + (-1,) + tops + (-sx,) + _negated(z)
    # a = 1 with L empty and b = 1: [0, 1, 0, -x, +-y] names the knot of +-y.
    if not low:
        for x in range(1, room - 2 if a_only else room - 1):
            for sx, z in product((x, -x), (y, _negated(y))):
                yield (1, -1, -sx) + _negated(z)


def _order_key(entries: tuple[int, ...], cls: ExpansionClass) -> tuple:
    """``oracle.enumerate_type_ab`` order as a sort key: class A before B, then
    length, then magnitudes, then signs with + first; a Type B sequence is
    compared by its half, centre last."""
    if cls is ExpansionClass.TYPE_B:
        entries = entries[: len(entries) // 2 + 1]
    return (
        cls is ExpansionClass.TYPE_B,
        len(entries),
        tuple(abs(a) for a in entries),
        tuple(a < 0 for a in entries),
    )


def _least_hit(
    fam: _Family, t: int, m: int, work: list[int]
) -> tuple[tuple[int, ...], ExpansionClass] | None:
    """(entries, class) of the first sequence in ``oracle.enumerate_type_ab``
    order at crossing sum t that evaluates into the class of fam's knot, or None.

    The hits are the preimages, t - c crossings up, of the eight positive
    sequences of ``solver._candidates`` under :func:`_preimages` (see the
    module docstring).
    The tree is walked depth first; each sequence taken from it costs one
    unit of work[0].  A stack longer than the work left raises
    SearchBudgetExceeded with t and c <= c2 <= m, so none is built longer.
    Type B needs an odd t and, by Lemma B, a knot with a Type B positive
    sequence (:func:`_type_b_root`); otherwise the walk asks
    :func:`_preimages` for the Type A ones only.
    """
    k, c, slopes, family = fam
    if t < c:
        return None
    a_only = t % 2 == 0 or not _type_b_root(fam)
    residues = set(slopes)
    todo = list({tuple(e) for e in _candidates(family)})
    best = None
    while todo:
        if len(todo) > work[0]:
            raise SearchBudgetExceeded(k, c, m, t)
        work[0] -= 1
        y = todo.pop()
        room = t - sum(map(abs, y))
        if room:
            todo.extend(islice(_preimages(y, room, a_only), work[0] - len(todo) + 1))
            continue
        cls = _shape(y)
        if cls is ExpansionClass.NEITHER:
            continue
        num, den = _eval_entries(y)
        if abs(num) == k.p and den % k.p in residues:
            key = _order_key(y, cls)
            if best is None or key < best[0]:
                best = key, y, cls
    return best and best[1:]


def search_at(k: TwoBridgeKnot, t: int) -> ContinuedFraction | None:
    """First sequence in enumeration order at crossing sum t that evaluates
    into k's slope class, or None.  Raises SearchBudgetExceeded, naming t,
    past the search's work ceiling.

    A t below m gets None with no walk when it is even or the knot has no
    Type B sequence (:func:`_type_b_root`): by Lemma A no Type A sequence
    and by Lemma B no Type B one can hit there."""
    fam = _positive_family(k)
    m = _semi_even_pick(fam)[0]
    if t < m and (t % 2 == 0 or not _type_b_root(fam)):
        return None
    hit = _least_hit(fam, t, m, [_SEARCH_LIMIT])
    return hit and ContinuedFraction._trusted(hit[0])
