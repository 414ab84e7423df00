"""One timed pass of each workload, and the checks on what it returned.

Timing covers only the calls into the library.  Checks run after the timed
call, against ``reference.json`` and against the independent witness check.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field

from twobridge import (
    c2,
    canonicalize,
    classify_type,
    crossing_sum,
    eval_cf,
    fraction_to_knot,
    global_c2_map,
    layout,
    to_svg,
)
from twobridge.cli import main as cli_main

from env import OUT
from inputs import Query
from spans import Tracer, span_of

DEADLINE_S = 1.0
CENSUS_ARGV = ("table", "--min", "3", "--max", "16")
ORACLE_MAX_CROSSING = 15
SHOWN_PROBLEMS = 5


@dataclass
class PassResult:
    """What one pass did: per-operation samples and failures.

    An op sample is (failed, seconds, render seconds), in the order the
    operations were sent, which is the same in every pass; sorting ranks
    every failed operation after every successful one.
    """

    ops: list[tuple[bool, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    deadline_missed: int = 0  # expected misses, see queries_pass
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < SHOWN_PROBLEMS:
            self.problems.append(what)


def svg_digest(svg: str) -> str:
    return hashlib.sha256(svg.encode("utf-8")).hexdigest()[:16]


def oracle_digest(found) -> str:
    """sha256 over the sorted oracle map knot -> (t, witness)."""
    h = hashlib.sha256()
    for k in sorted(found):
        t, w = found[k]
        h.update(f"{k.p}/{k.q} {t} {','.join(map(str, w.entries))}\n".encode())
    return h.hexdigest()


def result_record(res, svg: str) -> list:
    """The reference form of one answered query."""
    return [
        res.base_crossing,
        res.value,
        res.method,
        res.semi_even_bound,
        list(res.witness.entries),
        svg_digest(svg),
    ]


def witness_problem(res, key: str, c: int, m: int) -> str | None:
    """Check a result without the solver: its witness must evaluate to the
    knot, have the class the result claims, and sum to the value, and the
    value must lie in the reference bracket c <= value <= m."""
    w = res.witness
    k = fraction_to_knot(eval_cf(w))
    if k is None or f"{k.p}/{k.q}" != key:
        return f"witness {list(w.entries)} evaluates to {k}, not {key}"
    if classify_type(w) is not res.witness_class:
        return f"witness class of {key} is not {res.witness_class}"
    if crossing_sum(w) != res.value:
        return f"witness of {key} sums to {crossing_sum(w)}, value {res.value}"
    if not c <= res.value <= m:
        return f"value {res.value} of {key} outside [{c}, {m}]"
    return None


# ---------------------------------------------------------------------------
# census


def census_pass(ref: dict, tracer: Tracer | None = None) -> PassResult:
    """``twobridge table --min 3 --max 16`` in-process, into a fresh cache."""
    out = PassResult(attempted=1)
    cache = tempfile.mkdtemp(prefix="census-", dir=OUT)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            with span_of(tracer)("cli.main"):
                code = cli_main([*CENSUS_ARGV, "--cache-dir", cache])
            secs = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache)
    bad = code != 0 or buf.getvalue() != ref["census"]["stdout"]
    if bad:
        out.fail(f"table exited {code} or its stdout differs from the reference")
    out.ops.append((bad, secs, 0.0))
    return out


# ---------------------------------------------------------------------------
# oracle


def oracle_pass(ref: dict, tracer: Tracer | None = None) -> PassResult:
    """``global_c2_map(15)``, checked against the reference digest."""
    out = PassResult(attempted=1)
    t0 = time.perf_counter()
    with span_of(tracer)("solver.global_c2_map"):
        found = global_c2_map(ORACLE_MAX_CROSSING)
    secs = time.perf_counter() - t0
    bad = len(found) != ref["oracle"]["knots"] or oracle_digest(found) != ref["oracle"]["sha256"]
    if bad:
        out.fail("oracle map differs from the reference")
    out.ops.append((bad, secs, 0.0))
    return out


# ---------------------------------------------------------------------------
# queries


class DeadlineExceeded(BaseException):
    """Raised into a query that runs past the deadline.

    A BaseException, so that no ``except Exception`` in the library can
    swallow it.
    """


class Deadline:
    """A per-call deadline from an interval timer, inside this one process.

    The handler raises only while a call is armed, so a signal that lands
    after the call has returned is ignored.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False

    def _alarm(self, signum, frame) -> None:
        if self.armed:
            self.armed = False
            raise DeadlineExceeded

    def __enter__(self) -> "Deadline":
        self._previous = signal.signal(signal.SIGALRM, self._alarm)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def call(self, fn, *args):
        """(result, seconds), or (DeadlineExceeded, seconds) on a miss."""
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        t0 = time.perf_counter()
        try:
            res = fn(*args)
            self.armed = False
        except DeadlineExceeded:
            res = DeadlineExceeded
        finally:
            elapsed = time.perf_counter() - t0
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        return res, elapsed


def _c2_query(p: int, q: int):
    return c2(canonicalize(p, q))


def queries_pass(
    ref: dict, stream: list[Query], deadline: Deadline, tracer: Tracer | None = None
) -> PassResult:
    """One closed-loop pass over the stream: each query is answered, rendered
    and checked before the next is sent.

    A miss on a ``sweep`` query is the reference outcome (the
    reference commit cannot decide these knots within the deadline), so it is
    counted in ``deadline_missed``, not as a failure; if such a query is
    answered instead, the answer must pass the witness check.
    """
    qref = ref["queries"]
    span = span_of(tracer)
    out = PassResult()
    for q in stream:
        with span("query"):
            problem = _query(q, qref, deadline, span, out)
        if problem is not None:
            out.fail(problem)
    return out


def _query(q: Query, qref: dict, deadline: Deadline, span, out: PassResult) -> str | None:
    """Send one query, record its samples in ``out``, return what is wrong."""
    out.attempted += 1
    try:
        with span("solver.c2"):
            res, secs = deadline.call(_c2_query, q.p, q.q)
    except Exception as exc:  # a query that raises is a failed query
        out.ops.append((True, 0.0, 0.0))
        return f"c2 of K({q.p},{q.q}) raised {exc!r}"
    if res is DeadlineExceeded:
        # The interrupted sweep leaves what it had built in reference cycles;
        # collect them now, untimed, so that one miss does not inflate the
        # memory and the time of the queries after it.
        gc.collect()
        out.ops.append((True, secs, 0.0))
        if q.kind == "sweep":
            out.deadline_missed += 1
            return None
        return f"c2 of K({q.p},{q.q}) missed the {deadline.seconds} s deadline"
    t0 = time.perf_counter()
    try:
        with span("render.layout"):
            lay = layout(res.witness)
        with span("render.to_svg"):
            svg = to_svg(lay)
    except Exception as exc:
        out.ops.append((True, secs, 0.0))
        return f"render of K({q.p},{q.q}) raised {exc!r}"
    rsecs = time.perf_counter() - t0

    if q.kind == "sweep":
        c, m = qref["sweep"][q.key]
        problem = witness_problem(res, q.key, c, m)
    else:
        expected = qref["large" if q.kind == "large" else "small"][q.key]
        problem = witness_problem(res, q.key, expected[0], expected[3])
        if problem is None and result_record(res, svg) != expected:
            problem = f"K({q.p},{q.q}) differs from the reference"
    out.ops.append((problem is not None, secs, rsecs))
    return problem


def queries_run(ref: dict, stream: list[Query], tracer: Tracer | None = None) -> PassResult:
    """``queries_pass`` under the query deadline."""
    with Deadline(DEADLINE_S) as deadline:
        return queries_pass(ref, stream, deadline, tracer)


# One pass of each workload, called as pass_(ref, stream, tracer); only
# ``queries`` has a seeded stream, the others take None.
PASSES = {
    "census": lambda ref, stream, tracer=None: census_pass(ref, tracer),
    "queries": queries_run,
    "oracle": lambda ref, stream, tracer=None: oracle_pass(ref, tracer),
}
