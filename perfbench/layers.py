"""The traced per-layer run: each library module's public functions, timed
from here, one span per call or per loop of calls, without patching the
library.  Layer = module: table, knot, contfrac, solver, render.

Counts are taken at the same boundaries as the spans.  The names of the
metrics, and which end-to-end figure each should move, are listed in
perfbench/README.md.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from twobridge import (
    ContinuedFraction,
    Rational,
    build_table,
    c2,
    canonicalize,
    crossing_number,
    enumerate_knots,
    enumerate_type_ab,
    eval_cf,
    fraction_to_knot,
    layout,
    semi_even_expansion,
    solve_many,
    step1_check,
    to_svg,
)

import speed
from env import OUT
from inputs import Query
from spans import Tracer
from workloads import DEADLINE_S, Deadline, DeadlineExceeded, witness_problem

CENSUS_CROSSINGS = range(3, 17)
GEN_TOTALS = (16, 17, 18, 19)
STREAM_TOTAL = 18  # the t whose sequences feed the eval and key probes
SOLVE_CROSSINGS = (14, 15, 16)
RUNGS = ("Step1", "Step2", "Search", "ExhaustedToBound")
WRITE_ROWS = (3, 9)  # rows cheap to solve, so the cache's own cost shows
WRITE_REPS = 9
STAMP_NS = 10**18  # 2001-09-09: a modification time no write today leaves
SWEPT = ("Search", "ExhaustedToBound")


def _stamp(cache: str) -> dict[str, tuple]:
    """Give every cache file the modification time ``STAMP_NS``; return each
    file's (inode, size, mtime) as it then stands."""
    marks = {}
    for path in Path(cache).iterdir():
        os.utime(path, ns=(STAMP_NS, STAMP_NS))
        st = path.stat()
        marks[path.name] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return marks


def _untouched(cache: str, marks: dict[str, tuple]) -> int:
    """Cache files that still stand as ``_stamp`` left them: read, if at all,
    but neither rewritten nor replaced."""
    count = 0
    for path in Path(cache).iterdir():
        st = path.stat()
        count += marks.get(path.name) == (st.st_ino, st.st_size, st.st_mtime_ns)
    return count


def _table(tr: Tracer, m: dict) -> list:
    knots = []
    for c in CENSUS_CROSSINGS:
        with tr.span("table.enumerate_knots"):
            ks = enumerate_knots(c)
        knots += sorted(ks)
        if c == 16:
            m["table.knots.c16"] = len(ks)
    m["table.enumerate_knots_s"] = tr.seconds("table.enumerate_knots")

    cache = tempfile.mkdtemp(prefix="layers-", dir=OUT)
    try:
        lo, hi = CENSUS_CROSSINGS[0], CENSUS_CROSSINGS[-1]
        with tr.span("table.build_table.cold"):
            cold = build_table(lo, hi, cache_dir=cache)
        marks = _stamp(cache)
        with tr.span("table.build_table.warm"):
            warm = build_table(lo, hi, cache_dir=cache)
        if warm != cold:
            raise RuntimeError("warm build_table differs from the cold one")
        m["table.cache_read_ms"] = 1e3 * tr.seconds("table.build_table.warm") / len(warm)
        # A row the warm build did not find in the cache is solved again and
        # written back, which changes its file; a hit leaves the file as is.
        m["table.cache_hits"] = _untouched(cache, marks)
    finally:
        shutil.rmtree(cache)

    # The cost a cache adds to a cold build, per row: the same rows built into
    # a fresh cache directory and without one, interleaved, medians compared.
    plain, cached = [], []
    for _ in range(WRITE_REPS):
        t0 = time.perf_counter()
        with tr.span("table.build_table.nocache"):
            build_table(*WRITE_ROWS)
        plain.append(time.perf_counter() - t0)
        cache = tempfile.mkdtemp(prefix="layers-", dir=OUT)
        try:
            t0 = time.perf_counter()
            with tr.span("table.build_table.fresh_cache"):
                build_table(*WRITE_ROWS, cache_dir=cache)
            cached.append(time.perf_counter() - t0)
        finally:
            shutil.rmtree(cache)
    rows = WRITE_ROWS[1] - WRITE_ROWS[0] + 1
    m["table.cache_write_ms"] = 1e3 * (statistics.median(cached) - statistics.median(plain)) / rows
    return knots


def _solver_generation(tr: Tracer, m: dict) -> list[ContinuedFraction]:
    for t in GEN_TOTALS:
        with tr.span(f"solver.enumerate_type_ab.t{t}"):
            n = sum(1 for _ in enumerate_type_ab(t))
        m[f"solver.gen_count.t{t}"] = n
        m[f"solver.gen_per_s.t{t}"] = n / tr.seconds(f"solver.enumerate_type_ab.t{t}")
    return list(enumerate_type_ab(STREAM_TOTAL))


def _contfrac_and_knot(tr: Tracer, m: dict, seqs: list, knots: list) -> None:
    with tr.span("contfrac.eval_cf"):
        values = [eval_cf(s) for s in seqs]
    m["contfrac.eval_per_s"] = len(seqs) / tr.seconds("contfrac.eval_cf")

    with tr.span("knot.fraction_to_knot"):
        for v in values:
            fraction_to_knot(v)
    m["knot.key_per_s"] = len(values) / tr.seconds("knot.fraction_to_knot")

    with tr.span("knot.crossing_number"):
        for k in knots:
            crossing_number(k)
    m["knot.crossing_number_us"] = 1e6 * tr.seconds("knot.crossing_number") / len(knots)

    # Both even denominators of each class: q and the even one of q^-1, -q^-1.
    slopes = []
    for k in knots:
        qi = pow(k.q, -1, k.p)
        slopes += [Rational(k.p, d) for d in {k.q, qi if qi % 2 == 0 else k.p - qi}]
    with tr.span("contfrac.semi_even_expansion"):
        for s in slopes:
            semi_even_expansion(s)
    m["contfrac.semi_even_us"] = 1e6 * tr.seconds("contfrac.semi_even_expansion") / len(slopes)


def _solver_rungs(tr: Tracer, m: dict, knots: list, stream: list[Query], ref: dict) -> None:
    with tr.span("solver.step1_check"):
        hits = sum(step1_check(k) is not None for k in knots)
    m["solver.step1_us"] = 1e6 * tr.seconds("solver.step1_check") / len(knots)
    m["solver.step1_hit_ratio"] = hits / len(knots)

    for c in SOLVE_CROSSINGS:
        ks = sorted(enumerate_knots(c))
        with tr.span(f"solver.solve_many.c{c}"):
            results = solve_many(ks)
        m[f"solver.solve_many_s.c{c}"] = tr.seconds(f"solver.solve_many.c{c}")
    methods = [r.method for r in results.values()]
    for rung in RUNGS:
        m[f"solver.rungs.c{SOLVE_CROSSINGS[-1]}.{rung}"] = methods.count(rung)
    searched, swept = methods.count("Search"), sum(map(methods.count, SWEPT))
    m["solver.search_yield"] = searched / swept if swept else 0.0

    small = ref["queries"]["small"]
    swept_queries = [
        q for q in stream if q.kind in ("pinned", "small") and small[q.key][2] in SWEPT
    ]
    for q in swept_queries:
        k = canonicalize(q.p, q.q)
        with tr.span("solver.c2.sweep"):
            c2(k)
    m["solver.c2_sweep_ms"] = 1e3 * tr.seconds("solver.c2.sweep") / len(swept_queries)


def _hard(tr: Tracer, m: dict, ref: dict) -> None:
    # ROADMAP item 3's example, under the query deadline: the time to decide
    # it, or the deadline where it is not decided, as at the reference commit.
    (key, (c, m_bound)), = ref["queries"]["hard"].items()
    k = canonicalize(*map(int, key.split("/")))
    with Deadline(DEADLINE_S) as deadline, tr.span("solver.c2.hard"):
        res, secs = deadline.call(c2, k)
    gc.collect()
    problem = None if res is DeadlineExceeded else witness_problem(res, key, c, m_bound)
    if problem is not None:
        raise RuntimeError(problem)
    m["solver.c2_hard_ms"] = 1e3 * secs


def _render(tr: Tracer, m: dict, stream: list[Query], ref: dict) -> None:
    qref = ref["queries"]
    witnesses = [
        ContinuedFraction(qref["large" if q.kind == "large" else "small"][q.key][4])
        for q in stream
        if q.kind != "sweep"
    ]
    size = 0
    for w in witnesses:
        with tr.span("render.layout"):
            lay = layout(w)
        with tr.span("render.to_svg"):
            size += len(to_svg(lay).encode("utf-8"))
    m["render.layout_ms"] = 1e3 * tr.seconds("render.layout") / len(witnesses)
    m["render.to_svg_ms"] = 1e3 * tr.seconds("render.to_svg") / len(witnesses)
    m["render.svg_bytes"] = size


def _scaled(m: dict, units: dict, group, *args):
    """Run one probe group under the speed sampler and scale the times and
    rates it added to reference seconds (see speed.py)."""
    added = set(m)
    with speed.Sampler() as sampler:
        out = group(*args)
    k = sampler.scale()
    for name in set(m) - added:
        if units[name] in ("s", "ms", "us"):
            m[name] *= k
        elif units[name] == "1/s":
            m[name] /= k
    return out


def run_layers(tr: Tracer, stream: list[Query], ref: dict, units: dict) -> dict:
    """Every per-layer metric, under one root span per layer."""
    m: dict = {}
    with tr.span("layers"):
        with tr.span("table"):
            knots = _scaled(m, units, _table, tr, m)
        with tr.span("solver"):
            seqs = _scaled(m, units, _solver_generation, tr, m)
        with tr.span("contfrac+knot"):
            _scaled(m, units, _contfrac_and_knot, tr, m, seqs, knots)
        del seqs
        with tr.span("solver"):
            _scaled(m, units, _solver_rungs, tr, m, knots, stream, ref)
            # Not scaled: a miss lasts the deadline, whatever the speed.
            _hard(tr, m, ref)
        with tr.span("render"):
            _scaled(m, units, _render, tr, m, stream, ref)
    return m
