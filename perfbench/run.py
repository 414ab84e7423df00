"""Benchmark of the twobridge library.

    python3 perfbench/run.py --workload {census,queries,oracle,all}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from its ``src/``.
One process, one thread.  With ``--trace 0`` a run sets up (see
``setup``), repeats passes of the workload for about ``--seconds``, checks
every output against ``reference.json``, and prints the end-to-end metrics,
each taken over the median time of every operation, each pass scaled by the
speed sampled while it ran (see ``per_op`` and speed.py).
With ``--trace 1`` it runs one traced pass of the workload and then the
per-layer probes of layers.py, and prints the per-layer metrics;
its length is fixed by the probes, not by ``--seconds``.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  The lines
before it give the run's record and the figures by their workload-specific
names; the same goes to ``.perfbench_out/``.  ``--workload all`` runs the
three workloads one after another, each in a child process.

Exit codes: 0 measured (a wrong output shows as ``"correct": false``), 2 the
library or the benchmark's own files could not be loaded.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import env
import speed

WORKLOADS = ("census", "queries", "oracle")
SETUPS = 21
# The workload-specific names of pass_s, op_p50_ms and op_p95_ms.
ALIASES = {
    "census": {"pass_s": "census_s"},
    "oracle": {"pass_s": "oracle_s"},
    "queries": {
        "pass_s": "queries_s",
        "op_p50_ms": "query_c2_p50_ms",
        "op_p95_ms": "query_c2_p95_ms",
    },
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def setup(workload: str, seed: int):
    """Import the library afresh and generate the run's inputs.

    Returns (seconds, reference, query stream or None).  Nothing is imported
    from the library before the first call, so the first import pays for the
    standard modules too; ``setup_s`` is the median over SETUPS calls,
    scaled by the speed sampled while they ran.
    """
    for name in [n for n in sys.modules if n == "twobridge" or n.startswith("twobridge.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("twobridge.cli")  # the package and every module
    import inputs

    ref = inputs.load_reference()
    stream = inputs.query_stream(ref, seed) if workload == "queries" else None
    return time.perf_counter() - t0, ref, stream


def nearest_rank(sorted_values: list, pct: float):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def measure(one_pass, seconds: float) -> tuple[list, list, list]:
    """Passes until about ``seconds`` have gone: stop when another pass would
    end further past the mark than stopping now ends before it.  Returns the
    passes, each pass's factor to reference seconds, from the samples taken
    while it ran, and all the samples."""
    passes, scales = [], []
    start = time.perf_counter()
    with speed.Sampler() as sampler:
        while True:
            taken = len(sampler.samples)
            passes.append(one_pass())
            scales.append(speed.scale(sampler.samples[taken:]))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) / 2 >= seconds:
                return passes, scales, sampler.samples


def per_op(passes: list, scales: list) -> list[tuple[bool, float, float]]:
    """Each operation's median over the passes of its time in reference
    seconds (each pass scaled by its own factor), and failed if it failed in
    any pass."""
    return [
        (any(s[0] for s in samples),
         statistics.median(k * s[1] for k, s in zip(scales, samples)),
         statistics.median(k * s[2] for k, s in zip(scales, samples)))
        for samples in zip(*(p.ops for p in passes))
    ]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(args, ref, stream, setup_times, setup_scale) -> tuple[dict, dict, list]:
    import workloads

    one = workloads.PASSES[args.workload]
    # Queries that need the sweep run once each, after the rest.  They are
    # bound by the deadline, not by the machine's speed, so they are kept out
    # of pass_s and reported on their own; and the peak memory is read before
    # them, because what an interrupted sweep has built by its deadline grows
    # with the machine's speed in that second.
    regular = stream and [q for q in stream if q.kind != "sweep"]
    swept = stream and [q for q in stream if q.kind == "sweep"]
    budget = args.seconds - len(swept or ()) * workloads.DEADLINE_S
    passes, scales, samples = measure(lambda: one(ref, regular), budget)
    rss = peak_rss_mib()
    sweep_passes = [one(ref, swept)] if swept else []

    scale = statistics.median(scales)
    costs = per_op(passes, scales)
    # Misses rank after every answered query whatever their time (see
    # nearest_rank); they enter the percentiles only through their rank.
    ranked = sorted(op[:2] for op in costs + per_op(sweep_passes, [scale]))
    metrics = {
        "setup_s": setup_scale * statistics.median(setup_times),
        "pass_s": sum(op[1] + op[2] for op in costs),
        "op_p50_ms": 1e3 * nearest_rank(ranked, 50)[1],
        "op_p95_ms": 1e3 * nearest_rank(ranked, 95)[1],
        "peak_rss_mib": rss,
    }
    raw = [sum(op[1] + op[2] for op in p.ops) for p in passes]
    report = {ALIASES[args.workload].get(k, k): v for k, v in metrics.items()}
    report["peak_rss_all_mib"] = peak_rss_mib()
    report["failed_frac"] = sum(op[0] for op in ranked) / len(ranked)
    report["passes"] = len(passes)
    report["ops_per_pass"] = len(ranked)
    report["speed_scale"] = scale
    report["speed_sample_us"] = 1e6 * statistics.median(samples)
    report["pass_raw_median_s"] = statistics.median(raw)
    report["setup_raw_median_s"] = statistics.median(setup_times)
    if args.workload == "queries":
        render = sorted(op[2] for op in costs if not op[0])
        report["render_p50_ms"] = 1e3 * nearest_rank(render, 50)
        report["sweep_wall_s"] = sum(op[1] for p in sweep_passes for op in p.ops)
        report["deadline_missed"] = sum(p.deadline_missed for p in sweep_passes)
    report["pass_raw_s"] = raw
    report["pass_scaled_s"] = [k * t for k, t in zip(scales, raw)]
    return metrics, report, passes + sweep_passes


def traced_run(args, ref, stream, units) -> tuple[dict, dict, list, object]:
    import layers
    import workloads
    from spans import Tracer, span_cost_s

    tr = Tracer(args.workload)
    # The tracing overhead is the number of spans the traced pass recorded
    # times the cost of one span, timed here: an untraced pass less a traced
    # one is too noisy to resolve a few milliseconds.
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        traced = workloads.PASSES[args.workload](ref, stream, tr)
        traced_s = time.perf_counter() - t0
        per_span_s = span_cost_s()
    scale = sampler.scale()
    spans = len(tr.spans)
    if stream is None:
        import inputs

        stream = inputs.query_stream(ref, args.seed)
    metrics = layers.run_layers(tr, stream, ref, units)
    metrics["trace.overhead_ms"] = 1e3 * scale * per_span_s * spans
    report = {
        "traced_pass_wall_s": traced_s,
        "pass_spans": spans,
        "span_us": 1e6 * scale * per_span_s,
    }
    return metrics, report, [traced], tr


# Units of the figures that only the human-readable report carries.
REPORT_UNITS = {
    "peak_rss_all_mib": "MiB",
    "failed_frac": "ratio",
    "speed_scale": "ratio",
    "speed_sample_us": "us",
    "pass_raw_median_s": "s",
    "setup_raw_median_s": "s",
    "passes": "count",
    "ops_per_pass": "count",
    "render_p50_ms": "ms",
    "sweep_wall_s": "s",
    "deadline_missed": "count",
    "traced_pass_wall_s": "s",
    "pass_spans": "count",
    "span_us": "us",
}


def declared_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    doc = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def run_all(args) -> int:
    """Each workload in its own child process, one after another, so that each
    reports its own peak memory."""
    code = 0
    for w in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(f"{w}: {line}" for line in lines[:-1]))
        print(f"{w}: {lines[-1] if lines else '(no result)'}")
        code = max(code, done.returncode)
    return code


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        env.use_checkout_library()
        os.environ.pop("TWOBRIDGE_CACHE_DIR", None)
        if args.workload == "all":
            return run_all(args)
        units = declared_units(bool(args.trace))
        env.OUT.mkdir(exist_ok=True)
        setup_times = []
        with speed.Sampler() as sampler:
            for _ in range(SETUPS):
                secs, ref, stream = setup(args.workload, args.seed)
                setup_times.append(secs)
    except (env.MissingLibrary, ImportError, OSError) as exc:
        print(f"error: cannot load the library or the benchmark: {exc}", file=sys.stderr)
        return 2

    record = env.run_record(args.workload, args.seed, args.seconds, bool(args.trace))
    tracer = None
    if args.trace:
        metrics, report, passes, tracer = traced_run(args, ref, stream, units)
    else:
        metrics, report, passes = timed_run(args, ref, stream, setup_times, sampler.scale())
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems][:5]
    aliases = {alias: name for name, alias in ALIASES.get(args.workload, {}).items()}

    print("run " + json.dumps(record))
    for name, value in report.items():
        if isinstance(value, list):
            continue
        unit = REPORT_UNITS.get(name) or units.get(aliases.get(name, name))
        print(f"{name} {value:.6g} {unit}")
    for msg in problems:
        print(f"problem: {msg}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {"record": record, "report": report, "metrics": metrics, "problems": problems}
    if tracer is not None:
        tracer.write(env.OUT / f"spans-{stem}.json", {"record": record})
        top = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])[:8]
        print("self time: " + ", ".join(f"{n} {s:.3f} s" for n, s in top))
    (env.OUT / f"run-{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
