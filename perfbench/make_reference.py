"""Write ``reference.json``: the outputs every benchmark run is checked against.

Run from the root of a checkout of the commit whose outputs are the
reference, with no arguments:

    python3 perfbench/make_reference.py

It takes about 15 seconds.  The census rows 3..14 are also checked against
``EXPECTED_TABLE`` in ``tests/conftest.py`` before anything is written.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import random
import shutil
import sys
import tempfile

from env import OUT, REFERENCE, ROOT, run_record, use_checkout_library

# Large-p knots are drawn once, from this seed, into fixed pools; benchmark
# seeds then sample the pools (see inputs.py).
POOL_SEED = 20230401
P_RANGE = (100_001, 999_999)
DRAWS = 2000
LARGE_POOL = 200
SWEEP_DRAWN = 3
# ROADMAP item 3's example of a knot whose c2 sweep never ends.
HARD = (100003, 40000)
SMALL_CROSSINGS = range(5, 14)


def expected_table() -> dict[int, tuple[int, dict[int, int]]]:
    """``EXPECTED_TABLE`` from tests/conftest.py, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "conftest.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "EXPECTED_TABLE" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("EXPECTED_TABLE not found in tests/conftest.py")


def census_mismatches(stdout: str, expected: dict) -> list[int]:
    """Crossing numbers whose census CSV row differs from ``expected``."""
    rows = {}
    for line in stdout.splitlines()[1:]:
        c, count, *offsets = map(int, line.split(","))
        rows[c] = (count, {j: n for j, n in enumerate(offsets) if n})
    return [
        c
        for c, (count, offsets) in sorted(expected.items())
        if rows.get(c) != (count, {j: n for j, n in offsets.items() if n})
    ]


def _dump(obj, depth: int = 0) -> str:
    # Two levels of objects one key per line, everything deeper on one line,
    # so that a changed entry shows as one changed line.
    if isinstance(obj, dict) and depth < 3:
        pad = " " * (depth + 1)
        items = [f"{pad}{json.dumps(k)}: {_dump(v, depth + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"
    return json.dumps(obj, separators=(",", ":"))


def main() -> int:
    use_checkout_library()
    from twobridge import (
        c2,
        canonicalize,
        crossing_number,
        enumerate_knots,
        global_c2_map,
        layout,
        step1_check,
        step2_bound,
        to_svg,
    )

    from workloads import CENSUS_ARGV, ORACLE_MAX_CROSSING, oracle_digest, result_record

    OUT.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(prefix="reference-", dir=OUT)
    buf = io.StringIO()
    try:
        from twobridge.cli import main as cli_main

        with contextlib.redirect_stdout(buf):
            code = cli_main([*CENSUS_ARGV, "--cache-dir", cache])
    finally:
        shutil.rmtree(cache)
    census = buf.getvalue()
    bad = census_mismatches(census, expected_table())
    if code != 0 or bad:
        print(f"census exit {code}, rows differing from EXPECTED_TABLE: {bad}", file=sys.stderr)
        return 1

    found = global_c2_map(ORACLE_MAX_CROSSING)

    def record(k):
        res = c2(k)
        return result_record(res, to_svg(layout(res.witness)))

    small = {
        f"{k.p}/{k.q}": record(k)
        for c in SMALL_CROSSINGS
        for k in sorted(enumerate_knots(c))
    }

    rng = random.Random(POOL_SEED)
    counts = {"draws": DRAWS, "coprime": 0, "step1": 0, "step2": 0, "sweep": 0}
    large: dict[str, list] = {}
    sweep: dict[str, list[int]] = {}
    for _ in range(DRAWS):
        p = rng.randrange(P_RANGE[0], P_RANGE[1] + 1, 2)
        q = rng.randrange(1, p)
        if math.gcd(p, q) != 1:
            continue
        counts["coprime"] += 1
        k = canonicalize(p, q)
        key = f"{k.p}/{k.q}"
        if step1_check(k) is not None:
            counts["step1"] += 1
        else:
            c, m = crossing_number(k), step2_bound(k)
            if m > c + 1:
                counts["sweep"] += 1
                if len(sweep) < SWEEP_DRAWN:
                    sweep[key] = [c, m]
                continue
            counts["step2"] += 1
        if len(large) < LARGE_POOL:
            large[key] = record(k)

    hard = canonicalize(*HARD)
    ref = {
        "about": {
            **{k: v for k, v in run_record("reference", POOL_SEED, 0, False).items()
               if k in ("commit", "source_sha256", "python", "machine")},
            "made_by": "perfbench/make_reference.py",
        },
        "census": {"argv": list(CENSUS_ARGV), "stdout": census},
        "oracle": {
            "max_crossing": ORACLE_MAX_CROSSING,
            "knots": len(found),
            "sha256": oracle_digest(found),
        },
        "queries": {
            "large_p_draws": {"seed": POOL_SEED, "p_range": list(P_RANGE), **counts},
            "small": small,
            "large": large,
            "sweep": sweep,
            "hard": {f"{hard.p}/{hard.q}": [crossing_number(hard), step2_bound(hard)]},
        },
    }
    REFERENCE.write_text(_dump(ref) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE.relative_to(ROOT)}: {len(small)} small, "
          f"{len(large)} large, {len(sweep)} sweep knots; draws {counts}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
