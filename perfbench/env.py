"""Where the benchmark finds the library, where it writes, and what it records
about the machine.

The benchmark runs from the root of a source checkout and imports the library
from that checkout's ``src/``, never from an installed copy, so it measures
exactly the code it sits beside.  Everything it writes goes under ``OUT``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "twobridge"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"


class MissingLibrary(Exception):
    """The checkout holds no library source to measure."""


def use_checkout_library() -> None:
    """Put the checkout's ``src/`` first on the import path, or raise."""
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingLibrary(f"no library source at {PACKAGE}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _git_commit() -> str:
    # Read .git directly: the benchmark starts no processes of its own.
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the library's source files, which names the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_record(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Machine, interpreter, code and arguments of one run."""
    uname = platform.uname()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": f"{uname.node} {uname.system} {uname.release} {uname.machine}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": _git_commit(),
        "source_sha256": source_digest(),
    }
