"""The README's Python examples run as written, every line of the form
``expr  # value`` shows ``repr(expr)`` (for ``name = expr``, the name's),
every name it cites as `module.name` exists in that module, and its
"Command line" transcript replays through ``twobridge.cli.main`` byte for
byte: stdout, ``error:`` lines on stderr, and exit codes."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

from twobridge.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
MODULES = "contfrac|knot|oracle|render|search|solver|table|cli"
CITED = sorted(set(re.findall(rf"`({MODULES})\.(\w+)`", TEXT)))
(TRANSCRIPT,) = re.findall(r"^## Command line\n.*?^```text\n(.*?)^```$", TEXT, re.M | re.S)
# A wall time, a memory size or a machine: "0.0009 s", "16 MiB", "2-vCPU Xeon".
# The space before a time unit keeps "any number of 2s" out.
WALL_TIME = re.compile(r"\d (?:s|ms|µs)\b|[KMG]iB\b|vCPU|Xeon")


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block(block):
    env: dict = {}
    shown = 0
    for line in block.splitlines():
        code, _, want = line.partition("  # ")
        stmt = ast.parse(code).body
        if not want:
            exec(code, env)
            continue
        (node,) = stmt
        if isinstance(node, ast.Assign):
            exec(code, env)
            (target,) = node.targets
            got = env[target.id]
        else:
            got = eval(code, env)
        assert repr(got) == want.strip(), line
        shown += 1
    assert shown > 0


def test_readme_cites_module_names():
    assert len(CITED) >= 9


@pytest.mark.parametrize("module, name", CITED, ids=[".".join(c) for c in CITED])
def test_readme_module_name_exists(module, name):
    assert hasattr(importlib.import_module(f"twobridge.{module}"), name)


def test_no_wall_times():
    # Timings depend on the machine and go stale with each speed-up: they
    # live in CHANGES.md and BENCH_<n>.json, not in the README or a docstring.
    docs = {m: importlib.import_module(f"twobridge.{m}").__doc__ for m in MODULES.split("|")}
    for where, text in {"README.md": TEXT, **docs}.items():
        assert not WALL_TIME.findall(text), where


def _lines(shown):
    return "".join(line + "\n" for line in shown)


def test_cli_transcript(capsys, monkeypatch, tmp_path):
    # Each `$ ` line is a command and the non-blank lines under it its output.
    steps = []
    for line in TRANSCRIPT.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        elif line:
            steps[-1][1].append(line)
    monkeypatch.chdir(tmp_path)
    code, ran = 0, 0
    for command, shown in steps:
        if command == "echo $?":
            assert shown == [str(code)], command
            code = 0
            continue
        assert code == 0, f"exit {code} is not shown by a following '$ echo $?'"
        name, *argv = shlex.split(command)
        if name == "cat":
            (path,) = argv
            Path(path).write_text(_lines(shown), encoding="utf-8")
            continue
        assert name == "twobridge", f"the replay cannot run '$ {command}'"
        code = main(argv)
        ran += 1
        out, err = capsys.readouterr()
        errors = [s for s in shown if s.startswith("error: ")]
        outputs = [s for s in shown if not s.startswith("error: ")]
        assert (out, err) == (_lines(outputs), _lines(errors)), command
    assert code == 0, f"exit {code} is not shown by a following '$ echo $?'"
    # Every `$ twobridge` example in the README is in the replayed block.
    assert ran == TEXT.count("\n$ twobridge ")
