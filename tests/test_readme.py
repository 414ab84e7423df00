"""The README's Python examples run as written, every line of the form
``expr  # value`` shows ``repr(expr)`` (for ``name = expr``, the name's), and
every name it cites as `module.name` exists in that module."""

import ast
import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
MODULES = "contfrac|knot|oracle|render|search|solver|table|cli"
CITED = sorted(set(re.findall(rf"`({MODULES})\.(\w+)`", TEXT)))


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
