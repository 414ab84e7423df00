"""The README's Python examples run as written, and every line of the form
``expr  # value`` shows ``repr(expr)`` (for ``name = expr``, the name's)."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


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
