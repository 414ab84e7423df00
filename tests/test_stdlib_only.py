"""The library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "twobridge").glob("*.py"))


def test_every_absolute_import_is_stdlib():
    assert SOURCES
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {name}"



def test_no_floats():
    # Exact arithmetic throughout: no float literal, and no use of the name
    # float (no conversion, annotation or isinstance check).
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{path.name}:{node.lineno} float literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{path.name}:{node.lineno} uses the name float")
    assert found == []
