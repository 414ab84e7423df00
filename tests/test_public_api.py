"""The public surface of the package: each module's ``__all__`` owns its
names, and the package re-exports them unchanged.  A change to the set below
is a change to the public API and is meant to be deliberate."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import twobridge

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["contfrac", "knot", "oracle", "render", "search", "solver", "table"]

PUBLIC = [
    "ALGORITHM_VERSION",
    "C2Result",
    "ContinuedFraction",
    "CrossCheckError",
    "DiagramLayout",
    "ExpansionClass",
    "METHOD_EXHAUSTED",
    "METHOD_STEP1",
    "METHOD_STEP2",
    "Rational",
    "SearchBudgetExceeded",
    "TableRow",
    "TwistBox",
    "TwoBridgeKnot",
    "build_table",
    "c2",
    "canonicalize",
    "classify_type",
    "crossing_number",
    "crossing_sum",
    "enumerate_knots",
    "enumerate_type_ab",
    "eval_cf",
    "even_expansion",
    "fraction_to_knot",
    "global_c2_map",
    "layout",
    "mod_inverse",
    "positive_expansion",
    "positive_expansion_variant",
    "search_at",
    "semi_even_expansion",
    "slope_family",
    "solve_many",
    "step1_check",
    "step2_bound",
    "table_row",
    "to_svg",
]


def _module(name):
    return importlib.import_module(f"twobridge.{name}")


def _top_level_names(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_package_names_are_frozen():
    assert sorted(twobridge.__all__) == PUBLIC


def test_package_all_concatenates_module_alls_without_repeats():
    assert len(set(twobridge.__all__)) == len(twobridge.__all__)
    assert twobridge.__all__ == [n for m in MODULES for n in _module(m).__all__]


@pytest.mark.parametrize("module", MODULES)
def test_package_binds_each_module_object(module):
    mod = _module(module)
    for name in mod.__all__:
        assert getattr(twobridge, name) is getattr(mod, name), name


@pytest.mark.parametrize("module", MODULES + ["cli"])
def test_module_all_names_are_defined_in_that_module(module):
    mod = _module(module)
    missing = set(mod.__all__) - _top_level_names(mod)
    assert not missing, f"{module}.__all__ lists names it does not define: {sorted(missing)}"


# What each module of the solve may import from its siblings: c2 never
# sweeps or searches, and the oracle shares no rung or search code.
BOUNDARIES = {
    "solver": {"oracle": set(), "search": set(), "table": set()},
    "search": {"oracle": set(), "solver": {"_candidates", "_semi_even_pick", "_type_b_root"}},
    "oracle": {"search": set(), "solver": {"_semi_even_pick"}},
}


def _sibling_imports(module):
    """{sibling: names} over the imports of twobridge/<module>.py from the
    package, relative or absolute; "*" stands for a whole module."""
    tree = ast.parse(Path(_module(module).__file__).read_text(encoding="utf-8"))
    got = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("twobridge."):
                    got.setdefault(alias.name.split(".")[1], set()).add("*")
        elif isinstance(node, ast.ImportFrom):
            path = "." * node.level + (node.module or "")
            if node.level == 1 or path.startswith("twobridge"):
                base = path.removeprefix("twobridge").removeprefix(".")
                for alias in node.names:
                    sibling, name = (base, alias.name) if base else (alias.name, "*")
                    got.setdefault(sibling, set()).add(name)
    return got


@pytest.mark.parametrize("module", sorted(BOUNDARIES))
def test_module_imports_only_its_share_of_the_solve(module):
    got = _sibling_imports(module)
    assert {m: got.get(m, set()) for m in BOUNDARIES[module]} == BOUNDARIES[module]


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^version = "([^"]+)"$', text, re.M)
    assert found and twobridge.__version__ == found.group(1)
