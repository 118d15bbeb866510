"""Guards on how the package's modules import each other."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import dtwone
from test_cli import source_env

SOURCES = sorted(Path(dtwone.__file__).parent.glob("*.py"))


def function_level_imports(path):
    """(function name, imported module) for each import inside a function
    body of the module at path."""
    found = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    found += [(fn.name, alias.name) for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    found.append((fn.name, "." * node.level + (node.module or "")))
    return found


def test_only_the_suite_command_imports_inside_a_function():
    # `cmd_suite` loads the suite on demand, so no other command pays for it.
    found = {p.stem: function_level_imports(p) for p in SOURCES}
    assert {stem: imports for stem, imports in found.items() if imports} == {
        "cli": [("cmd_suite", ".suite")]
    }


def test_hypergraph_loads_no_other_module_of_the_package():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, dtwone.hypergraph\n"
         "print(sorted(m for m in sys.modules if m.startswith('dtwone.')))"],
        capture_output=True, text=True, check=True, env=source_env(),
    )
    assert out.stdout.strip() == "['dtwone.hypergraph']"


def names_used(path, function=None):
    """Every name, attribute and imported name in the module at path, or in
    its top-level function of the given name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if function is not None:
        (tree,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == function]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_the_checker_uses_only_plain_walks():
    # The NO checker's sweeps keep dominator trees and per-vertex strong
    # components out of what a reader of `check` has to trust.
    check = Path(dtwone.__file__).parent / "check.py"
    assert names_used(check).isdisjoint(
        {"immediate_dominators", "dominators", "strong_component_of"}
    )


def test_the_conversions_take_what_came_before():
    # `strategy_from_dbd` walks the edge sets that `validate_dbd` accepted,
    # and `dtd_to_leaf_dtd` reads every subtree's least vertex off one pass.
    package = Path(dtwone.__file__).parent
    assert names_used(package / "games.py", "strategy_from_dbd").isdisjoint(
        {"min_hitting_set", "cut"}
    )
    assert "subtree_vertices" not in names_used(package / "decomp.py", "dtd_to_leaf_dtd")
