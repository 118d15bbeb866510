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


def test_the_checker_replays_nothing():
    # A NO certificate is three rooted sets: the checker reads them and
    # sweeps, and the replay state, its scripts and the minor witness stay
    # with the recogniser in `dtw1`.
    check = Path(dtwone.__file__).parent / "check.py"
    assert names_used(check).isdisjoint(
        {"_ReplayState", "replay_script", "merge_into", "MinorWitness"}
    )


def test_the_conversions_take_what_came_before():
    # `strategy_from_dbd` walks the edge sets that `validate_dbd` accepted,
    # and `dtd_to_leaf_dtd` reads every subtree's least vertex off one pass.
    package = Path(dtwone.__file__).parent
    assert names_used(package / "games.py", "strategy_from_dbd").isdisjoint(
        {"min_hitting_set", "cut"}
    )
    assert "subtree_vertices" not in names_used(package / "decomp.py", "dtd_to_leaf_dtd")


def test_the_split_tree_keeps_each_split_by_its_cut():
    # A tree edge is (A-side node, B-side node, cut vertex): `dtw1` builds no
    # separation object, and a split hands its attachments to its children
    # rather than reading a list of each piece's incident edges.
    dtw1 = Path(dtwone.__file__).parent / "dtw1.py"
    assert names_used(dtw1).isdisjoint({"TightSeparation", "incident"})


def test_the_split_tree_is_checked_by_the_checker_s_boundary_pass():
    # `_laminar` asks the checker's `_outside` which edges leave or enter
    # each subtree's interval, rather than scanning union shores, and it
    # is the only check of the family: no split tests its own separation
    # or lifts both of its shores.
    dtw1 = Path(dtwone.__file__).parent / "dtw1.py"
    assert "_outside" in names_used(dtw1, "_laminar")
    assert names_used(dtw1).isdisjoint(
        {"is_directed_separation", "_lifted_shores", "_lift_separation"}
    )


def test_each_answer_is_built_once_and_checked_once():
    # A NO answer's rooted sets are read off the replay state, so the
    # recogniser builds no minor witness; `recognize_dtw1` checks either
    # answer with `verify_certificate`, so the YES construction validates
    # nothing itself; and `verify-cert` prints its report as the other
    # validating commands do.
    package = Path(dtwone.__file__).parent
    for function in ("recognize_dtw1", "_minor_witness"):
        assert "MinorWitness" not in names_used(package / "dtw1.py", function)
    assert "verify_certificate" in names_used(package / "dtw1.py", "recognize_dtw1")
    assert "validate_dtd" not in names_used(package / "dtw1.py", "width1_dtd_from_sdec")
    assert "_report_lines" in names_used(package / "cli.py", "cmd_verify_cert")


def test_a_two_way_separation_is_oriented_without_pivots():
    # `orient_cut_separation` orients a separation valid both ways by the
    # piece's least vertex other than the cut, and a split re-keys by where
    # that vertex went, so no entry or piece keeps the vertices compared.
    dtw1 = Path(dtwone.__file__).parent / "dtw1.py"
    assert names_used(dtw1).isdisjoint({"pivots", "pivoted"})
