"""Tests for the certificate checker on its own: what importing it loads,
and malformed NO witnesses, which get a report rather than an exception."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dtwone
from dtwone.check import Dtw1Certificate, verify_certificate, verify_witness
from dtwone.digraph import bicycle
from dtwone.dtw1 import recognize_dtw1

LOADED = """
import sys
import {module}
print(" ".join(sorted(m for m in sys.modules if m == "dtwone" or m.startswith("dtwone."))))
print(" ".join(m for m in ("click", "networkx", "numpy") if m in sys.modules))
"""


def fresh_import(module):
    """The dtwone modules, and which of click, networkx and numpy, a fresh
    interpreter has loaded after importing `module`."""
    src = str(Path(dtwone.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    out = subprocess.run(
        [sys.executable, "-c", LOADED.format(module=module)],
        env=env, capture_output=True, text=True, check=True,
    )
    ours, heavy = out.stdout.split("\n")[:2]
    return ours.split(), heavy.split()


def test_the_checker_loads_only_digraph():
    assert fresh_import("dtwone.check") == (
        ["dtwone", "dtwone.check", "dtwone.digraph"], []
    )


def test_the_formats_load_neither_the_recogniser_nor_the_game():
    ours, _ = fresh_import("dtwone.formats")
    assert "dtwone.check" in ours
    assert "dtwone.dtw1" not in ours and "dtwone.games" not in ours


class TestMalformedWitnesses:
    """Each malformed field of `Bicycle(4)`'s witness gives an invalid
    report that names it, from `verify_certificate` and `verify_witness`."""

    @staticmethod
    def reports(**changes):
        d = bicycle(4)
        witness = dataclasses.replace(recognize_dtw1(d).witness, **changes)
        return (
            verify_certificate(d, Dtw1Certificate("NO", None, witness)),
            verify_witness(d, witness),
        )

    @pytest.mark.parametrize("branch_set", [{99}, {-1}, {0, 99}, {"0"}, {1.0}])
    def test_a_branch_set_naming_an_unknown_vertex(self, branch_set):
        sets = {**recognize_dtw1(bicycle(4)).witness.branch_sets, 1: frozenset(branch_set)}
        for report in self.reports(branch_sets=sets):
            assert report.violations == ("branch set 1 names an unknown vertex",)
            assert not report.valid

    def test_branch_sets_keyed_by_a_name_that_is_not_a_pattern_vertex(self):
        sets = recognize_dtw1(bicycle(4)).witness.branch_sets
        renamed = {("1" if p == 1 else p): cls for p, cls in sets.items()}
        for report in self.reports(branch_sets=renamed):
            assert report.violations == ("branch sets must cover the pattern's vertices",)
            assert not report.valid

    @pytest.mark.parametrize("length", ["4", 4.0])
    def test_a_length_that_is_not_an_integer(self, length):
        for report in self.reports(length=length):
            assert report.violations == (f"bicycle witness length {length!r} is not an integer",)
            assert not report.valid

    @pytest.mark.parametrize(
        "step, message",
        [
            (("del", 0), "step ('del', 0) is not a (kind, tail, head) triple"),
            (("del", 0, 1, 2), "step ('del', 0, 1, 2) is not a (kind, tail, head) triple"),
            (7, "step 7 is not a (kind, tail, head) triple"),
            (("del", "0", 1), "step ('del', '0', 1) names an unknown vertex"),
            (("del", 0, 1.5), "step ('del', 0, 1.5) names an unknown vertex"),
        ],
    )
    def test_a_step_that_is_not_a_triple_of_vertices(self, step, message):
        for report in self.reports(script=(step,)):
            assert report.violations == (message,)
            assert not report.valid

    @pytest.mark.parametrize("branch_set", [5, None])
    def test_a_branch_set_that_is_not_a_collection(self, branch_set):
        sets = {**recognize_dtw1(bicycle(4)).witness.branch_sets, 1: branch_set}
        for report in self.reports(branch_sets=sets):
            assert report.violations == ("branch set 1 is not a set of vertices",)
            assert not report.valid

    @pytest.mark.parametrize("script", [None, 7])
    def test_a_script_that_is_not_a_sequence(self, script):
        for report in self.reports(script=script):
            assert report.violations == (f"script {script!r} is not a sequence of steps",)
            assert not report.valid
