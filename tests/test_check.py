"""Tests for the certificate checker on its own: what importing it loads,
malformed NO witnesses, which get a report rather than an exception, and
the NO haven's sweeps against the walks they replaced."""

from __future__ import annotations

import dataclasses
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import dtwone
from dtwone.check import (
    DirectedTreeDecomposition,
    Dtw1Certificate,
    _ReplayState,
    _roots,
    minor_haven_is_monotone,
    on_every_path,
    replay_script,
    validate_dtd,
    verify_certificate,
    verify_witness,
)
from dtwone.digraph import (
    Digraph,
    a4_digraph,
    bicycle,
    bidirect,
    digraph_from_edges,
    strong_component_of,
)
from dtwone.dtw1 import recognize_dtw1, shore_contraction_script
from dtwone.suite import TREE_SHAPES, bidirected_path, tournament_with_back_path
from test_decomp import tree_dtd
from test_digraph import random_strongly_connected, random_tree_edges, tree_plus_triangle

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


@pytest.mark.parametrize("bags, guard, walk", [
    ({0: {0, 1}, 1: {2, 7}}, {1}, ()),
    ({0: {1}, 1: {0, 2, 7}}, {2},
     ("guard [2] of arc (0, 1) misses a walk returning to [0, 2, 7] through vertex 1",)),
])
def test_a_bag_naming_an_unknown_vertex_gets_a_report(bags, guard, walk):
    # The bidirected path 0 1 2, with a vertex 7 it does not have below the
    # arc: the partition check reports it, and the guard's walk starts from
    # the vertices below the arc that the path has.
    d = bidirect(3, [(0, 1), (1, 2)])
    dec = DirectedTreeDecomposition((0, 1), ((0, 1),), bags, {(0, 1): guard})
    expected = ("bags must partition the vertex set of the digraph", *walk)
    assert validate_dtd(d, dec).violations == expected
    report = verify_certificate(d, Dtw1Certificate("YES", dec, None))
    assert (report.valid, report.violations) == (False, expected)


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


def reference_minor_haven_is_monotone(d, branch_sets, roots):
    """`minor_haven_is_monotone` as it was before its sweeps: one walk of d
    and one of d - y for each vertex y, n + 1 walks."""
    least = sorted(branch_sets)[:3]
    slot = {v: i for i, p in enumerate(least) for v in branch_sets[p]}

    def root_missing(*slots):
        return roots[least[min({0, 1, 2}.difference(slots))]]

    whole = strong_component_of(d, root_missing(), ())
    for y in range(d.n):
        i = slot.get(y)
        if root_missing(i) not in whole:
            return False
        h = strong_component_of(d, root_missing(i), {y})
        if any(root_missing(i, j) not in h for j in range(3)):
            return False
    return True


def _reach(d, r, removed=()):
    seen, stack = {r}, [r]
    while stack:
        for w in d.out_neighbours(stack.pop()):
            if w not in seen and w not in removed:
                seen.add(w)
                stack.append(w)
    return seen


def witness_roots(d, witness):
    return _roots(replay_script(d, witness.script), witness.branch_sets)


class TestOnEveryPath:
    @staticmethod
    def brute_force(d, r, s):
        if s not in _reach(d, r):
            return None
        return {y for y in range(d.n) if y not in (r, s) and s not in _reach(d, r, {y})}

    @pytest.mark.parametrize(
        "n, edges, r, s, want",
        [
            (2, [], 0, 1, None),
            (3, [(0, 1), (2, 0)], 0, 2, None),
            (2, [(0, 1)], 0, 1, set()),
            (2, [(0, 1)], 1, 0, None),
            (4, [(0, 1), (1, 2), (2, 3), (0, 2)], 0, 3, {2}),
            (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3)], 0, 4, {3}),
            (4, [(0, 1), (1, 3), (0, 2), (2, 3)], 0, 3, set()),
        ],
        ids=["no-edge", "s-unreachable", "one-edge", "one-edge-backwards",
             "chord-to-the-cut", "overlapping-chords", "two-routes"],
    )
    def test_small_cases(self, n, edges, r, s, want):
        """On 0 -> 1 -> 2 -> 3 -> 4 with the chords 0 -> 2 and 1 -> 3, the
        walk finds P = 0 2 3 4.  A search that avoids only the vertex it
        decides enters 3 through 1 while deciding 2, and so misses that 3 is
        on every path."""
        d = digraph_from_edges(n, edges)
        assert on_every_path(d, r, s) == want == self.brute_force(d, r, s)

    def test_agrees_with_brute_force(self):
        rng = random.Random(19)
        unreachable = 0
        for _ in range(1500):
            n = rng.randint(2, 9)
            p = rng.choice((0.15, 0.3, 0.5))
            d = digraph_from_edges(n, [(u, v) for u in range(n) for v in range(n)
                                       if u != v and rng.random() < p])
            r, s = rng.sample(range(n), 2)
            want = self.brute_force(d, r, s)
            assert on_every_path(d, r, s) == want, (sorted(d.edges), r, s)
            unreachable += want is None
        assert 100 <= unreachable <= 1400, unreachable


class TestMinorHavenAgreesWithTheWalks:
    """The six sweeps give the n + 1 walks' verdict on NO witnesses, as the
    recogniser gives them and with roots moved inside their branch sets.
    The 6,000-case corpus of `tests/test_games.py` checks both against the
    haven's table."""

    def test_random_no_witnesses(self):
        rng = random.Random(30)
        checked = moved_checked = moved_false = 0
        for _ in range(1000):
            n = rng.randint(3, 14)
            d = random_strongly_connected(rng, n, rng.choice((0.1, 0.2, 0.35)))
            cert = recognize_dtw1(d)
            if cert.verdict != "NO":
                continue
            branch = cert.witness.branch_sets
            roots = witness_roots(d, cert.witness)
            assert minor_haven_is_monotone(d, branch, roots)
            assert reference_minor_haven_is_monotone(d, branch, roots)
            checked += 1
            movable = [p for p in sorted(branch)[:3] if len(branch[p]) >= 2]
            if not movable:
                continue
            p = rng.choice(movable)
            moved = {**roots, p: rng.choice(sorted(branch[p] - {roots[p]}))}
            want = reference_minor_haven_is_monotone(d, branch, moved)
            assert minor_haven_is_monotone(d, branch, moved) == want, (
                sorted(d.edges), branch, moved)
            moved_checked += 1
            moved_false += not want
        # 649 NO answers, 648 with a root to move, 22 of them not monotone.
        assert checked >= 600 and moved_checked >= 600 and moved_false >= 10, (
            checked, moved_checked, moved_false)

    @pytest.mark.parametrize(
        "d",
        [*(bicycle(k) for k in range(3, 9)), a4_digraph(),
         *(tree_plus_triangle(random.Random(n), n) for n in (6, 9, 12))],
        ids=[*(f"bicycle{k}" for k in range(3, 9)), "a4",
             *(f"tree-plus-triangle{n}" for n in (6, 9, 12))],
    )
    def test_every_choice_of_the_three_least_roots(self, d):
        witness = recognize_dtw1(d).witness
        branch = witness.branch_sets
        roots = witness_roots(d, witness)
        least = sorted(branch)[:3]
        for chosen in itertools.product(*(sorted(branch[p]) for p in least)):
            moved = {**roots, **dict(zip(least, chosen))}
            assert minor_haven_is_monotone(d, branch, moved) == (
                reference_minor_haven_is_monotone(d, branch, moved)), moved


class BoundedWrites(list):
    """A list that fails its test on the write after the last of `budget`."""

    def __init__(self, items, budget):
        super().__init__(items)
        self.budget = budget

    def __setitem__(self, index, value):
        self.budget -= 1
        assert self.budget >= 0, "more writes than the budget"
        super().__setitem__(index, value)


class TestLinearChecks:
    """Checking a certificate costs no more than reading it, on shapes whose
    decompositions or scripts are as deep as the digraph."""

    def test_yes_adjacency_reads_stay_linear(self, monkeypatch):
        """A YES check reads each vertex's out- and in-list once at most,
        whatever the depth of the decomposition, for n = 8, 64 and 512: the
        tree shapes and a random tree (v joins a random earlier vertex),
        with one node per vertex and, up to 64, the recogniser's
        decomposition; and the tournament with its back path on the chain
        from n - 1 down to 0, whose arcs pass only on the edges entering
        each subtree.  A walk of each arc's subtree would read a path's
        vertices about n / 2 times each."""
        cases = []
        for n in (8, 64, 512):
            trees = [build(n) for build in TREE_SHAPES.values()]
            trees.append(bidirect(n, random_tree_edges(random.Random(n), n)))
            for d in trees:
                cases.append((d, tree_dtd(d)))
                if n <= 64:
                    cases.append((d, recognize_dtw1(d).decomposition))
            cases.append((tournament_with_back_path(n), tree_dtd(bidirected_path(n), n - 1)))
        reads = Counter()

        def counted(read):
            def counting(self, u):
                reads[u] += 1
                return read(self, u)
            return counting

        for name in ("out_neighbours", "in_neighbours"):
            monkeypatch.setattr(Digraph, name, counted(getattr(Digraph, name)))
        for d, dec in cases:
            reads.clear()
            report = verify_certificate(d, Dtw1Certificate("YES", dec, None))
            assert report.valid and report.width == 1
            assert max(reads.values()) <= 2, (d.n, reads.most_common(3))
            assert sum(reads.values()) <= 2 * d.n, (d.n, sum(reads.values()))

    def test_a_chain_of_contractions_relabels_one_vertex_per_merge(self):
        """Contracting a 16,384-vertex path onto either end merges a single
        vertex into the growing class at each step, so a smaller-into-larger
        merge relabels one vertex per contraction; relabelling the whole
        merged class would take about n^2 / 2 writes."""
        n = 16_384
        d = bidirected_path(n)
        for cut in (0, n - 1):
            steps = shore_contraction_script(_ReplayState(d), range(n), cut)
            state = _ReplayState(d)
            contractions = sum(kind == "contract" for kind, _, _ in steps)
            state.slot = BoundedWrites(state.slot, contractions)
            state.apply(steps)
            assert state.members == {0: set(range(n))}
            assert state.slot.budget == 0
