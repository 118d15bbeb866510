"""Tests for the certificate checker on its own: what importing it loads,
malformed NO certificates, which get a report rather than an exception,
the NO haven's sweeps against the walks they replaced, and the soundness
net: no rooted sets pass on a digraph of directed treewidth one."""

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
    RootedSets,
    minor_haven_is_monotone,
    on_every_path,
    validate_dtd,
    verify_certificate,
)
from dtwone.digraph import (
    Digraph,
    a4_digraph,
    bicycle,
    bidirect,
    digraph_from_edges,
    strong_component_of,
)
from dtwone.dtw1 import recognize_dtw1
from dtwone.suite import (
    TREE_SHAPES,
    bicycle_with_chord,
    bidirected_path,
    bidirected_star,
    labeled_strongly_connected,
    plus_triangle,
    strongly_connected_up_to_iso,
    tournament_with_back_path,
)
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


class TestMalformedRootedSets:
    """Each malformed field of `Bicycle(4)`'s rooted sets gives an invalid
    report that names it."""

    @staticmethod
    def report(**changes):
        d = bicycle(4)
        rooted = dataclasses.replace(recognize_dtw1(d).rooted_sets, **changes)
        return verify_certificate(d, Dtw1Certificate("NO", None, rooted))

    @staticmethod
    def sets(p, members):
        return {**recognize_dtw1(bicycle(4)).rooted_sets.sets, p: members}

    def expect(self, message, **changes):
        report = self.report(**changes)
        assert (report.valid, report.violations) == (False, (message,))

    def test_the_recogniser_s_rooted_sets_pass(self):
        rooted = recognize_dtw1(bicycle(4)).rooted_sets
        assert rooted == RootedSets("bicycle", 4, {p: frozenset({p}) for p in range(3)},
                                    {p: p for p in range(3)})
        assert self.report().valid

    @pytest.mark.parametrize("members", [{99}, {-1}, {1, 99}, {"1"}, {1.0}])
    def test_a_set_naming_an_unknown_vertex(self, members):
        self.expect("rooted set 1 names an unknown vertex", sets=self.sets(1, frozenset(members)))

    @pytest.mark.parametrize("members", [5, None])
    def test_a_set_that_is_not_a_collection(self, members):
        self.expect("rooted set 1 is not a set of vertices", sets=self.sets(1, members))

    def test_an_empty_set(self):
        self.expect("rooted set 2 is empty", sets=self.sets(2, frozenset()))

    @pytest.mark.parametrize("sets", [
        {0: frozenset({0}), 1: frozenset({1})},
        {**{p: frozenset({p}) for p in range(3)}, 3: frozenset({3})},
        {0: frozenset({0}), "1": frozenset({1}), 2: frozenset({2})},
    ], ids=["two", "four", "a-name-that-is-no-number"])
    def test_sets_not_numbered_0_1_and_2(self, sets):
        self.expect("a NO certificate needs three rooted sets, numbered 0, 1 and 2", sets=sets)

    def test_overlapping_sets(self):
        self.expect("rooted sets must be pairwise disjoint", sets=self.sets(2, frozenset({0, 2})))

    @pytest.mark.parametrize("root", [0, 3, "1", None])
    def test_a_root_outside_its_set(self, root):
        self.expect("rooted set 1 does not hold its root", roots={0: 0, 1: root, 2: 2})

    @pytest.mark.parametrize("length", ["4", 4.0])
    def test_a_length_that_is_not_an_integer(self, length):
        self.expect(f"bicycle witness length {length!r} is not an integer", length=length)

    @pytest.mark.parametrize("kind, length, message", [
        ("pentagon", None, "unknown pattern kind 'pentagon'"),
        ("bicycle", 2, "bicycle witnesses need a length of at least three"),
        ("bicycle", None, "bicycle witnesses need a length of at least three"),
        ("bicycle", 5, "the pattern has more vertices than the digraph"),
    ])
    def test_a_pattern_of_the_wrong_form(self, kind, length, message):
        self.expect(message, kind=kind, length=length)

    def test_a_missing_payload(self):
        report = verify_certificate(bicycle(4), Dtw1Certificate("NO", None, None))
        assert report.violations == ("a NO certificate needs three rooted sets",)


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
            branch, roots = cert.rooted_sets.sets, cert.rooted_sets.roots
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
        rooted = recognize_dtw1(d).rooted_sets
        branch, roots = rooted.sets, rooted.roots
        least = sorted(branch)[:3]
        for chosen in itertools.product(*(sorted(branch[p]) for p in least)):
            moved = {**roots, **dict(zip(least, chosen))}
            assert minor_haven_is_monotone(d, branch, moved) == (
                reference_minor_haven_is_monotone(d, branch, moved)), moved


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

    def test_no_adjacency_reads_stay_linear(self, monkeypatch):
        """A NO check reads each vertex's out-list at most 6 times and no
        in-list, at most 5n reads in all, for n = 8, 64 and 512:
        `Bicycle(n)` with and without the chord 0 -> n/2, and the bidirected
        path and star plus a triangle, with the recogniser's rooted sets.  The sets are read
        without the adjacency, and each of the six sweeps reads an out-list
        at most twice, once to find its path and once to grow its search;
        on these shapes the most is 6 (on the bicycle with its chord, 4.5n
        in all at n = 512).  A walk of d - y for each vertex y would read
        each about 2n times.  The recogniser is slow on the trees at 512
        vertices, so there the rooted sets are built as it gives them at 8
        and 64: the vertices each triangle vertex reaches without the other
        two."""
        cases = []
        for n in (8, 64, 512):
            for d in (bicycle(n), bicycle_with_chord(n)):
                cases.append((d, recognize_dtw1(d).rooted_sets))
            for build in (bidirected_path, bidirected_star):
                d, rooted = triangle_rooted_sets(build(n))
                if n <= 64:
                    assert recognize_dtw1(d).rooted_sets == rooted
                cases.append((d, rooted))
        reads = {name: Counter() for name in ("out_neighbours", "in_neighbours")}

        def counted(name):
            read = getattr(Digraph, name)

            def counting(self, u):
                reads[name][u] += 1
                return read(self, u)
            return counting

        for name in reads:
            monkeypatch.setattr(Digraph, name, counted(name))
        for d, rooted in cases:
            for counter in reads.values():
                counter.clear()
            assert verify_certificate(d, Dtw1Certificate("NO", None, rooted)).valid
            out = reads["out_neighbours"]
            assert not reads["in_neighbours"]
            assert max(out.values()) <= 6, (d.n, out.most_common(3))
            assert sum(out.values()) <= 5 * d.n, (d.n, sum(out.values()))


def triangle_rooted_sets(tree):
    """`suite.plus_triangle(tree)` for a bidirected tree, and its rooted
    sets: for each vertex t of the triangle, in increasing order, the
    vertices t reaches in the tree without the other two, rooted at t."""
    d = plus_triangle(tree)
    (a, c), _ = sorted(d.edges - tree.edges)
    (v,) = set(tree.out_neighbours(a)) & set(tree.out_neighbours(c))
    triangle = sorted((v, a, c))
    sets = {p: frozenset(_reach(tree, t, set(triangle) - {t})) for p, t in enumerate(triangle)}
    return d, RootedSets("bicycle", 3, sets, dict(enumerate(triangle)))


def rooted_triples(n):
    """Every choice of three disjoint, non-empty sets of range(n), numbered
    0, 1 and 2, each with a root in it."""
    for slots in itertools.product((None, 0, 1, 2), repeat=n):
        sets = [frozenset(v for v in range(n) if slots[v] == p) for p in range(3)]
        if all(sets):
            for roots in itertools.product(*map(sorted, sets)):
                yield dict(enumerate(sets)), dict(enumerate(roots))


def any_triples(n):
    """Every choice of three non-empty sets of range(n) and three roots in
    range(n), however they meet."""
    subsets = [frozenset(c) for k in range(1, n + 1) for c in itertools.combinations(range(n), k)]
    for sets in itertools.product(subsets, repeat=3):
        for roots in itertools.product(range(n), repeat=3):
            yield dict(enumerate(sets)), dict(enumerate(roots))


class TestSoundnessNet:
    """No three rooted sets pass on a digraph of directed treewidth one,
    since the order-3 haven they give would prove the width two or more.
    Each YES digraph of the labelled corpus on 2-4 vertices, and 96 of the
    1,981 YES classes on 5 vertices drawn by `random.Random(36)`, is
    offered every choice of three disjoint, non-empty sets, each with a
    root in it.  The YES digraphs on 3 vertices are also offered every
    choice of three non-empty sets and three roots however they meet, so
    that a check that left out disjointness or where the roots lie fails
    here too."""

    @staticmethod
    def accepted(d, offers):
        """How many of the offers pass on d, and how many were made."""
        passed = made = 0
        for sets, roots in offers:
            rooted = RootedSets("bicycle", 3, sets, roots)
            passed += verify_certificate(d, Dtw1Certificate("NO", None, rooted)).valid
            made += 1
        return passed, made

    def test_no_rooted_sets_pass_on_a_yes_digraph(self):
        yes = [d for n in (2, 3, 4) for d in labeled_strongly_connected(n)
               if recognize_dtw1(d).verdict == "YES"]
        assert len(yes) == 1 + 17 + 1174
        classes = strongly_connected_up_to_iso(5)
        drawn = (d for d in random.Random(36).sample(classes, len(classes))
                 if recognize_dtw1(d).verdict == "YES")
        yes += itertools.islice(drawn, 96)
        passed = made = 0
        for d in yes:
            p, m = self.accepted(d, rooted_triples(d.n))
            passed, made = passed + p, made + m
        assert (passed, made) == (0, 112_806 + 96 * 960)

    def test_no_malformed_offer_passes_on_a_small_yes_digraph(self):
        passed = made = 0
        for d in labeled_strongly_connected(3):
            if recognize_dtw1(d).verdict == "YES":
                p, m = self.accepted(d, any_triples(3))
                passed, made = passed + p, made + m
        assert (passed, made) == (0, 17 * 7 ** 3 * 3 ** 3)
