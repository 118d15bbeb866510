"""Tests for width-one recognition, its certificates, and the split tree."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import tracemalloc
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtwone.digraph import (
    Digraph,
    TightSeparation,
    a4_digraph,
    bicycle,
    bidirect,
    dense_digraph,
    digraph_from_edges,
    directed_cycle_digraph,
    is_strongly_2_connected,
    is_strongly_connected,
    mask_vertices,
    strong_components,
    tight_separations,
    vertex_bits,
)
from dtwone import check, cycles, digraph, dtw1, games, suite
from dtwone.check import Dtw1Certificate, RootedSets, validate_dtd, verify_certificate
from dtwone.dtw1 import (
    MinorWitness,
    extract_minor_witness,
    hypertree_route,
    recognize_dtw1,
    replay_script,
    s_decomposition,
    shore_contraction_script,
    verify_witness,
)
from dtwone.formats import (
    ParseError,
    digraph_hash,
    format_certificate,
    header_lines,
    parse_certificate,
    read_document,
)
from dtwone.games import solve_game
from dtwone.suite import (
    bicycle_with_chord,
    bidirected_path,
    bidirected_star,
    labeled_strongly_connected,
)
from test_digraph import (
    reference_is_directed_separation,
    reference_quotient,
    reference_separations_cross,
    random_strongly_connected,
    random_tree_edges,
    reference_tight_separations,
    separation_corpus,
    set_shores,
    tree_plus_triangle,
)
from test_golden import random_corpus


def digon():
    return digraph_from_edges(2, [(0, 1), (1, 0)])


class TestReplay:
    def test_deletion_then_contraction_tracks_classes(self):
        d = bidirected_path(3)
        state = replay_script(d, [("del", 0, 1), ("contract", 1, 0)])
        assert state.members[0] == frozenset({0, 1})
        assert state.edges == {(0, 2), (2, 0)}

    def test_steps_may_name_any_member_of_a_merged_class(self):
        d = bidirected_path(3)
        state = replay_script(d, [("contract", 1, 0), ("del", 1, 2)])
        assert state.rep(1) == 0
        assert state.edges == {(2, 0)}

    def test_deleting_a_missing_edge_raises(self):
        with pytest.raises(ValueError):
            replay_script(directed_cycle_digraph(3), [("del", 1, 0)])

    def test_contracting_a_non_contractible_edge_raises(self):
        d = bicycle(3)
        with pytest.raises(ValueError):
            replay_script(d, [("contract", 0, 1)])

    def test_step_joining_a_class_with_itself_raises(self):
        d = bidirected_path(3)
        with pytest.raises(ValueError):
            replay_script(d, [("contract", 1, 0), ("del", 0, 1)])

    def test_unknown_vertex_raises(self):
        with pytest.raises(ValueError):
            replay_script(digon(), [("del", 0, 5)])

    def test_unknown_step_kind_raises(self):
        with pytest.raises(ValueError):
            replay_script(digon(), [("shrink", 0, 1)])

    def test_a_chain_of_contractions_relabels_one_vertex_per_merge(self):
        """Contracting a 16,384-vertex path onto either end merges a single
        vertex into the growing class at each step, so a smaller-into-larger
        merge relabels one vertex per contraction; relabelling the whole
        merged class would take about n^2 / 2 writes."""
        n = 16_384
        d = bidirected_path(n)
        for cut in (0, n - 1):
            steps = shore_contraction_script(dtw1._ReplayState(d), range(n), cut)
            state = dtw1._ReplayState(d)
            contractions = sum(kind == "contract" for kind, _, _ in steps)
            state.slot = BoundedWrites(state.slot, contractions)
            state.apply(steps)
            assert state.members == {0: set(range(n))}
            assert state.slot.budget == 0


class BoundedWrites(list):
    """A list that fails its test on the write after the last of `budget`."""

    def __init__(self, items, budget):
        super().__init__(items)
        self.budget = budget

    def __setitem__(self, index, value):
        self.budget -= 1
        assert self.budget >= 0, "more writes than the budget"
        super().__setitem__(index, value)


class TestMalformedWitnesses:
    """Each malformed field of `Bicycle(4)`'s minor witness gives an invalid
    report from `verify_witness` that names it."""

    @staticmethod
    def report(**changes):
        d = bicycle(4)
        return verify_witness(d, dataclasses.replace(extract_minor_witness(d), **changes))

    @staticmethod
    def sets(p, members):
        return {**extract_minor_witness(bicycle(4)).branch_sets, p: members}

    def expect(self, message, **changes):
        report = self.report(**changes)
        assert (report.valid, report.violations) == (False, (message,))

    @pytest.mark.parametrize("branch_set", [{99}, {-1}, {0, 99}, {"0"}, {1.0}])
    def test_a_branch_set_naming_an_unknown_vertex(self, branch_set):
        self.expect("branch set 1 names an unknown vertex",
                    branch_sets=self.sets(1, frozenset(branch_set)))

    def test_branch_sets_keyed_by_a_name_that_is_not_a_pattern_vertex(self):
        sets = extract_minor_witness(bicycle(4)).branch_sets
        renamed = {("1" if p == 1 else p): cls for p, cls in sets.items()}
        self.expect("branch sets must cover the pattern's vertices", branch_sets=renamed)

    @pytest.mark.parametrize("length", ["4", 4.0])
    def test_a_length_that_is_not_an_integer(self, length):
        self.expect(f"bicycle witness length {length!r} is not an integer", length=length)

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
        self.expect(message, script=(step,))

    @pytest.mark.parametrize("branch_set", [5, None])
    def test_a_branch_set_that_is_not_a_collection(self, branch_set):
        self.expect("branch set 1 is not a set of vertices", branch_sets=self.sets(1, branch_set))

    @pytest.mark.parametrize("script", [None, 7])
    def test_a_script_that_is_not_a_sequence(self, script):
        self.expect(f"script {script!r} is not a sequence of steps", script=script)


class EdgeSetReplay:
    """The replay state before it kept an adjacency index: one edge set,
    scanned for every degree and rebuilt on every contraction.  `alive` holds
    the original edges no deletion has removed."""

    def __init__(self, d):
        self.base = d
        self.rep_of = list(range(d.n))
        self.members = {v: frozenset({v}) for v in range(d.n)}
        self.edges = set(d.edges)
        self.alive = set(d.edges)
        self.steps = []

    def apply(self, steps):
        for step in steps:
            kind, a, b = step
            if not (0 <= a < self.base.n and 0 <= b < self.base.n):
                raise ValueError(f"step {step} names an unknown vertex")
            ra, rb = self.rep_of[a], self.rep_of[b]
            if ra == rb:
                raise ValueError(f"step {step} joins a vertex with itself")
            if (ra, rb) not in self.edges:
                raise ValueError(f"step {step} needs the missing edge ({ra}, {rb})")
            if kind == "del":
                self.edges.discard((ra, rb))
                self.alive = {
                    (x, y) for (x, y) in self.alive
                    if (self.rep_of[x], self.rep_of[y]) != (ra, rb)
                }
            elif kind == "contract":
                out_degree = sum(1 for (x, _) in self.edges if x == ra)
                in_degree = sum(1 for (_, y) in self.edges if y == rb)
                if out_degree != 1 and in_degree != 1:
                    raise ValueError(
                        f"step {step}: edge ({ra}, {rb}) is not butterfly contractible"
                    )
                keep, gone = min(ra, rb), max(ra, rb)
                merged = self.members.pop(gone) | self.members[keep]
                self.members[keep] = merged
                for v in merged:
                    self.rep_of[v] = keep
                rename = lambda x: keep if x == gone else x
                self.edges = {
                    (rename(x), rename(y)) for (x, y) in self.edges if rename(x) != rename(y)
                }
            else:
                raise ValueError(f"unknown step kind {kind!r}")
            self.steps.append(step)

    def dense(self):
        labels = tuple(sorted(self.members))
        idx = {v: i for i, v in enumerate(labels)}
        es = frozenset((idx[a], idx[b]) for (a, b) in self.edges)
        return Digraph(len(labels), es), labels


def random_step(rng, ref):
    """A random step for the reference state: legal three times in four."""
    n = ref.base.n
    edges = sorted(ref.edges)
    if edges and rng.random() < 0.75:
        ra, rb = rng.choice(edges)
        a, b = rng.choice(sorted(ref.members[ra])), rng.choice(sorted(ref.members[rb]))
        contractible = (
            sum(1 for (x, _) in edges if x == ra) == 1
            or sum(1 for (_, y) in edges if y == rb) == 1
        )
        return ("contract" if contractible and rng.random() < 0.6 else "del", a, b)
    kind = rng.choice(("del", "contract", "contract", "shrink"))
    return (kind, rng.randrange(n + 1), rng.randrange(n))


def reach_inside(d, start, inside, forward=True):
    """Vertices of `inside` that start reaches (or that reach start) along
    edges of d within `inside`."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        step = d.out_neighbours(v) if forward else d.in_neighbours(v)
        for w in step:
            if w in inside and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def check_roots(state, alive):
    """Every class's root is reached from each vertex with a surviving edge
    entering the class and reaches each vertex with one leaving it, inside
    the class; so root(P) reaches root(Q) inside P ∪ Q for every edge."""
    d = state.base
    reached = {}
    for r, cls in state.members.items():
        root = state.root[r]
        assert root in cls
        reached[r] = (reach_inside(d, root, cls), reach_inside(d, root, cls, False))
    for (x, y) in alive:
        rx, ry = state.rep(x), state.rep(y)
        if rx != ry:
            assert x in reached[rx][0] and y in reached[ry][1], (sorted(d.edges), x, y)
    for (p, q) in state.edges:
        span = state.members[p] | state.members[q]
        assert state.root[q] in reach_inside(d, state.root[p], span)


class TestReplayDifferential:
    """The indexed replay state steps exactly like the edge-set one, and its
    class roots keep their invariant after every step."""

    @staticmethod
    def replay_both(d, steps):
        new, ref = dtw1._ReplayState(d), EdgeSetReplay(d)
        for step in steps:
            errors = []
            for state in (new, ref):
                try:
                    state.apply([step])
                    errors.append(None)
                except ValueError as err:
                    errors.append(str(err))
            assert errors[0] == errors[1], (sorted(d.edges), step)
            assert new.members == ref.members
            assert [new.rep(v) for v in range(d.n)] == ref.rep_of
            assert new.edges == ref.edges
            assert new.steps == ref.steps
            assert dense_digraph(new.out) == ref.dense()
            check_roots(new, ref.alive)
        return new

    def test_random_scripts(self):
        rng = random.Random(404)
        illegal = 0
        for _ in range(150):
            d = random_strongly_connected(rng, rng.randint(2, 8), rng.choice((0.1, 0.3, 0.5)))
            ref = EdgeSetReplay(d)
            steps = []
            while ref.edges and len(steps) < 40:
                step = random_step(rng, ref)
                try:
                    ref.apply([step])
                except ValueError:
                    illegal += 1
                steps.append(step)
            self.replay_both(d, steps)
        assert illegal >= 100

    def test_witness_scripts_of_the_pattern_search_corpus(self):
        replayed = steps = 0
        for d in pattern_search_corpus():
            try:
                w = extract_minor_witness(d)
            except ValueError:
                continue
            assert self.replay_both(d, w.script).steps == list(w.script)
            replayed += 1
            steps += len(w.script)
        assert replayed >= 450 and steps >= 1000, (replayed, steps)


def shore_script(d, shore, cut):
    """`shore_contraction_script` on a fresh replay state of d, whose
    representatives are d's own vertices."""
    return shore_contraction_script(dtw1._ReplayState(d), shore, cut)


class TestShoreContraction:
    def test_two_vertex_shore_is_one_contraction(self):
        d = bidirected_path(3)
        steps = shore_script(d, {1, 2}, 1)
        state = replay_script(d, steps)
        assert len(state.members) == 2
        assert state.members[state.rep(2)] == frozenset({1, 2})

    def test_shore_sending_out_gets_an_out_branching(self):
        d = directed_cycle_digraph(3)
        assert shore_script(d, {0, 1}, 0) == [("contract", 0, 1)]

    def test_shore_receiving_gets_an_in_branching(self):
        d = directed_cycle_digraph(3)
        assert shore_script(d, {0, 2}, 0) == [("contract", 2, 0)]

    def test_non_branching_edges_are_deleted_first(self):
        d = bidirected_path(4)
        steps = shore_script(d, {1, 2, 3}, 1)
        assert steps == [
            ("del", 1, 2),
            ("del", 2, 3),
            ("contract", 3, 2),
            ("contract", 2, 1),
        ]
        state = replay_script(d, steps)
        assert state.members[state.rep(3)] == frozenset({1, 2, 3})

    def test_trivial_shore_is_empty(self):
        assert shore_script(digon(), {0}, 0) == []

    def test_shores_are_named_by_representatives(self):
        # With 3 -> 2 contracted, the class {2, 3} is named 2: the shore
        # {1, 2} of what is left, the bidirected path 0 1 2, is one
        # deletion and one contraction.
        d = bidirected_path(4)
        state = replay_script(d, [("del", 2, 3), ("contract", 3, 2)])
        steps = shore_contraction_script(state, {1, 2}, 1)
        assert steps == [("del", 1, 2), ("contract", 2, 1)]
        state.apply(steps)
        assert state.members[1] == frozenset({1, 2, 3})

    # Each shore check names the state's input digraph, not the digraph
    # the state holds after its steps.
    def test_a_cut_off_its_shore_names_the_digraph(self):
        d = bidirected_path(4)
        state = replay_script(d, [("del", 2, 3)])
        with pytest.raises(AssertionError, match="cut vertex must lie on its shore") as err:
            shore_contraction_script(state, {1, 2}, 0)
        assert named_digraph(err.value) == d

    def test_a_shore_leaking_both_ways_names_the_digraph(self):
        d = bicycle(4)
        state = replay_script(d, [("del", 2, 3)])
        with pytest.raises(AssertionError, match="leaks in both directions") as err:
            shore_contraction_script(state, {0, 1}, 0)
        assert named_digraph(err.value) == d

    def test_a_shore_cut_off_from_its_cut_names_the_digraph(self):
        # With 3 -> 0 deleted, 2 and 3 only receive from outside the shore
        # {0, 2, 3}, and its cut 0 has no in-neighbour among them.
        d = digraph_from_edges(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 0)])
        state = replay_script(d, [("del", 3, 0)])
        with pytest.raises(AssertionError, match="not connected through its cut") as err:
            shore_contraction_script(state, {0, 2, 3}, 0)
        assert named_digraph(err.value) == d


class TestExtractMinorWitness:
    def test_bidirected_triangle_is_already_a_bicycle(self):
        w = extract_minor_witness(bicycle(3))
        assert (w.kind, w.length, w.script) == ("bicycle", 3, ())
        assert w.branch_sets == {0: frozenset({0}), 1: frozenset({1}), 2: frozenset({2})}

    def test_a4_is_terminal(self):
        w = extract_minor_witness(a4_digraph())
        assert (w.kind, w.length, w.script) == ("a4", None, ())
        assert verify_witness(a4_digraph(), w).valid

    @pytest.mark.parametrize("length", [4, 5, 6])
    def test_bidirected_cycles_are_terminal(self, length):
        w = extract_minor_witness(bicycle(length))
        assert (w.kind, w.length, w.script) == ("bicycle", length, ())

    def test_witness_pattern_matches_kind(self):
        for d, kind, length in ((bicycle(4), "bicycle", 4), (a4_digraph(), "a4", None)):
            w = extract_minor_witness(d)
            assert (w.kind, w.length) == (kind, length)
            assert verify_witness(d, w).valid

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            extract_minor_witness(digon())

    def test_not_strongly_connected_raises(self):
        with pytest.raises(ValueError):
            extract_minor_witness(digraph_from_edges(3, [(0, 1), (1, 0), (1, 2)]))

    def test_width_one_digraph_raises(self):
        for d in (directed_cycle_digraph(3), bidirected_path(5)):
            assert recognize_dtw1(d).verdict == "YES"
            with pytest.raises(ValueError):
                extract_minor_witness(d)

    def test_eight_vertex_regression_extracts_a_replayable_witness(self):
        edges = [
            (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 0), (1, 4),
            (1, 7), (2, 0), (2, 1), (2, 7), (3, 0), (3, 2), (3, 5), (3, 7),
            (4, 0), (4, 1), (4, 3), (4, 5), (5, 0), (5, 1), (5, 2), (5, 6),
            (5, 7), (6, 1), (6, 2), (7, 1), (7, 3), (7, 4), (7, 5),
        ]
        d = Digraph(8, frozenset(edges))
        w = extract_minor_witness(d)
        assert w.kind == "bicycle"
        assert verify_witness(d, w).valid

    def test_random_instances_extract_without_the_search_fallback(self):
        rng = random.Random(2718)
        seen = 0
        while seen < 30:
            n = rng.choice([4, 5, 6, 7, 8])
            d = random_strongly_connected(rng, n, rng.choice([0.2, 0.4, 0.6]))
            if hypertree_route(d).is_hypertree:
                continue
            seen += 1
            w = extract_minor_witness(d)
            report = verify_witness(d, w)
            assert report.valid, report.violations

    def test_a_digraph_no_step_fits_fails_with_its_edge_list(self):
        """Every deletion from the bidirected triangle leaves a width-one
        digraph; the assertion names the digraph so that it can be replayed."""
        with pytest.raises(AssertionError, match="no deletion leaves") as err:
            dtw1._no_step(bicycle(3))
        assert named_digraph(err.value) == bicycle(3)


def named_digraph(error):
    """The digraph an assertion message names by the edge list after its
    last colon."""
    listed = str(error).rsplit(": ", 1)[1]
    pairs = [tuple(map(int, pair.split())) for pair in listed.split(", ")]
    return digraph_from_edges(1 + max(map(max, pairs)), pairs)


def reference_a4_embedding(d):
    """The first permutation of range(4) under which every edge of A4 is an
    edge of d, when d has four vertices and as many edges as A4."""
    target = a4_digraph()
    if d.n != 4 or len(d.edges) != len(target.edges):
        return None
    for perm in itertools.permutations(range(4)):
        if all((perm[a], perm[b]) in d.edges for (a, b) in target.edges):
            return perm
    return None


def random_two_regular(rng, n):
    """A digraph where every vertex has in-degree 2 and out-degree 2."""
    while True:
        first = list(range(n))
        second = list(range(n))
        rng.shuffle(first)
        rng.shuffle(second)
        if all(v not in (first[v], second[v]) and first[v] != second[v] for v in range(n)):
            return Digraph(n, frozenset((v, w) for v in range(n) for w in (first[v], second[v])))


def pattern_search_corpus():
    for n in (2, 3, 4):
        yield from labeled_strongly_connected(n)
    rng = random.Random(1910)
    for i in range(40):
        n = 5 + i % 4
        p = (0.2, 0.35, 0.5)[i % 3]
        yield Digraph(
            n, frozenset((a, b) for a in range(n) for b in range(n) if a != b and rng.random() < p)
        )
        yield random_two_regular(rng, n)
    for length in (5, 6, 7, 8):
        yield bicycle(length)


class TestPatternSearch:
    """The pattern test agrees with a permutation scan written apart from it."""

    def test_a4_search_matches_the_permutation_scan(self):
        pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
        hits = 0
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            d = Digraph(4, frozenset(p for p, b in zip(pairs, bits) if b))
            expected = reference_a4_embedding(d)
            found = dtw1._pattern(d)
            got = found[2] if found is not None and found[0] == "a4" else None
            assert got == expected, sorted(d.edges)
            hits += expected is not None
        assert hits == 6

    def test_bicycle_64_extracts_its_full_length_witness(self):
        d = bicycle(64)
        w = extract_minor_witness(d)
        assert (w.kind, w.length) == ("bicycle", 64)
        assert verify_witness(d, w).valid


def reference_pattern(d):
    """The pattern a round ends on, found by the walk and the permutation scan."""
    walk = dtw1._bicycle_walk(d)
    if walk is not None:
        return ("bicycle", d.n, walk)
    emb = reference_a4_embedding(d)
    return None if emb is None else ("a4", None, emb)


def reference_no_step(d):
    """The step the NO loop must take on d, or None: the first edge in sorted
    order whose deletion or, failing that, contraction leaves a strongly
    connected digraph on three or more vertices that the hypertree route
    calls NO.  Each step is applied by a replay.  The program tries
    deletions alone and skips both tests: on the strongly 2-connected
    digraphs the loop hands it, no edge is contractible and every deletion
    passes both."""
    for (a, b) in d.sorted_edges():
        for kind in ("del", "contract"):
            try:
                trial, _ = dense_digraph(replay_script(d, [(kind, a, b)]).out)
            except ValueError:
                continue
            if (trial.n >= 3 and is_strongly_connected(trial)
                    and not hypertree_route(trial).is_hypertree):
                return (kind, a, b)
    return None


class TestNoStepReference:
    """Every round of the NO loop ends on the pattern the reference finds or,
    short of one, takes the step `reference_no_step` takes."""

    @staticmethod
    def round_inputs(monkeypatch, run, corpus):
        """Every collapsed digraph the NO loop holds while `run` goes over the
        corpus: each is tested for a pattern first."""
        seen = []
        original = dtw1._pattern

        def recording(d):
            seen.append(d)
            return original(d)

        monkeypatch.setattr(dtw1, "_pattern", recording)
        for d in corpus:
            try:
                run(d)
            except ValueError:
                pass
        monkeypatch.undo()
        return seen

    @staticmethod
    def check_rounds(rounds):
        """The number of rounds that take a step."""
        steps = 0
        for d in rounds:
            found = dtw1._pattern(d)
            assert found == reference_pattern(d), sorted(d.edges)
            if found is not None:
                continue
            assert is_strongly_2_connected(d), sorted(d.edges)
            edge, trial, sdec = dtw1._no_step(d)
            assert ("del", *edge) == reference_no_step(d), sorted(d.edges)
            assert trial == dense_digraph(replay_script(d, [("del", *edge)]).out)[0]
            assert sdec == s_decomposition(trial)
            steps += 1
        return steps

    def test_pattern_search_corpus(self, monkeypatch):
        rounds = self.round_inputs(monkeypatch, extract_minor_witness, pattern_search_corpus())
        steps = self.check_rounds(rounds)
        assert len(rounds) >= 650 and steps >= 200, (len(rounds), steps)

    def test_random_corpus(self, monkeypatch):
        rounds = self.round_inputs(monkeypatch, recognize_dtw1, random_corpus())
        steps = self.check_rounds(rounds)
        assert len(rounds) >= 600 and steps >= 450, (len(rounds), steps)


def reference_collapse(state, sdec, whole, labels):
    """`_collapse` in two label spaces: the state's digraph is rebuilt
    densely for every far shore, each shore is scripted on a fresh replay
    of that rebuild, and its steps are mapped back to representatives.
    The digraph the loop hands over must be the state's own."""
    assert (whole, labels) == dense_digraph(state.out)
    node = min(t for t, territory in enumerate(sdec.territories) if len(territory) >= 3)
    attachments = sorted_attachments(node_attachments(sdec, node))
    expected, expect_labels = reference_collapse_piece(whole, sdec.territories[node], attachments)
    start = labels
    for (cut, far, _) in attachments:
        dense, labels = dense_digraph(state.out)
        back = {v: i for i, v in enumerate(labels)}
        shore = frozenset(back[state.rep(start[u])] for u in far)
        steps = shore_script(dense, shore, back[state.rep(start[cut])])
        state.apply([(kind, labels[a], labels[b]) for (kind, a, b) in steps])
    projected = frozenset(
        (state.rep(start[expect_labels[a]]), state.rep(start[expect_labels[b]]))
        for (a, b) in expected.edges
    )
    assert projected == state.edges and len(state.members) == expected.n
    return dense_digraph(state.out)


class TestCollapseReference:
    """The NO loop in the state's own labels gives the certificates the
    per-shore dense rebuild gives, and rebuilds only after a contraction."""

    def test_certificates_match_the_reference_collapse(self, monkeypatch):
        rng = random.Random(2026)
        corpus = [
            random_strongly_connected(rng, rng.randint(4, 12), rng.choice((0.15, 0.25, 0.4)))
            for _ in range(150)
        ]
        corpus += [tree_plus_triangle(rng, n) for n in (3, 5, 8, 13, 21, 34)]
        def answers(d):
            cert = recognize_dtw1(d)
            return cert, extract_minor_witness(d) if cert.verdict == "NO" else None

        got = [answers(d) for d in corpus]
        monkeypatch.setattr(dtw1, "_collapse", reference_collapse)
        for d, answer in zip(corpus, got):
            # Equal certificates and minors: the same rooted sets, and the
            # same witness script and branch sets.
            assert answer == answers(d), sorted(d.edges)
        # Recorded: 113 NO answers, 1,752 script steps.
        witnesses = [w for _, w in got if w is not None]
        steps = sum(len(w.script) for w in witnesses)
        assert len(witnesses) >= 110 and steps >= 1_700, (len(witnesses), steps)

    @pytest.mark.parametrize("which, expected", [("bicycle", 0), ("dense", 32)])
    def test_dense_calls_of_a_recognition(self, monkeypatch, which, expected):
        # The `dense_digraph` calls `_collapse` makes.  Bicycle(22) is one
        # piece and a pattern: no far shore, no rebuild.  The 40-vertex dense
        # draw rebuilds once per round that contracts a far shore; it took
        # 345 when every far shore and every round rebuilt the digraph.
        if which == "bicycle":
            d = bicycle(22)
        else:
            rng = random.Random(5)
            d = [suite.random_strongly_connected(rng, n, 0.15) for n in (20, 30, 40)][-1]
        calls = 0
        collapsing = False
        original_collapse, original_dense = dtw1._collapse, dtw1.dense_digraph

        def collapse(*args):
            nonlocal collapsing
            collapsing = True
            try:
                return original_collapse(*args)
            finally:
                collapsing = False

        def counted(out):
            nonlocal calls
            if collapsing:
                calls += 1
            return original_dense(out)

        monkeypatch.setattr(dtw1, "_collapse", collapse)
        monkeypatch.setattr(dtw1, "dense_digraph", counted)
        assert recognize_dtw1(d).verdict == "NO"
        assert calls == expected

    def test_a_round_that_contracts_nothing_is_not_checked_again(self, monkeypatch):
        # `_holds` checks the state after each step, and in `_collapse` only
        # after a far shore was contracted: a round with nothing to contract
        # holds the digraph the step's check has just compared, and the
        # first round holds the input.  The 20-vertex dense draw makes 29
        # calls; it made 35 when `_collapse` checked every round.
        rng = random.Random(5)
        d = [suite.random_strongly_connected(rng, n, 0.15) for n in (12, 20)][-1]
        calls = 0
        original = dtw1._holds

        def counted(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(dtw1, "_holds", counted)
        assert recognize_dtw1(d).verdict == "NO"
        assert calls == 29

    def test_a_tree_plus_a_triangle_builds_two_digraphs(self, monkeypatch):
        # The triangle is the one piece of three vertices.  Its s-decomposition
        # builds it once, and the NO loop numbers the state densely once after
        # contracting its far shores.  It took 3 when the recogniser checked
        # its minor by replay, which builds the pattern, and 5 when the loop
        # also rebuilt the piece from the whole digraph to check the state
        # against, and rebuilt the state through a digraph of every input
        # vertex.
        d = tree_plus_triangle(random.Random(7), 12)
        calls = 0
        original = Digraph.__post_init__

        def counted(self):
            nonlocal calls
            calls += 1
            original(self)

        monkeypatch.setattr(Digraph, "__post_init__", counted)
        cert = recognize_dtw1(d)
        assert (cert.verdict, cert.rooted_sets.kind, cert.rooted_sets.length) == ("NO", "bicycle", 3)
        assert calls == 2


def brute_tight_separations(d):
    """Every non-trivial one-cut directed separation, in both orientations."""
    found = []
    verts = set(range(d.n))
    for v in range(d.n):
        others = sorted(verts - {v})
        for r in range(1, len(others)):
            for inner in itertools.combinations(others, r):
                shore_a = frozenset(inner) | {v}
                shore_b = frozenset(verts - set(inner))
                if len(shore_b) < 2:
                    continue
                if not any(
                    a in (shore_b - shore_a) and b in (shore_a - shore_b)
                    for (a, b) in d.edges
                ):
                    found.append(TightSeparation(shore_a, shore_b))
    return found


def sorted_attachments(attachments):
    """Far shores in the order the NO loop contracts them: by cut vertex,
    then by sorted far shore."""
    return sorted(attachments, key=lambda t: (t[0], tuple(sorted(t[1]))))


def without_edges(attachments):
    """(cut vertex, far shore, far is an A-shore) triples: attachments in
    the form `_attachments` gives, without their tree-edge indices."""
    return [(cut, far, far_is_a) for (cut, far, far_is_a, _) in attachments]


def node_attachments(s, t):
    """Node t's far shores in s, as `without_edges` triples."""
    return without_edges(dtw1._attachments(s, t))


def tree_separations(territories, tree_edges):
    """Each tree edge's separation, in the order of the edges: its shores
    are the unions of the territories on the two sides of the edge, the
    A-shore on its A-side node's side, each read by its own walk of the
    tree."""
    nbrs = [[] for _ in territories]
    for (a, b, _) in tree_edges:
        nbrs[a].append(b)
        nbrs[b].append(a)

    def side(start, beyond):
        seen, stack = {start}, [start]
        while stack:
            for u in nbrs[stack.pop()]:
                if u not in seen and u != beyond:
                    seen.add(u)
                    stack.append(u)
        return frozenset().union(*(territories[t] for t in seen))

    return [TightSeparation(side(a, b), side(b, a)) for (a, b, _) in tree_edges]


def reference_collapse_piece(d, territory, attachments):
    """A piece with every far shore contracted onto its cut vertex, as
    (`reference_quotient`, labels), after checking that the far shores
    meet the piece only in their cuts, overlap nowhere else and, with the
    piece, cover d."""
    label_of = {v: v for v in territory}
    for (cut, far, _) in attachments:
        assert far & territory == {cut}, "far shore must meet the piece in its cut"
        for u in far - {cut}:
            assert label_of.get(u, cut) == cut, "far shores overlap beyond their cuts"
            label_of[u] = cut
    assert len(label_of) == d.n, "piece and far shores must cover the digraph"
    return reference_quotient(d, label_of)


def collapsed_pieces(d, s):
    """Each node's piece with every far shore contracted onto its cut vertex."""
    return [
        reference_collapse_piece(d, territory, node_attachments(s, t))[0]
        for t, territory in enumerate(s.territories)
    ]


class TestSDecomposition:
    def test_digon_is_a_single_node(self):
        s = s_decomposition(digon())
        assert s.territories == (frozenset({0, 1}),)
        assert s.tree_edges == ()
        assert s.edges == ()

    def test_bidirected_path_splits_at_its_middle_vertex(self):
        s = s_decomposition(bidirected_path(3))
        assert sorted(sorted(t) for t in s.territories) == [[0, 1], [1, 2]]
        ((a, b, cut),) = s.tree_edges
        (sep,) = tree_separations(s.territories, s.tree_edges)
        assert cut == 1
        assert {sep.shoreA, sep.shoreB} == {frozenset({0, 1}), frozenset({1, 2})}
        assert s.territories[a] <= sep.shoreA and s.territories[b] <= sep.shoreB
        assert s.edges == ((0, 1),)

    def test_bidirected_triangle_stays_whole(self):
        d = bicycle(3)
        s = s_decomposition(d)
        assert s.territories == (frozenset(range(3)),)
        (piece,) = collapsed_pieces(d, s)
        assert piece.edges == d.edges

    def test_directed_triangle_splits_into_two_digons(self):
        d = directed_cycle_digraph(3)
        s = s_decomposition(d)
        assert sorted(sorted(t) for t in s.territories) == [[0, 1], [0, 2]]
        for piece in collapsed_pieces(d, s):
            assert piece.n == 2

    def test_bidirected_star_splits_into_leaf_digons(self):
        star = bidirect(4, [(0, 3), (1, 3), (2, 3)])
        s = s_decomposition(star)
        assert sorted(sorted(t) for t in s.territories) == [
            [0, 3], [1, 3], [2, 3],
        ]
        assert len(s.edges) == 2

    def test_single_vertex_raises(self):
        with pytest.raises(ValueError):
            s_decomposition(Digraph(1, frozenset()))

    def test_not_strongly_connected_raises(self):
        # `is_strongly_2_connected` holds on every two-vertex digraph, so
        # it cannot stand in for strong connectivity there.
        for d in (digraph_from_edges(2, [(0, 1)]), Digraph(2, frozenset()),
                  digraph_from_edges(3, [(0, 1), (1, 0), (1, 2)])):
            with pytest.raises(ValueError, match="need a strongly connected digraph"):
                s_decomposition(d)

    def test_tree_shape_and_shore_consistency(self):
        rng = random.Random(91)
        split = 0
        for _ in range(40):
            d = random_strongly_connected(rng, rng.choice([4, 5, 6]), 0.3)
            s = s_decomposition(d)
            everything = frozenset(range(d.n))
            assert len(s.edges) == len(s.territories) - 1
            assert len(s.edges) == len(set(s.edges))
            assert frozenset().union(*s.territories) == everything
            seps = tree_separations(s.territories, s.tree_edges)
            for (a, b, cut), sep in zip(s.tree_edges, seps):
                assert sep.shoreA | sep.shoreB == everything
                assert sep.shoreA & sep.shoreB == {cut}
                assert s.territories[a] <= sep.shoreA and s.territories[b] <= sep.shoreB
            for t, territory in enumerate(s.territories):
                covered = set(territory)
                for (cut, far, far_is_a, e) in dtw1._attachments(s, t):
                    assert far & territory == {cut}
                    assert far == (seps[e].shoreA if far_is_a else seps[e].shoreB)
                    covered |= far
                assert covered == everything
            split += len(s.edges) >= 2
        assert split >= 5, split

    @pytest.mark.parametrize("which", ["path", "star", "random tree"])
    def test_tree_edges_are_cut_triples_of_linear_size(self, which):
        # Each split is kept once, as its two nodes and its cut vertex, and
        # the cut lies in both end territories.  Each split adds one vertex
        # to the territories, so they hold n + E vertices for E tree edges,
        # and with three ints per edge the record holds n + 4E < 5n: on the
        # path and the star, E = n - 2 and it is 5n - 8.  Both lifted shores
        # of every edge, which the tree edges once kept, held n + 1.  The
        # path and the star run at n = 128: their splits re-key about n^2
        # entries (ROADMAP item 20), and n = 512 takes 40 s.
        if which == "random tree":
            n = 512
            d = bidirect(n, random_tree_edges(random.Random(n), n))
        else:
            n = 128
            d = {"path": bidirected_path, "star": bidirected_star}[which](n)
        s = s_decomposition(d)
        assert len(s.tree_edges) == n - 2
        for edge in s.tree_edges:
            assert len(edge) == 3 and all(type(x) is int for x in edge), edge
            a, b, cut = edge
            assert cut in s.territories[a] and cut in s.territories[b], edge
        sizes = sum(map(len, s.territories))
        assert sizes == n + len(s.tree_edges)
        assert sizes + 3 * len(s.tree_edges) <= 5 * n

    def test_every_piece_is_strongly_2_connected(self):
        rng = random.Random(92)
        for _ in range(40):
            d = random_strongly_connected(rng, rng.choice([4, 5, 6]), 0.4)
            s = s_decomposition(d)
            for territory, piece in zip(s.territories, collapsed_pieces(d, s)):
                assert is_strongly_2_connected(piece)
                assert len(territory) >= 2

    def test_each_node_keeps_its_reference_collapsed_piece(self):
        # Every node of three or more vertices keeps the collapsed piece its
        # search built, numbered by sorted territory; a strongly 2-connected
        # digraph keeps itself, and a two-vertex node keeps None.
        rng = random.Random(96)
        corpus = [d for d in separation_corpus() if d.n >= 2]
        corpus += [
            random_strongly_connected(rng, rng.randint(3, 12), rng.choice([0.05, 0.1, 0.2, 0.4]))
            for _ in range(200)
        ]
        kept = whole = digons = 0
        for d in corpus:
            s = s_decomposition(d)
            assert len(s.collapsed) == len(s.territories)
            if len(s.territories) == 1 and d.n >= 3:
                assert s.collapsed[0] is d
                whole += 1
            for t, territory in enumerate(s.territories):
                if len(territory) == 2:
                    assert s.collapsed[t] is None, (sorted(d.edges), t)
                    digons += 1
                    continue
                expected, labels = reference_collapse_piece(d, territory, node_attachments(s, t))
                assert labels == tuple(sorted(territory))
                assert s.collapsed[t] == expected, (sorted(d.edges), t)
                kept += 1
        # Recorded: 618 pieces of three or more vertices, 146 of them a whole
        # strongly 2-connected digraph, and 6,272 two-vertex nodes.
        assert kept >= 600 and whole >= 140 and digons >= 6_000, (kept, whole, digons)

    def test_each_finished_piece_is_checked_where_it_was_collapsed(self, monkeypatch):
        # The strong 2-connectivity test sees the root digraph once, where
        # it decides whether d is one piece, then the collapsed piece of
        # every finished piece of three or more vertices exactly once, and
        # nothing else.  A strongly 2-connected root is its own finished
        # piece and is seen once.  A two-vertex piece is never built; it is
        # a digon, strongly 2-connected as it stands.
        seen = []

        def recording(piece):
            seen.append(piece)
            return is_strongly_2_connected(piece)

        monkeypatch.setattr(dtw1, "is_strongly_2_connected", recording)
        rng = random.Random(95)
        corpus = [random_strongly_connected(rng, rng.choice([4, 5, 6]), 0.4) for _ in range(20)]
        corpus += [bidirect(n := rng.randint(2, 20), random_tree_edges(rng, n)) for _ in range(5)]
        built = skipped = 0
        for d in corpus:
            seen.clear()
            s = s_decomposition(d)
            checked = []
            for territory, piece in zip(s.territories, collapsed_pieces(d, s)):
                if len(territory) >= 3:
                    checked.append(piece)
                    continue
                assert len(territory) == 2 and is_strongly_2_connected(piece)
                skipped += 1
            if s.tree_edges:
                assert seen[0] == d
                assert sorted(seen[1:], key=repr) == sorted(checked, key=repr)
            else:
                assert seen == [d]
            built += len(checked)
        # 15 pieces of three or more vertices, 93 of two.
        assert built >= 15 and skipped >= 90, (built, skipped)

    def test_a_piece_that_is_not_strongly_2_connected_names_the_digraph(self, monkeypatch):
        # Told that nothing is strongly 2-connected, the search of the
        # bidirected 4-cycle finds no candidate and fails on its root.
        monkeypatch.setattr(dtw1, "is_strongly_2_connected", lambda d: False)
        with pytest.raises(AssertionError, match="finished piece") as err:
            s_decomposition(bicycle(4))
        assert named_digraph(err.value) == bicycle(4)

    def test_a_crossing_family_names_the_digraph(self, monkeypatch):
        # The bidirected star on 4 vertices splits into three digons whose
        # two tree edges share the cut 0.  With the first edge reoriented,
        # the two point at or away from each other and cross.
        d = bidirect(4, [(0, 1), (0, 2), (0, 3)])
        laminar = dtw1._laminar

        def reoriented(d, territories, tree_edges):
            ai, bi, cut = tree_edges[0]
            flipped = [(bi, ai, cut), *tree_edges[1:]]
            assert not reference_pairwise_laminar(territories, flipped)
            return laminar(d, territories, flipped)

        monkeypatch.setattr(dtw1, "_laminar", reoriented)
        with pytest.raises(AssertionError, match="pairwise laminar") as err:
            s_decomposition(d)
        assert named_digraph(err.value) == d

    @pytest.mark.parametrize("edges, rule", [
        # Every far shore whose cut lies in the first shore lifted onto the
        # A-shore, also one at the separation's vertex that its own split
        # made a B-shore: the 4-cycle with a chord.
        ([(0, 1), (1, 2), (2, 3), (3, 0), (3, 1)],
         lambda cut, far_is_a, first, v: bool(first & cut)),
        # A far shore at the separation's vertex lifted onto the side of the
        # other role than its own split gave it: the bidirected K_{1,3}.
        ([(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)],
         lambda cut, far_is_a, first, v: bool(first & cut) and (not far_is_a or cut != v)),
    ], ids=["every-cut-in-first", "role-flipped-at-the-cut"])
    def test_a_far_shore_lifted_onto_the_wrong_side_names_the_digraph(
        self, monkeypatch, edges, rule
    ):
        # Keys and lifts agree, so only the end check of the family sees it.
        # cut and v are vertex bits and first a mask (`vertex_bits`).
        def wrong_side(attachment, first, v):
            cut, _, far_is_a, _ = attachment
            return rule(cut, far_is_a, first, v)

        monkeypatch.setattr(dtw1, "_lifts_onto_a", wrong_side)
        d = digraph_from_edges(4, edges)
        with pytest.raises(AssertionError, match="pairwise laminar") as err:
            s_decomposition(d)
        assert named_digraph(err.value) == d

    def test_wrong_side_lifts_of_a_corpus_are_caught_by_the_end_check(self, monkeypatch):
        # Three rules that lift some far shore onto the wrong side, on 270
        # seeded inputs.  The end check is the only check of the family:
        # each input it catches must end in its assertion, naming d, and
        # the number caught per rule is pinned.
        rng = random.Random(35)
        corpus = []
        for _ in range(90):
            n = rng.randint(4, 30)
            corpus.append(bidirect(n, random_tree_edges(rng, n)))
        corpus += [tree_plus_triangle(rng, rng.randint(4, 30)) for _ in range(90)]
        for _ in range(90):
            n = rng.randint(4, 12)
            corpus.append(suite.random_strongly_connected(rng, n, rng.choice([0.2, 0.3])))
        rules = [
            (lambda cut, far_is_a, first, v: bool(first & cut), 180),
            (lambda cut, far_is_a, first, v: bool(first & cut) and cut != v, 35),
            (lambda cut, far_is_a, first, v: bool(first & cut) and (not far_is_a or cut != v), 191),
        ]
        for rule, recorded in rules:
            monkeypatch.setattr(
                dtw1, "_lifts_onto_a",
                lambda attachment, first, v, rule=rule: rule(
                    attachment[0], attachment[2], first, v
                ),
            )
            caught = 0
            for d in corpus:
                try:
                    s_decomposition(d)
                except AssertionError as err:
                    assert "pairwise laminar" in str(err) and named_digraph(err) == d
                    caught += 1
            assert caught == recorded

    def test_a_key_that_is_not_its_lift_names_the_digraph(self, monkeypatch):
        # Every candidate keyed by its A-shore mirrored, each vertex u read
        # as n - 1 - u: the least key is not the winner's lifted A-shore.
        original = dtw1._entry

        def mirrored(piece, *args):
            entry = original(piece, *args)
            if entry.key is None:
                return entry
            n = len(piece.bit)
            lifted = mask_vertices(n, entry.key & piece.ones)
            shore = mask_of(piece.bit, (n - 1 - u for u in lifted))
            return entry._replace(key=dtw1._sorted_order_key(piece.ones, shore))

        monkeypatch.setattr(dtw1, "_entry", mirrored)
        d = bidirect(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(AssertionError, match="key must be its lifted separation") as err:
            s_decomposition(d)
        assert named_digraph(err.value) == d

    def test_a_collapse_that_misses_its_piece_names_the_digraph(self, monkeypatch):
        # The bidirected 4-cycle with a pendant digon at 0: its far shore
        # left uncontracted, the state is not the collapsed piece.
        d = bidirect(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        sdec = s_decomposition(d)
        monkeypatch.setattr(dtw1, "shore_contraction_script", lambda *args: [])
        with pytest.raises(AssertionError, match="reproduce the collapsed piece") as err:
            dtw1._collapse(dtw1._ReplayState(d), sdec, d, tuple(range(d.n)))
        assert named_digraph(err.value) == d

    @pytest.mark.parametrize("attachments, message", [
        ([(0, frozenset({0, 1, 4}), True, 0)], "meet the piece in its cut"),
        ([(0, frozenset({0, 4}), True, 0), (1, frozenset({1, 4}), True, 1)],
         "overlap beyond their cuts"),
        ([], "must cover the digraph"),
    ])
    def test_far_shores_that_do_not_fit_the_piece_name_the_digraph(
        self, monkeypatch, attachments, message
    ):
        # The bidirected 4-cycle with a pendant digon at 0, its one far shore
        # {0, 4} replaced by shores that reach into the piece, overlap, or
        # leave vertex 4 out.
        d = bidirect(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        sdec = s_decomposition(d)
        monkeypatch.setattr(dtw1, "_attachments", lambda *args: attachments)
        with pytest.raises(AssertionError, match=message) as err:
            dtw1._collapse(dtw1._ReplayState(d), sdec, d, tuple(range(d.n)))
        assert named_digraph(err.value) == d

    def test_a_step_that_misses_its_trial_names_the_digraph(self, monkeypatch):
        # The bidirected K4 with a pendant digon at 0, whose first round
        # contracts that digon.  Told that each deletion leaves the digraph
        # it was taken from, the loop finds the state one edge short of it,
        # and names the input digraph rather than the state's.
        original = dtw1._no_step

        def untouched(d):
            edge, _, sdec = original(d)
            return edge, d, sdec

        monkeypatch.setattr(dtw1, "_no_step", untouched)
        d = bidirect(5, [*itertools.combinations(range(4), 2), (0, 4)])
        with pytest.raises(AssertionError, match="must leave the digraph it was tried on") as err:
            extract_minor_witness(d)
        assert named_digraph(err.value) == d

    def test_family_is_pairwise_laminar(self):
        rng = random.Random(93)
        for _ in range(40):
            d = random_strongly_connected(rng, rng.choice([4, 5, 6]), 0.5)
            s = s_decomposition(d)
            family = tree_separations(s.territories, s.tree_edges)
            for s, t in itertools.combinations(family, 2):
                assert not reference_separations_cross(s, t)
                assert not reference_separations_cross(t, s)

    def test_laminarity_walk_matches_the_pairwise_reference(self):
        # Every s-decomposition of the corpus is laminar by both checks, and
        # so is each family with one tree edge reoriented, its nodes
        # swapped, exactly when each edge's union shores are still a
        # directed separation and no two of its separations cross.
        # Recorded: 2,107 families and 5,842 reorientations, 3,215 of them
        # crossing and 545 still laminar.
        families = reoriented = crossing = accepted = 0
        for d in carry_over_corpus():
            if d.n < 2:
                continue
            sdec = s_decomposition(d)
            tree_edges = list(sdec.tree_edges)
            assert dtw1._laminar(d, sdec.territories, tree_edges)
            assert reference_laminar(d, sdec.territories, tree_edges)
            families += 1
            for i, (ai, bi, cut) in enumerate(tree_edges):
                flipped = tree_edges.copy()
                flipped[i] = (bi, ai, cut)
                expected = reference_laminar(d, sdec.territories, flipped)
                got = dtw1._laminar(d, sdec.territories, flipped)
                assert got == expected, (sorted(d.edges), i)
                reoriented += 1
                crossing += not reference_pairwise_laminar(sdec.territories, flipped)
                accepted += expected
        assert families >= 1_800 and reoriented >= 4_000 and crossing >= 1_800, (
            families, reoriented, crossing
        )
        assert accepted >= 500, accepted

    def test_laminarity_walk_checks_the_shores(self):
        # A tree that is not connected has no union shores, and fails the
        # walk.  A tree edge cannot name shores other than its unions.
        d = bidirect(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sdec = s_decomposition(d)
        tree_edges = list(sdec.tree_edges)
        assert len(tree_edges) == 3 and dtw1._laminar(d, sdec.territories, tree_edges)
        ai, bi, _ = tree_edges[1]
        _, _, last = tree_edges[2]
        assert not dtw1._laminar(d, sdec.territories, [*tree_edges[:2], (ai, bi, last)])

    def test_laminarity_walk_checks_each_edge_is_a_directed_separation(self):
        # The directed triangle splits into two digons.  With its one tree
        # edge reversed, the union shores still meet in the cut and nothing
        # crosses, but the edge between the two other vertices runs from
        # the B-only one to the A-only one.
        d = directed_cycle_digraph(3)
        sdec = s_decomposition(d)
        ((ai, bi, cut),) = sdec.tree_edges
        assert dtw1._laminar(d, sdec.territories, sdec.tree_edges)
        reversed_edge = [(bi, ai, cut)]
        (sep,) = tree_separations(sdec.territories, reversed_edge)
        assert sep.shoreA & sep.shoreB == {cut}
        assert reference_pairwise_laminar(sdec.territories, reversed_edge)
        assert not reference_is_directed_separation(d, sep.shoreA, sep.shoreB)
        assert not dtw1._laminar(d, sdec.territories, reversed_edge)

    def test_laminarity_walk_matches_the_reference_on_changed_families(self):
        # Every s-decomposition of the corpus changed once (`changed_families`).
        # Where every cut lies in both its end territories and the
        # territories hold n + E vertices for E tree edges, the walk agrees
        # with the reference; every other family it rejects.  The
        # reference accepts 319 of those: 184 single nodes whose territory
        # misses a vertex, where it has no tree edge to check, and 135
        # families where a cut left one end territory but still lies on
        # both sides of its edge.  Recorded: 10,529 changes of 2,107
        # families, 7,161 off the invariant and 3,368 on it, 3,250 of
        # those rejected by both and 118 accepted by both.
        on = off = both_reject = reference_accepts = 0
        for d in carry_over_corpus():
            if d.n < 2:
                continue
            sdec = s_decomposition(d)
            for territories, tree_edges in changed_families(random.Random(d.n), d, sdec):
                got = dtw1._laminar(d, territories, tree_edges)
                if not all(c in territories[a] and c in territories[b] for (a, b, c) in tree_edges) or (
                    sum(map(len, territories)) != d.n + len(tree_edges)
                ):
                    assert not got, (sorted(d.edges), territories, tree_edges)
                    off += 1
                    reference_accepts += reference_laminar(d, territories, tree_edges)
                    continue
                assert got == reference_laminar(d, territories, tree_edges), (
                    sorted(d.edges), territories, tree_edges
                )
                on += 1
                both_reject += not got
        assert on >= 3_000 and off >= 6_500 and reference_accepts >= 250, (
            on, off, reference_accepts
        )
        assert both_reject >= 3_000 and on - both_reject >= 100, (both_reject, on)

    def test_laminarity_walk_checks_that_the_territories_cover_the_digraph(self):
        # One node has no tree edge to hold a separation, so only its
        # territory tells that it misses a vertex.
        d = bicycle(4)
        assert dtw1._laminar(d, [frozenset(range(4))], [])
        assert not dtw1._laminar(d, [frozenset(range(3))], [])
        assert not dtw1._laminar(d, [frozenset({0, 1, 2, 5})], [])

    @pytest.mark.parametrize("which, sizes", [
        ("random tree", (192, 768)), ("path", (48, 192)), ("star", (48, 192)),
    ])
    def test_laminarity_walk_memory_grows_linearly(self, which, sizes):
        # The `tracemalloc` peak of one walk over the split tree that
        # `s_decomposition` returned, at two sizes four times apart.
        # Recorded slopes: 1.08 on the tree, 1.05 on the path and the star,
        # and 0.51 MiB on the 768-vertex tree; unions of the territories
        # below and above every node gave 1.94, 1.83 and 1.83, and 25 MiB.
        peaks = []
        for n in sizes:
            if which == "random tree":
                d = bidirect(n, random_tree_edges(random.Random(n), n))
            else:
                d = {"path": bidirected_path, "star": bidirected_star}[which](n)
            sdec = s_decomposition(d)
            tracemalloc.start()
            try:
                assert dtw1._laminar(d, sdec.territories, sdec.tree_edges)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        slope = math.log(peaks[1] / peaks[0]) / math.log(sizes[1] / sizes[0])
        assert slope <= 1.3 and peaks[1] < 2 * 2**20, (peaks, slope)

    def test_family_is_maximal_among_all_tight_separations(self):
        corpus = list(labeled_strongly_connected(3))
        rng = random.Random(94)
        corpus += [
            random_strongly_connected(rng, rng.choice([4, 5]), rng.choice([0.3, 0.6]))
            for _ in range(40)
        ]
        for d in corpus:
            s = s_decomposition(d)
            family = set(tree_separations(s.territories, s.tree_edges))
            for cand in brute_tight_separations(d):
                laminar = all(
                    not reference_separations_cross(cand, f)
                    and not reference_separations_cross(f, cand)
                    for f in family
                )
                assert laminar == (cand in family), (sorted(d.edges), cand)


def reference_pairwise_laminar(territories, tree_edges) -> bool:
    """The laminarity check as `s_decomposition` made it before the tree
    walk: no two separations of the tree edges (`tree_separations`) cross,
    by `reference_separations_cross` on every pair."""
    return not any(
        reference_separations_cross(s, t)
        for s, t in itertools.combinations(tree_separations(territories, tree_edges), 2)
    )


def reference_laminar(d, territories, tree_edges) -> bool:
    """`reference_pairwise_laminar`, with each tree edge's separation checked
    to meet in exactly its cut and to be a directed separation of d by the
    edge scan."""
    seps = tree_separations(territories, tree_edges)
    return reference_pairwise_laminar(territories, tree_edges) and all(
        sep.shoreA & sep.shoreB == {cut}
        and reference_is_directed_separation(d, sep.shoreA, sep.shoreB)
        for (_, _, cut), sep in zip(tree_edges, seps)
    )


def changed_families(rng, d, sdec):
    """(territories, tree edges) for sdec's family changed once in each of
    these ways, each a seeded choice: a territory loses a vertex, gains
    one, or swaps one for another; a tree edge takes another cut, is
    reversed, or has one end moved to another node that holds its cut."""
    territories, tree_edges = list(sdec.territories), list(sdec.tree_edges)

    def with_territory(t, territory):
        return [*territories[:t], frozenset(territory), *territories[t + 1:]], tree_edges

    def with_edge(i, edge):
        return territories, [*tree_edges[:i], edge, *tree_edges[i + 1:]]

    t = rng.randrange(len(territories))
    lost = rng.choice(sorted(territories[t]))
    yield with_territory(t, territories[t] - {lost})
    gained = [v for v in range(d.n) if v not in territories[t]]
    if gained:
        new = rng.choice(gained)
        yield with_territory(t, territories[t] | {new})
        yield with_territory(t, (territories[t] - {lost}) | {new})
    if not tree_edges:
        return
    i = rng.randrange(len(tree_edges))
    a, b, c = tree_edges[i]
    yield with_edge(i, (a, b, rng.choice([v for v in range(d.n) if v != c])))
    yield with_edge(i, (b, a, c))
    moves = [
        edge
        for x, territory in enumerate(territories) if c in territory and x not in (a, b)
        for edge in ((x, b, c), (a, x, c))
    ]
    if moves:
        yield with_edge(i, rng.choice(moves))


class _PieceState:
    def __init__(self, territory, attachments):
        self.territory = frozenset(territory)
        self.attachments = list(attachments)  # (cut, far shore, far is an A-shore)


def reference_lift_separation(d, attachments, local_sep, labels):
    """`_lift_separation` as it was when it walked every label of the piece."""
    blob = {}
    for (cut, far, far_is_a) in attachments:
        blob.setdefault(cut, []).append((far - {cut}, far_is_a))
    shore_a = set()
    shore_b = set()
    local_a = {labels[i] for i in local_sep.shoreA}
    local_b = {labels[i] for i in local_sep.shoreB}
    for v in labels:
        in_a = v in local_a
        in_b = v in local_b
        if in_a:
            shore_a.add(v)
        if in_b:
            shore_b.add(v)
        for inner, far_is_a in blob.get(v, ()):
            if in_a and in_b:
                target = shore_a if far_is_a else shore_b
            elif in_a:
                target = shore_a
            else:
                target = shore_b
            target |= inner
    return TightSeparation(frozenset(shore_a), frozenset(shore_b))


def reference_s_decomposition(d):
    """`s_decomposition` as it was when every round searched every piece and
    each piece carried its own attachments; returns the record plus those
    attachments, by node.  The record keeps the collapsed piece of each
    node of three or more vertices, and None for a node of two."""
    pieces = [_PieceState(range(d.n), [])]
    tree_edges = []
    while True:
        best = None
        for pi, piece in enumerate(pieces):
            collapsed, labels = reference_collapse_piece(d, piece.territory, piece.attachments)
            for local in reference_tight_separations(collapsed):
                lifted = reference_lift_separation(d, piece.attachments, local, labels)
                v = lifted.cut_vertex
                bit = vertex_bits(d.n)
                with_edges = [
                    (bit[cut], mask_of(bit, far), far_is_a, None)
                    for (cut, far, far_is_a) in piece.attachments
                ]
                first = mask_of(bit, (labels[i] for i in local.shoreA))
                lifted_a = dtw1._lifted_a_shore(with_edges, first, bit[v])
                assert mask_set(d.n, lifted_a) == lifted.shoreA
                assert lifted.shoreB == (frozenset(range(d.n)) - lifted.shoreA) | {v}
                key = lifted.sort_key()
                if best is None or key < best[0]:
                    best = (key, pi, lifted)
        if best is None:
            break
        _, pi, sep = best
        old = pieces[pi]
        v = sep.cut_vertex
        side_a = _PieceState(old.territory & sep.shoreA, [])
        side_b = _PieceState(old.territory & sep.shoreB, [])
        for (cut, far, far_is_a) in old.attachments:
            if not (far - {cut}) - (sep.shoreA - sep.shoreB):
                side_a.attachments.append((cut, far, far_is_a))
            else:
                side_b.attachments.append((cut, far, far_is_a))
        side_a.attachments.append((v, sep.shoreB, False))
        side_b.attachments.append((v, sep.shoreA, True))
        for piece_state in (side_a, side_b):
            piece_state.attachments.sort(key=lambda t: (t[0], tuple(sorted(t[1]))))
        pieces[pi] = side_a
        new_index = len(pieces)
        pieces.append(side_b)
        rewired = []
        for (ai, bi, s) in tree_edges:
            if pi in (ai, bi):
                far = s.shoreB if ai == pi else s.shoreA
                keep = pi if not (far - {s.cut_vertex}) - (sep.shoreA - sep.shoreB) else new_index
                if ai == pi:
                    ai = keep
                else:
                    bi = keep
            rewired.append((ai, bi, s))
        tree_edges = rewired
        tree_edges.append((pi, new_index, sep))

    order = sorted(range(len(pieces)), key=lambda i: tuple(sorted(pieces[i].territory)))
    rank = {old: new for new, old in enumerate(order)}
    ranked = [(rank[ai], rank[bi], sep.cut_vertex) for (ai, bi, sep) in tree_edges]
    record = dtw1.SDecomposition(
        territories=tuple(pieces[i].territory for i in order),
        tree_edges=tuple(sorted(ranked, key=lambda e: sorted(e[:2]))),
        collapsed=tuple(
            reference_collapse_piece(d, pieces[i].territory, pieces[i].attachments)[0]
            if len(pieces[i].territory) >= 3 else None
            for i in order
        ),
    )
    return record, [pieces[i].attachments for i in order]


def pruned(rng, d):
    """d with a seeded share of its arcs dropped, each only when d stays
    strongly connected without it."""
    edges = set(d.edges)
    arcs = sorted(edges)
    rng.shuffle(arcs)
    for e in arcs[: rng.randint(1, len(arcs))]:
        if is_strongly_connected(Digraph(d.n, frozenset(edges - {e}))):
            edges.discard(e)
    return Digraph(d.n, frozenset(edges))


def ear_decomposition(rng, n):
    """A directed cycle plus seeded ears, each a directed path of up to three
    new vertices between two old ones, until there are n vertices; strongly
    connected by construction."""
    size = rng.randint(2, min(n, 5))
    edges = {(i, (i + 1) % size) for i in range(size)}
    while size < n or rng.random() < 0.4:
        new = rng.randint(0, min(3, n - size))
        u, w = rng.randrange(size), rng.randrange(size)
        if new == 0 and u == w:
            continue
        path = [u, *range(size, size + new), w]
        edges |= set(zip(path, path[1:]))
        size += new
    return Digraph(size, frozenset(edges))


def relabelled(rng, d):
    """d with its vertices renamed by a seeded permutation."""
    perm = list(range(d.n))
    rng.shuffle(perm)
    return Digraph(d.n, frozenset((perm[a], perm[b]) for (a, b) in d.edges))


def carry_over_corpus():
    """`separation_corpus()` plus seeded inputs whose splits drop more than
    a digon or drop the least vertex of a shore: relabelled bidirected trees
    and trees plus a triangle on at most 40 vertices, pruned or not, ear
    decompositions, and dense random digraphs."""
    yield from separation_corpus()
    rng = random.Random(418)
    for _ in range(8):
        for d in (
            bidirect(n := rng.randint(3, 40), random_tree_edges(rng, n)),
            tree_plus_triangle(rng, rng.randint(3, 40)),
        ):
            yield relabelled(rng, d)
            yield relabelled(rng, pruned(rng, d))
    for _ in range(150):
        yield ear_decomposition(rng, rng.randint(3, 16))
    for _ in range(60):
        yield random_strongly_connected(rng, rng.randint(4, 10), rng.choice([0.5, 0.7]))


def mask_of(bit, vertices):
    """The mask of a set of vertices, bit[u] each vertex's bit (`vertex_bits`)."""
    return sum(map(bit.__getitem__, vertices))


def mask_set(n, mask):
    """The vertices of a mask on n vertices, as a set."""
    return frozenset(mask_vertices(n, mask))


def set_entry(piece, entry):
    """A piece's `_Entry` read back in vertex sets: its X-shore a set, its
    key the sorted A-shore it stands for (the key's vertex bits), checked
    to be that shore's `_sorted_order_key`."""
    n = len(piece.bit)
    x, x_first, key = entry
    shore = None if key is None else key & piece.ones
    assert shore is None or key == dtw1._sorted_order_key(piece.ones, shore)
    return dtw1._Entry(
        mask_set(n, x),
        x_first,
        None if key is None else tuple(sorted(mask_vertices(n, shore))),
    )


def record_searches(monkeypatch):
    """A list that gets (piece, least entry) for every searched piece, the
    piece a snapshot of its territory, attachments (as `without_edges`
    triples) and entries taken when it was searched: a split edits the
    piece in place afterwards.  The snapshot and the least entry are read
    back in vertex sets (`set_entry`)."""
    searched = []
    least_entry = dtw1._least_entry

    def recording(piece):
        n = len(piece.bit)
        snapshot = types.SimpleNamespace(
            territory=mask_set(n, piece.territory),
            attachments=[
                (mask_vertices(n, cut)[0], mask_set(n, far), far_is_a)
                for (cut, far, far_is_a) in without_edges(piece.attachments)
            ],
            entries={
                v: [set_entry(piece, entry) for entry in entries]
                for v, entries in piece.entries.items()
            },
        )
        best = least_entry(piece)
        searched.append((snapshot, best and (best[0], set_entry(piece, best[1]))))
        return best

    monkeypatch.setattr(dtw1, "_least_entry", recording)
    return searched


def count_paths(monkeypatch):
    """Counters of the three ways a split piece gets an entry: carried over
    unchanged, re-keyed, or computed afresh at a recomputed vertex, each
    child compared with a copy of its parent's entries taken before the
    split edits it.  Only the recomputations made inside a `_split_off`
    call count, and every call must build a piece of three or more
    vertices.  A split that builds both children calls `_split_off`
    twice in a row on pieces with the same territory and cut."""
    counts = {"carried": 0, "re-keyed": 0, "recomputed vertices": 0, "recomputed entries": 0,
              "both children": 0}
    inside = []  # the vertices recomputed so far by each running `_split_off`
    last = [None]  # the parent territory and cut of the last call
    fresh_entries = dtw1._fresh_entries
    split_off = dtw1._split_off

    def recomputing(piece, v, comps):
        if inside:
            inside[-1].add(v)
        return fresh_entries(piece, v, comps)

    def splitting(parent, territory, cut, *args):
        assert territory.bit_count() >= 3, "a two-vertex piece is never built"
        counts["both children"] += last[0] == (parent.territory, cut)
        last[0] = (parent.territory, cut)
        before = dict(parent.entries)
        inside.append(set())
        child = split_off(parent, territory, cut, *args)
        fresh = inside.pop()
        assert set(child.entries) == mask_set(len(child.bit), territory)
        for v, entries in child.entries.items():
            if v in fresh:
                counts["recomputed vertices"] += 1
                counts["recomputed entries"] += len(entries)
                continue
            old = before[v]
            assert len(entries) == len(old)
            same = sum(a is b for a, b in zip(entries, old))
            counts["carried"] += same
            counts["re-keyed"] += len(entries) - same
        return child

    monkeypatch.setattr(dtw1, "_fresh_entries", recomputing)
    monkeypatch.setattr(dtw1, "_split_off", splitting)
    return counts


def reference_entries(d, territory, attachments):
    """Each territory vertex's entries, from `cut_vertex_shores` on the freshly
    collapsed piece with a fresh Tarjan pass, as (X-shore, x_first, key)
    triples in label sets, key the A-shore of the `reference_lift_separation`
    of the shores in the orientation the edge scan finds valid, whose
    B-shore is checked to be the rest of d's vertices and v."""
    collapsed, labels = reference_collapse_piece(d, territory, attachments)
    index = {label: j for j, label in enumerate(labels)}

    def local(shore):
        return frozenset(map(index.__getitem__, shore))

    out = {}
    for i, v in enumerate(labels):
        triples = []
        for _, x, x_first in set_shores(
            collapsed._out, collapsed._in, i, strong_components(collapsed, (i,)), collapsed.n
        ):
            x = frozenset(labels[j] for j in x)
            p, q = frozenset(labels) - x, x | {v}
            key = None
            if len(p) >= 2:
                pq = reference_is_directed_separation(collapsed, local(p), local(q))
                qp = reference_is_directed_separation(collapsed, local(q), local(p))
                if pq and qp:
                    first, second = sorted((p, q), key=lambda s: tuple(sorted(s)))
                else:
                    first, second = (p, q) if pq else (q, p)
                local_sep = TightSeparation(local(first), local(second))
                lifted = reference_lift_separation(d, attachments, local_sep, labels)
                assert lifted.shoreB == (frozenset(range(d.n)) - lifted.shoreA) | {v}
                key = lifted.sort_key()[0]
            triples.append((x, x_first, key))
        out[v] = triples
    return out


def canonical(entries):
    """(X-shore, x_first, key) triples in an order that does not depend on
    how their sets were built."""
    return sorted((tuple(sorted(x)), repr(x_first), key or ()) for (x, x_first, key) in entries)


def keyed(n, vertices):
    """`_sorted_order_key` of a set of vertices on n vertices."""
    bit = vertex_bits(n)
    return dtw1._sorted_order_key(sum(bit), mask_of(bit, vertices))


class TestSortedOrderKey:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_keys_order_vertex_sets_as_sorted_tuples(self, data):
        # t is drawn apart from s, or as s with one or two vertices toggled,
        # which gives prefixes and sets that part late.
        n = data.draw(st.integers(1, 100), label="n")
        vertices = st.integers(0, n - 1)
        s = data.draw(st.sets(vertices), label="s")
        t = data.draw(
            st.one_of(st.sets(vertices), st.sets(vertices, max_size=2).map(s.symmetric_difference)),
            label="t",
        )
        assert (keyed(n, s) < keyed(n, t)) == (tuple(sorted(s)) < tuple(sorted(t)))
        assert (keyed(n, s) == keyed(n, t)) == (s == t)

    @pytest.mark.parametrize("n", [3, 32, 33, 64, 65])
    def test_prefixes_the_empty_set_and_word_boundaries(self, n):
        # Masks of two bits a vertex cross one 64-bit word at n = 33 and two
        # at n = 65.
        assert keyed(n, ()) == 0
        assert keyed(n, {0, 1}) < keyed(n, {0, 1, 2}) < keyed(n, {0, 2})
        last = n - 1
        sets = [set(), {0}, {0, 1}, {0, 1, 2}, {0, 2}, {1}, {1, 2}, {last}, {0, last},
                {last - 1, last}, set(range(n)), set(range(n - 1)), set(range(1, n))]
        for s, t in itertools.product(sets, repeat=2):
            assert (keyed(n, s) < keyed(n, t)) == (tuple(sorted(s)) < tuple(sorted(t))), (s, t)


class TestSDecompositionCache:
    def test_matches_the_round_by_round_search(self, monkeypatch):
        # Every carry-over path must fire on this corpus.  Recorded counts:
        # 32,854 carried entries, 100 re-keyed, and 7,028 recomputed
        # vertices with 14,346 entries, all in pieces of three or more
        # vertices; 1,446 splits build both children, the first from a
        # copy of the piece and the second by editing the piece itself.
        # A two-way entry is re-keyed only when the split drops the vertex
        # that orients it; re-keying whenever either vertex of the pair
        # the orientation compared was dropped re-keyed 413, and the other
        # 313 rebuilt the same key.
        counts = count_paths(monkeypatch)
        split = 0
        for d in carry_over_corpus():
            if d.n < 2:
                continue
            got = s_decomposition(d)
            expected, attachments = reference_s_decomposition(d)
            for f in dataclasses.fields(dtw1.SDecomposition):
                assert getattr(got, f.name) == getattr(expected, f.name), (f.name, sorted(d.edges))
            assert got.edges == expected.edges
            for t in range(len(got.territories)):
                got_attachments = sorted_attachments(node_attachments(got, t))
                assert got_attachments == attachments[t], (t, sorted(d.edges))
            split += len(got.edges) >= 2
        assert split >= 100, split
        floors = {"carried": 30_000, "re-keyed": 90, "recomputed vertices": 6_500,
                  "recomputed entries": 13_000, "both children": 1_400}
        assert all(counts[k] >= floor for k, floor in floors.items()), counts

    # Work counts on one 40-vertex tree: a per-piece Tarjan pass, a lift
    # per candidate or a recomputed vertex beyond each new cut coming back
    # fails one of the next four tests.
    @pytest.mark.parametrize("n, passes, walked", [(40, 20, 128), (384, 187, 1_993)])
    def test_tarjan_passes_of_the_root_stage(self, monkeypatch, n, passes, walked):
        # Vertex 0 takes one pass of d - 0, and each other inner vertex of
        # the tree one pass of the subtree it cuts off, which it dominates
        # in both trees; a leaf dominates nothing and takes none.  The
        # walks visit 39 + 89 vertices on the 40-vertex tree and 383 + 1,610
        # on the 384-vertex one, where a pass per vertex made 40 passes
        # and visited n(n - 1): 1,560 and 147,072 vertices.
        calls = {"strong_components": 0, "passes": 0, "walked": 0}
        components, tarjan = strong_components, digraph._tarjan

        def counted(d, removed=()):
            calls["strong_components"] += 1
            return components(d, removed)

        def walking(*args):
            comps = tarjan(*args)
            calls["passes"] += 1
            calls["walked"] += sum(map(len, comps))
            return comps

        monkeypatch.setattr(digraph, "strong_components", counted)
        monkeypatch.setattr(digraph, "_tarjan", walking)
        d = bidirect(n, random_tree_edges(random.Random(n), n))
        if n == 40:
            assert len(s_decomposition(d).edges) == 38
        else:
            digraph.strong_components_minus_each(d)
        assert calls == {"strong_components": 1, "passes": passes, "walked": walked}

    @pytest.mark.parametrize("which, expected", [("bicycle", 1), ("dense", 138)])
    def test_strong_components_calls_of_a_recognition(self, monkeypatch, which, expected):
        # Bicycle(22) is strongly 2-connected: the test's pass of d - 0 is
        # its only pass, since the test also says that d is strongly
        # connected, and no vertex takes a pass of its own.  The 40-vertex
        # dense draw (269 edges) takes 103 NO rounds and 105 trial
        # s-decompositions, and a strongly 2-connected trial costs one
        # pass.  A trial that is not takes one call, for d - 0; its strong
        # articulation points take passes of the regions they dominate,
        # which are not `strong_components` calls.  The dense draw took 880
        # calls when such a trial took a pass per vertex, 952 with a strong
        # connectivity pass before the test, and 5,909 when every
        # s-decomposition built its table with a pass per vertex and
        # asserted each finished piece with one more per vertex; Bicycle(22)
        # took 2 and 46 in the last two.
        if which == "bicycle":
            d = bicycle(22)
        else:
            rng = random.Random(5)
            d = [suite.random_strongly_connected(rng, n, 0.15) for n in (20, 30, 40)][-1]
        calls = 0

        def counted(d, removed=()):
            nonlocal calls
            calls += 1
            return strong_components(d, removed)

        monkeypatch.setattr(digraph, "strong_components", counted)
        assert recognize_dtw1(d).verdict == "NO"
        assert calls == expected

    def test_only_the_new_cut_is_recomputed(self, monkeypatch):
        # Each split piece of three or more vertices recomputes only its new
        # cut vertex; every other entry carries over.  The 39 two-vertex
        # pieces are never built.  The searched piece sizes add up to 817,
        # about n^2/2: ROADMAP item 12's one-digon peel.
        counts = count_paths(monkeypatch)
        searched = record_searches(monkeypatch)
        sdec = s_decomposition(bidirect(40, random_tree_edges(random.Random(40), 40)))
        assert len(sdec.edges) == 38
        assert len(searched) == 38
        assert all(len(piece.territory) >= 3 for piece, _ in searched)
        assert sum(len(piece.territory) for piece, _ in searched) == 817
        assert counts["recomputed vertices"] == len(searched) - 1 == 37
        assert counts["re-keyed"] == 0

    def test_splits_build_no_digraph_and_key_only_new_entries(self, monkeypatch):
        # A split edits its piece in place: no `dense_digraph` and no `Digraph`
        # after the root, whose finished pieces all have two vertices.  Every
        # `_entry` call keys a fresh or re-keyed entry: 58 at the root, whose
        # 20 non-leaf vertices have as many entries as neighbours, and 41 at
        # the 37 recomputed cuts.
        d = bidirect(40, random_tree_edges(random.Random(40), 40))
        counts = count_paths(monkeypatch)
        calls = {"dense_digraph": 0, "Digraph": 0, "_entry": 0}

        def counted(name, original):
            def call(*args):
                calls[name] += 1
                return original(*args)
            return call

        monkeypatch.setattr(dtw1, "dense_digraph", counted("dense_digraph", dtw1.dense_digraph))
        monkeypatch.setattr(digraph, "dense_digraph", counted("dense_digraph", digraph.dense_digraph))
        monkeypatch.setattr(Digraph, "__post_init__", counted("Digraph", Digraph.__post_init__))
        monkeypatch.setattr(dtw1, "_entry", counted("_entry", dtw1._entry))
        sdec = s_decomposition(d)
        assert len(sdec.edges) == 38
        assert calls == {"dense_digraph": 0, "Digraph": 0, "_entry": 99}
        assert counts["recomputed entries"] == 41 and counts["re-keyed"] == 0

    def test_only_each_split_is_lifted(self, monkeypatch):
        # Every entry lifts its A-shore for its key; beyond those, each
        # split lifts its winner's A-shore once, and the B-shore it takes
        # as the rest of V and the cut is that tree edge's other shore.
        lifted, keying = [], []
        lift, entry = dtw1._lifted_a_shore, dtw1._entry

        def counted(attachments, first, v):
            shore = lift(attachments, first, v)
            if not keying:
                shore_a, cut = mask_set(40, shore), mask_vertices(40, v)[0]
                lifted.append(TightSeparation(shore_a, (frozenset(range(40)) - shore_a) | {cut}))
            return shore

        def keyed(*args):
            keying.append(True)
            try:
                return entry(*args)
            finally:
                keying.pop()

        monkeypatch.setattr(dtw1, "_lifted_a_shore", counted)
        monkeypatch.setattr(dtw1, "_entry", keyed)
        sdec = s_decomposition(bidirect(40, random_tree_edges(random.Random(40), 40)))
        assert len(sdec.edges) == 38
        assert len(lifted) == len(sdec.edges)
        seps = tree_separations(sdec.territories, sdec.tree_edges)
        assert sorted(sep.sort_key() for sep in lifted) == sorted(sep.sort_key() for sep in seps)

    def test_each_piece_keeps_the_least_reference_lift(self, monkeypatch):
        # Only the winner is lifted as a separation; it must still be the
        # least of every candidate's full lift.  A key is the lift's
        # A-shore, and the winner's vertex is the lift's cut: every lift's
        # B-shore is the rest of V and its cut, so the two name the lift.
        searched = record_searches(monkeypatch)
        rng = random.Random(420)
        corpus = [d for d in carry_over_corpus() if d.n >= 2]
        for _ in range(10):
            corpus.append(bidirect(n := rng.randint(2, 40), random_tree_edges(rng, n)))
            corpus.append(tree_plus_triangle(rng, rng.randint(3, 40)))
        chosen = 0
        for d in corpus:
            searched.clear()
            s_decomposition(d)
            everything = frozenset(range(d.n))
            for piece, best in searched:
                collapsed, labels = reference_collapse_piece(d, piece.territory, piece.attachments)
                lifts = [
                    reference_lift_separation(d, piece.attachments, local, labels)
                    for local in tight_separations(collapsed)
                ]
                for lift in lifts:
                    assert lift.shoreB == (everything - lift.shoreA) | {lift.cut_vertex}
                least = min(lifts, key=TightSeparation.sort_key, default=None)
                assert (best and (best[1].key, best[0])) == (
                    least and (least.sort_key()[0], least.cut_vertex)
                ), (sorted(d.edges), sorted(piece.territory))
                chosen += len(lifts) >= 2
        assert chosen >= 3_000, chosen

    @pytest.mark.parametrize("shape", [bidirected_path, bidirected_star])
    def test_search_memory_on_192_vertices(self, shape):
        # The `tracemalloc` peak of `s_decomposition` on the bidirected path
        # and star of 192 vertices.  Recorded: 5.2 and 4.7 MiB; frozenset
        # shores keyed by sorted tuples gave 25.4 and 30.5 MiB.
        d = shape(192)
        tracemalloc.start()
        try:
            s_decomposition(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, peak


class TestCarriedEntries:
    def test_entries_match_a_fresh_tarjan_pass(self, monkeypatch):
        # Every piece's entries at every vertex, carried or fresh, against
        # `cut_vertex_shores` on its freshly collapsed piece, keys included.
        searched = record_searches(monkeypatch)
        rng = random.Random(410)
        corpus = [d for d in carry_over_corpus() if d.n >= 2]
        for _ in range(10):
            corpus.append(bidirect(n := rng.randint(2, 40), random_tree_edges(rng, n)))
            corpus.append(tree_plus_triangle(rng, rng.randint(3, 40)))
        checked = 0
        for d in corpus:
            searched.clear()
            s_decomposition(d)
            for piece, _ in searched:
                expected = reference_entries(d, piece.territory, piece.attachments)
                assert set(piece.entries) == set(piece.territory)
                for v, entries in piece.entries.items():
                    got = [(x & piece.territory, x_first, key) for (x, x_first, key) in entries]
                    assert canonical(got) == canonical(expected[v]), (
                        sorted(d.edges), sorted(piece.territory), v
                    )
                    checked += len(got)
        # 71,433 entries, carried or fresh.
        assert checked >= 70_000, checked

    def test_a_split_that_drops_the_second_least_vertex_re_keys_the_least(self, monkeypatch):
        # On the bidirected path 1 - 3 - 0 - 2, vertex 0's two entries are
        # two-way and oriented by vertex 1, the least vertex other than 0.
        # The split at 3 along ({0, 2, 3}, {1, 3}) keeps 0, drops 1 and
        # leaves 0's root components as they were, so 0 is not recomputed;
        # in the child, vertex 2 orients them the other way.  The search
        # never makes that split, which is not the root's least, so the
        # root piece is taken from its first `_split_off` call and split
        # here by hand.
        d = bidirect(4, [(1, 3), (3, 0), (0, 2)])
        roots = []
        split_off = dtw1._split_off

        def capturing(piece, *args):
            if not roots:
                roots.append((piece.copy(), args[-2:]))
            return split_off(piece, *args)

        monkeypatch.setattr(dtw1, "_split_off", capturing)
        s_decomposition(d)
        (root, (minus, where)), = roots
        bit = root.bit
        territory, far = {0, 2, 3}, {1, 3}
        assert root.entries[0][0].key == keyed(4, {0, 1, 3})
        child = split_off(root, mask_of(bit, territory), 3,
                          [(bit[3], mask_of(bit, far), False, 0)], minus, where)
        expected = reference_entries(d, territory, [(3, frozenset(far), False)])
        for v in territory:
            got = [set_entry(child, entry) for entry in child.entries[v]]
            got = [(x & territory, x_first, key) for (x, x_first, key) in got]
            assert canonical(got) == canonical(expected[v]), v
        assert [entry.key for entry in child.entries[0]] == [keyed(4, {0, 2})] * 2


class TestRecognize:
    @pytest.mark.parametrize(
        "d",
        [
            digon(),
            directed_cycle_digraph(3),
            bidirected_path(3),
            bidirected_path(5),
            bidirect(4, [(0, 3), (1, 3), (2, 3)]),
            Digraph(5, frozenset([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])),
        ],
        ids=["digon", "triangle", "path3", "path5", "star", "two-triangles"],
    )
    def test_width_one_digraphs_get_valid_yes_certificates(self, d):
        cert = recognize_dtw1(d)
        assert cert.verdict == "YES"
        report = verify_certificate(d, cert)
        assert report.valid, report.violations
        assert report.width <= 1
        assert cert.rooted_sets is None

    def test_bidirected_triangle_gets_a_bicycle_witness(self):
        d = bicycle(3)
        cert = recognize_dtw1(d)
        assert cert.verdict == "NO"
        assert cert.rooted_sets == RootedSets(
            "bicycle", 3, {p: frozenset({p}) for p in range(3)}, {p: p for p in range(3)}
        )
        assert extract_minor_witness(d).script == ()
        assert verify_certificate(d, cert).valid

    def test_a4_gets_an_a4_witness(self):
        d = a4_digraph()
        cert = recognize_dtw1(d)
        assert cert.verdict == "NO"
        assert (cert.rooted_sets.kind, cert.rooted_sets.length) == ("a4", None)
        assert extract_minor_witness(d).script == ()
        assert verify_certificate(d, cert).valid

    @pytest.mark.parametrize("length", [4, 5, 6])
    def test_bidirected_cycles_get_full_length_witnesses(self, length):
        d = bicycle(length)
        cert = recognize_dtw1(d)
        assert cert.verdict == "NO"
        assert (cert.rooted_sets.kind, cert.rooted_sets.length) == ("bicycle", length)
        assert verify_certificate(d, cert).valid

    def test_pendant_digon_lands_in_the_witness_branch_sets(self):
        d = Digraph(
            4,
            frozenset(
                [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0), (0, 3), (3, 0)]
            ),
        )
        cert = recognize_dtw1(d)
        assert cert.verdict == "NO"
        witness = extract_minor_witness(d)
        assert witness.script == (("del", 0, 3), ("contract", 3, 0))
        assert witness.branch_sets == {
            0: frozenset({0, 3}),
            1: frozenset({1}),
            2: frozenset({2}),
        }
        assert cert.rooted_sets.sets == witness.branch_sets
        assert cert.rooted_sets.roots == {0: 0, 1: 1, 2: 2}
        assert verify_certificate(d, cert).valid

    def test_no_verdicts_mean_two_cops_lose(self):
        for d in [bicycle(3), a4_digraph(), bicycle(4)]:
            assert recognize_dtw1(d).verdict == "NO"
            assert not solve_game(d, 2).cops_win

    def test_verdict_is_stable_under_relabeling(self):
        rng = random.Random(95)
        for _ in range(30):
            n = rng.choice([4, 5, 6])
            d = random_strongly_connected(rng, n, rng.choice([0.2, 0.4, 0.6]))
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = Digraph(n, frozenset((perm[a], perm[b]) for (a, b) in d.edges))
            assert recognize_dtw1(d).verdict == recognize_dtw1(relabeled).verdict

    def test_agrees_with_the_hypergraph_route(self):
        rng = random.Random(96)
        for _ in range(50):
            d = random_strongly_connected(
                rng, rng.choice([4, 5, 6]), rng.choice([0.2, 0.4, 0.6])
            )
            cert = recognize_dtw1(d)
            assert verify_certificate(d, cert).valid
            assert (cert.verdict == "YES") == hypertree_route(d).is_hypertree

    def test_no_answers_never_enumerate_cycles(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("recognize_dtw1 enumerated cycles")

        monkeypatch.setattr(cycles, "enumerate_cycles", refuse)
        tree_and_triangle = bidirect(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (4, 5)])
        for d in (bicycle(5), a4_digraph(), tree_and_triangle):
            cert = recognize_dtw1(d)
            assert cert.verdict == "NO" and verify_certificate(d, cert).valid

    def test_no_answers_build_no_haven(self, monkeypatch):
        """A NO answer is three rooted sets, which the recogniser checks by
        the six sweeps alone: no haven is lifted, no strong component is
        walked, and the minor is not replayed."""
        def refuse(*args, **kwargs):
            raise AssertionError("recognize_dtw1 built a haven or replayed its minor")

        for module, name in ((games, "haven_from_minor"), (games, "strong_component_of"),
                             (digraph, "strong_component_of"), (digraph, "round_trips"),
                             (dtw1, "verify_witness"), (dtw1, "replay_script")):
            monkeypatch.setattr(module, name, refuse)
        tree_and_triangle = bidirect(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (4, 5)])
        inputs = (bicycle(5), a4_digraph(), tree_and_triangle)
        certs = [recognize_dtw1(d) for d in inputs]
        assert [c.verdict for c in certs] == ["NO"] * 3
        monkeypatch.undo()
        assert all(verify_certificate(d, c).valid for d, c in zip(inputs, certs))

    def test_patterns_take_no_step(self, monkeypatch):
        """A digraph whose collapsed piece is already a bidirected cycle or
        A4 ends at the pattern test, before the NO loop tries any step."""
        def refuse(*args, **kwargs):
            raise AssertionError("a pattern went through a shrinking step")

        monkeypatch.setattr(dtw1, "_no_step", refuse)
        cases = [(bicycle(k), ("bicycle", k)) for k in range(3, 9)]
        cases += [
            (Digraph(4, frozenset((perm[a], perm[b]) for (a, b) in a4_digraph().edges)),
             ("a4", None))
            for perm in itertools.permutations(range(4))
        ]
        rng = random.Random(97)
        cases += [(tree_plus_triangle(rng, n), ("bicycle", 3)) for n in (3, 4, 8, 16, 30)]
        for d, pattern in cases:
            cert = recognize_dtw1(d)
            assert cert.verdict == "NO", sorted(d.edges)
            assert (cert.rooted_sets.kind, cert.rooted_sets.length) == pattern, sorted(d.edges)
            assert verify_certificate(d, cert).valid, sorted(d.edges)

    def test_single_vertex_raises(self):
        with pytest.raises(ValueError):
            recognize_dtw1(Digraph(1, frozenset()))

    def test_not_strongly_connected_raises(self):
        with pytest.raises(ValueError):
            recognize_dtw1(digraph_from_edges(3, [(0, 1), (1, 2), (2, 1)]))


# NO instances that crashed the hand-written case analysis the NO loop
# replaced: one of its rounds (a `_K3` step that deleted x->z and contracted
# y->z) lost the obstruction, and a later round raised "no cut vertex admits
# a usable shore contraction".  They stay as regression inputs for the one
# rule.  The two 7-vertex ones are the smallest repros; the census ones are
# every crash among 1,500 draws of `rng = random.Random(7)`,
# `n = rng.randint(7, 11)`, `p = rng.choice((0.05, 0.1, 0.15, 0.2))`,
# `suite.random_strongly_connected(rng, n, p)`, named by draw index.
CASE_ONE_CRASHES = {
    "seven-a": "0 4, 1 3, 1 5, 2 0, 2 4, 3 2, 3 5, 4 1, 4 6, 5 2, 5 4, 5 6, 6 1, 6 3",
    "seven-b": "0 3, 0 4, 1 2, 1 3, 2 0, 2 5, 3 0, 3 5, 4 1, 4 6, 5 4, 5 6, 6 1, 6 2",
    "census-400": "0 6, 1 2, 1 4, 1 8, 2 3, 2 6, 3 1, 3 8, 4 2, 5 0, 5 4, 5 7, 6 3, 6 7, "
    "7 1, 8 1, 8 5",
    "census-444": "0 5, 0 6, 0 9, 1 0, 1 2, 1 3, 2 3, 2 4, 2 5, 3 0, 3 2, 3 8, 4 1, 4 6, "
    "4 7, 5 1, 5 3, 6 9, 7 0, 7 8, 8 4, 8 6, 8 7, 9 1, 9 2",
    "census-568": "0 3, 0 6, 0 8, 0 9, 1 2, 1 4, 1 6, 1 9, 2 0, 3 1, 3 2, 3 5, 4 1, 4 6, "
    "5 6, 5 7, 6 2, 6 3, 6 7, 6 9, 7 8, 8 1, 8 4, 9 0, 9 1, 9 3, 9 4",
    "census-821": "0 6, 1 6, 1 7, 2 1, 2 4, 2 7, 2 8, 3 1, 3 2, 3 5, 3 8, 4 5, 4 8, 4 10, "
    "5 0, 5 3, 5 8, 5 9, 6 2, 6 3, 6 10, 7 5, 7 6, 7 8, 8 2, 9 0, 9 6, 10 5",
    "census-1158": "0 1, 0 2, 0 4, 0 5, 1 0, 1 4, 1 6, 2 1, 2 5, 2 6, 3 1, 4 3, 5 1, 5 3, "
    "5 7, 6 2, 6 4, 6 5, 6 7, 7 0, 7 4",
    "census-1225": "0 9, 1 0, 1 2, 2 7, 3 0, 3 5, 3 6, 3 7, 4 2, 4 3, 4 5, 5 6, 5 7, 6 0, "
    "6 2, 6 4, 7 2, 7 8, 7 9, 8 1, 8 2, 8 4, 9 0, 9 3, 9 4",
    "census-1311": "0 1, 0 6, 0 8, 1 3, 1 6, 2 1, 2 3, 2 7, 3 2, 3 7, 3 10, 4 0, 4 2, 4 6, "
    "5 2, 5 4, 6 1, 6 3, 6 9, 7 6, 7 8, 7 9, 7 10, 8 2, 8 5, 9 0, 9 8, 10 0, 10 4, 10 8",
}


@pytest.mark.parametrize("edges", CASE_ONE_CRASHES.values(), ids=CASE_ONE_CRASHES.keys())
def test_case_one_crash_inputs_get_verified_no_certificates(edges):
    pairs = [tuple(map(int, pair.split())) for pair in edges.split(", ")]
    d = digraph_from_edges(1 + max(map(max, pairs)), pairs)
    assert not hypertree_route(d).is_hypertree
    cert = recognize_dtw1(d)
    assert cert.verdict == "NO"
    assert verify_certificate(d, cert).valid


# Indices into the random golden corpus of the two inputs that crashed the
# same way (see CASE_ONE_CRASHES).
RANDOM_CORPUS_CRASHES = (50, 89)


def test_random_corpus_agrees_with_the_hypertree_route():
    """Beyond n ≤ 6: the 200 random golden inputs on 7-12 vertices."""
    checked = 0
    for i, d in enumerate(random_corpus()):
        if i in RANDOM_CORPUS_CRASHES:
            continue
        cert = recognize_dtw1(d)
        assert (cert.verdict == "YES") == hypertree_route(d).is_hypertree, i
        checked += 1
    assert checked == 198


def test_every_no_answer_of_a_thousand_draws_verifies(monkeypatch):
    """1,000 seeded random strongly connected digraphs on 5-10 vertices: the
    NO loop never fails an assertion, and every NO certificate verifies."""
    steps = 0
    original = dtw1._no_step

    def counting(d):
        nonlocal steps
        steps += 1
        return original(d)

    monkeypatch.setattr(dtw1, "_no_step", counting)
    rng = random.Random(1000)
    no = 0
    for _ in range(1000):
        d = random_strongly_connected(rng, rng.randint(5, 10), rng.choice((0.15, 0.25, 0.4)))
        cert = recognize_dtw1(d)
        if cert.verdict == "NO":
            assert verify_certificate(d, cert).valid, sorted(d.edges)
            no += 1
    assert no >= 700 and steps >= 2500, (no, steps)


@pytest.mark.parametrize("index", RANDOM_CORPUS_CRASHES)
def test_random_corpus_crash_inputs_agree_with_the_hypertree_route(index):
    d = list(random_corpus())[index]
    assert not hypertree_route(d).is_hypertree
    assert recognize_dtw1(d).verdict == "NO"


@st.composite
def hamiltonian_digraphs(draw):
    """A strongly connected digraph on 3-8 vertices: a Hamiltonian cycle
    through the vertices in a drawn order, plus a drawn set of other arcs."""
    n = draw(st.integers(3, 8))
    order = draw(st.permutations(range(n)))
    cycle = {(order[i], order[(i + 1) % n]) for i in range(n)}
    others = [(a, b) for a in range(n) for b in range(n) if a != b and (a, b) not in cycle]
    extra = draw(st.sets(st.sampled_from(others)))
    return Digraph(n, frozenset(cycle | extra))


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(hamiltonian_digraphs())
def test_certificates_verify_and_agree_with_the_hypertree_route(d):
    cert = recognize_dtw1(d)
    report = verify_certificate(d, cert)
    assert report.valid, (sorted(d.edges), report.violations)
    assert (cert.verdict == "YES") == hypertree_route(d).is_hypertree, sorted(d.edges)


def rooted_sets_of(witness, state):
    """The rooted sets of a witness: the branch sets of its pattern's
    vertices 0, 1 and 2, each with the root of its class in the state that
    replayed the witness's script."""
    sets = {p: witness.branch_sets[p] for p in range(3)}
    roots = {p: state.root[state.rep(min(members))] for p, members in sets.items()}
    return RootedSets(witness.kind, witness.length, sets, roots)


class TestVerifyCertificate:
    def test_widened_bag_is_rejected(self):
        d = directed_cycle_digraph(3)
        cert = recognize_dtw1(d)
        dec = cert.decomposition
        root = dec.nodes[0]
        bags = dict(dec.bags)
        bags[root] = frozenset(range(3))
        tampered = Dtw1Certificate(
            "YES",
            type(dec)(nodes=dec.nodes, arcs=dec.arcs, bags=bags, guards=dec.guards),
            None,
        )
        report = verify_certificate(d, tampered)
        assert not report.valid or report.width > 1

    def test_truncated_script_is_rejected(self):
        d = Digraph(
            4,
            frozenset(
                [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0), (0, 3), (3, 0)]
            ),
        )
        w = extract_minor_witness(d)
        cut = MinorWitness(w.kind, w.length, w.script[:-1], w.branch_sets)
        assert not verify_witness(d, cut).valid

    def test_doctored_branch_sets_are_rejected(self):
        d = bicycle(3)
        w = extract_minor_witness(d)
        doctored = {0: frozenset({0, 1}), 1: frozenset({1}), 2: frozenset({2})}
        swapped = MinorWitness(w.kind, w.length, w.script, doctored)
        assert not verify_witness(d, swapped).valid
        rooted = RootedSets(w.kind, w.length, doctored, {0: 0, 1: 1, 2: 2})
        report = verify_certificate(d, Dtw1Certificate("NO", None, rooted))
        assert report.violations == ("rooted sets must be pairwise disjoint",)

    @pytest.mark.parametrize("d", [bicycle(6), tree_plus_triangle(random.Random(12), 12)],
                             ids=["bicycle6", "tree-plus-triangle"])
    def test_tampered_witnesses_are_rejected(self, d):
        """Each step of a valid NO witness swapped for the other kind,
        reversed or dropped, and each branch set's least vertex moved to the
        next set: `verify_witness` accepts at most one changed witness per
        step, and those it accepts are real witnesses whose rooted sets pass
        `verify_certificate`."""
        w = extract_minor_witness(d)
        tampered = []
        for i, (kind, a, b) in enumerate(w.script):
            other = "del" if kind == "contract" else "contract"
            for step in ((other, a, b), (kind, b, a)):
                tampered.append(w.script[:i] + (step,) + w.script[i + 1:])
            tampered.append(w.script[:i] + w.script[i + 1:])
        witnesses = [MinorWitness(w.kind, w.length, script, w.branch_sets)
                     for script in tampered]
        for p, cls in w.branch_sets.items():
            q = (p + 1) % len(w.branch_sets)
            moved = {**w.branch_sets, p: cls - {min(cls)}, q: w.branch_sets[q] | {min(cls)}}
            witnesses.append(MinorWitness(w.kind, w.length, w.script, moved))
        rejected = 0
        for bad in witnesses:
            if verify_witness(d, bad).valid:
                rooted = rooted_sets_of(bad, replay_script(d, bad.script))
                assert verify_certificate(d, Dtw1Certificate("NO", None, rooted)).valid
            else:
                rejected += 1
        assert rejected >= len(witnesses) - len(w.script), (rejected, len(witnesses))

    def test_wrong_roots_are_caught(self):
        """The haven checks of a NO certificate: Bicycle(3) with vertex 0
        stretched into the path 3 -> 0 has root 0 in the class {0, 3}.  A
        root outside its class, or rooted at 3, which gives h({2}) = {3} but
        h({0, 2}) = {1}, is reported."""
        d = digraph_from_edges(4, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0)])
        branch = {0: frozenset({0, 3}), 1: frozenset({1}), 2: frozenset({2})}
        witness = MinorWitness("bicycle", 3, (("contract", 3, 0),), branch)
        assert verify_witness(d, witness).valid
        rooted = rooted_sets_of(witness, replay_script(d, witness.script))
        assert rooted == RootedSets("bicycle", 3, branch, {0: 0, 1: 1, 2: 2})
        assert verify_certificate(d, Dtw1Certificate("NO", None, rooted)).valid
        for root, message in ((1, "rooted set 0 does not hold its root"),
                              (3, "haven verification failed")):
            wrong = dataclasses.replace(rooted, roots={0: root, 1: 1, 2: 2})
            report = verify_certificate(d, Dtw1Certificate("NO", None, wrong))
            assert report.violations == (message,)

    def certificate_lines(self, d):
        names = tuple(str(v) for v in range(d.n))
        cert = recognize_dtw1(d)
        header = header_lines("recognize", digest=digraph_hash(d))
        return format_certificate(cert, names, header)

    def parse(self, d, lines):
        return parse_certificate(read_document("\n".join(lines) + "\n"),
                                 {str(v): v for v in range(d.n)})

    def test_missing_haven_is_rejected(self):
        """The in-memory certificate carries no haven; its text form must
        still claim one of order three."""
        d = bicycle(3)
        lines = self.certificate_lines(d)
        assert verify_certificate(d, self.parse(d, lines)).valid
        with pytest.raises(ParseError, match="haven_order=3"):
            self.parse(d, [line for line in lines if line != "haven_order=3"])

    def test_wrong_haven_order_is_rejected(self):
        d = bicycle(3)
        lines = [line.replace("haven_order=3", "haven_order=2")
                 for line in self.certificate_lines(d)]
        with pytest.raises(ParseError, match="haven_order=3"):
            self.parse(d, lines)

    def test_unknown_verdict_is_rejected(self):
        assert not verify_certificate(
            digon(), Dtw1Certificate("MAYBE", None, None)
        ).valid

    def test_yes_without_decomposition_is_rejected(self):
        assert not verify_certificate(
            digon(), Dtw1Certificate("YES", None, None)
        ).valid

    def test_unknown_pattern_kind_is_rejected(self):
        w = MinorWitness("pentagon", None, (), {0: frozenset({0})})
        assert not verify_witness(digon(), w).valid

    def test_short_bicycle_length_is_rejected(self):
        w = MinorWitness("bicycle", 2, (), {0: frozenset({0}), 1: frozenset({1})})
        assert not verify_witness(digon(), w).valid

    def test_oversized_pattern_is_refused_before_it_is_built(self, monkeypatch):
        """The certificate alone sets a bicycle's length, so a forged one
        larger than the digraph is refused, and the replay oracle refuses
        it before the pattern is built."""
        d = bicycle(5)
        witness = extract_minor_witness(d)
        forged = dataclasses.replace(witness, length=500_000)

        def refuse(length):
            raise AssertionError(f"built a bicycle of length {length}")

        monkeypatch.setattr(dtw1, "bicycle", refuse)
        message = ("the pattern has more vertices than the digraph",)
        assert verify_witness(d, forged).violations == message
        rooted = dataclasses.replace(recognize_dtw1(d).rooted_sets, length=500_000)
        assert verify_certificate(d, Dtw1Certificate("NO", None, rooted)).violations == message
        a4 = MinorWitness("a4", None, (), {p: frozenset({p}) for p in range(4)})
        assert verify_witness(bicycle(3), a4).violations == message

    def test_wrong_pattern_image_is_rejected(self):
        d = bidirect(3, [(0, 1), (1, 2)])
        w = MinorWitness(
            "bicycle", 3, (), {0: frozenset({0}), 1: frozenset({1}), 2: frozenset({2})}
        )
        assert not verify_witness(d, w).valid


class TestHypertreeRoute:
    def test_directed_triangle_has_a_host_tree(self):
        route = hypertree_route(directed_cycle_digraph(3))
        assert route.is_hypertree
        report = validate_dtd(directed_cycle_digraph(3), route.decomposition)
        assert report.valid and report.width <= 1

    def test_digon_has_a_host_tree(self):
        route = hypertree_route(digon())
        assert route.is_hypertree
        assert validate_dtd(digon(), route.decomposition).valid

    @pytest.mark.parametrize("d", [bicycle(3), a4_digraph()], ids=["bicycle3", "a4"])
    def test_obstructions_have_no_host_tree(self, d):
        route = hypertree_route(d)
        assert not route.is_hypertree
        assert route.witness is None and route.decomposition is None

    def test_single_vertex_digraph(self):
        route = hypertree_route(Digraph(1, frozenset()))
        assert route.is_hypertree
        assert validate_dtd(Digraph(1, frozenset()), route.decomposition).valid

    def test_not_strongly_connected_raises(self):
        with pytest.raises(ValueError):
            hypertree_route(digraph_from_edges(2, [(0, 1)]))
