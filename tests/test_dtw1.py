"""Tests for width-one recognition, its certificates, and the split tree."""

from __future__ import annotations

import dataclasses
import itertools
import random
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
    cut_vertex_shores,
    dense_digraph,
    digraph_from_edges,
    directed_cycle_digraph,
    is_strongly_2_connected,
    is_strongly_connected,
    strong_components,
    tight_separations,
)
from dtwone import check, cycles, digraph, dtw1, games, suite
from dtwone.check import (
    Dtw1Certificate,
    MinorWitness,
    replay_script,
    validate_dtd,
    verify_certificate,
    verify_witness,
)
from dtwone.dtw1 import (
    extract_minor_witness,
    hypertree_route,
    minor_haven,
    recognize_dtw1,
    s_decomposition,
    shore_contraction_script,
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
from dtwone.suite import bicycle_with_chord, bidirected_path, labeled_strongly_connected
from test_digraph import (
    reference_is_directed_separation,
    reference_quotient,
    reference_separations_cross,
    random_strongly_connected,
    random_tree_edges,
    reference_tight_separations,
    separation_corpus,
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
        new, ref = check._ReplayState(d), EdgeSetReplay(d)
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
    return shore_contraction_script(check._ReplayState(d), shore, cut)


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
    attachments = sorted_attachments(dtw1._attachments(sdec.tree_edges, node))
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
        got = [recognize_dtw1(d) for d in corpus]
        monkeypatch.setattr(dtw1, "_collapse", reference_collapse)
        for d, cert in zip(corpus, got):
            # Equal certificates: the same witness script and branch sets.
            assert cert == recognize_dtw1(d), sorted(d.edges)
        # Recorded: 113 NO answers, 1,752 script steps.
        witnesses = [cert.witness for cert in got if cert.verdict == "NO"]
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

    def test_a_tree_plus_a_triangle_builds_three_digraphs(self, monkeypatch):
        # The triangle is the one piece of three vertices.  Its s-decomposition
        # builds it once, the NO loop numbers the state densely once after
        # contracting its far shores, and the checker builds the pattern.
        # It took 5 when the loop rebuilt the piece from the whole digraph
        # to check the state against, and rebuilt the state through a
        # digraph of every input vertex.
        d = tree_plus_triangle(random.Random(7), 12)
        calls = 0
        original = Digraph.__post_init__

        def counted(self):
            nonlocal calls
            calls += 1
            original(self)

        monkeypatch.setattr(Digraph, "__post_init__", counted)
        cert = recognize_dtw1(d)
        assert (cert.verdict, cert.witness.kind, cert.witness.length) == ("NO", "bicycle", 3)
        assert calls == 3


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
        reference_collapse_piece(d, territory, dtw1._attachments(s.tree_edges, t))[0]
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
        ((a, b, sep),) = s.tree_edges
        assert sep.cut_vertex == 1
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
            for (a, b, sep) in s.tree_edges:
                assert sep.shoreA | sep.shoreB == everything
                assert sep.shoreA & sep.shoreB == {sep.cut_vertex}
                assert s.territories[a] <= sep.shoreA and s.territories[b] <= sep.shoreB
            for t, territory in enumerate(s.territories):
                covered = set(territory)
                for (cut, far, _) in dtw1._attachments(s.tree_edges, t):
                    assert far & territory == {cut}
                    covered |= far
                assert covered == everything
            split += len(s.edges) >= 2
        assert split >= 5, split

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
                attachments = dtw1._attachments(s.tree_edges, t)
                expected, labels = reference_collapse_piece(d, territory, attachments)
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

        def reoriented(territories, tree_edges):
            ai, bi, sep = tree_edges[0]
            flipped = [(bi, ai, TightSeparation(sep.shoreB, sep.shoreA)), *tree_edges[1:]]
            assert not reference_pairwise_laminar(flipped)
            return laminar(territories, flipped)

        monkeypatch.setattr(dtw1, "_laminar", reoriented)
        with pytest.raises(AssertionError, match="pairwise laminar") as err:
            s_decomposition(d)
        assert named_digraph(err.value) == d

    def test_a_lift_that_is_no_separation_names_the_digraph(self, monkeypatch):
        d = bidirect(4, [(0, 1), (1, 2), (2, 3)])
        monkeypatch.setattr(dtw1, "is_directed_separation", lambda *args: False)
        with pytest.raises(AssertionError, match="stopped being a directed separation") as err:
            s_decomposition(d)
        assert named_digraph(err.value) == d

    def test_a_key_that_is_not_its_lift_names_the_digraph(self, monkeypatch):
        # Every candidate keyed by its shores swapped: the least key is
        # not the winner's lifted separation.
        original = dtw1._entry

        def swapped(*args):
            entry = original(*args)
            return entry if entry.key is None else entry._replace(key=entry.key[::-1])

        monkeypatch.setattr(dtw1, "_entry", swapped)
        d = bidirect(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(AssertionError, match="key must be its lifted separation") as err:
            s_decomposition(d)
        assert named_digraph(err.value) == d

    def test_a_straddling_tree_edge_names_the_digraph(self, monkeypatch):
        # Every far shore lifted onto both sides: the path's second split
        # puts the far shore of its first on both of its shores.  The
        # lift stays a directed separation, and keys and lifts agree.
        original = dtw1._lifted_shores

        def both_sides(attachments, shore_a, shore_b):
            far = set().union(*(far for (_, far, _) in attachments))
            return tuple(side | far for side in original(attachments, shore_a, shore_b))

        monkeypatch.setattr(dtw1, "_lifted_shores", both_sides)
        d = bidirect(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(AssertionError, match="straddles the new separation") as err:
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
        ([(0, frozenset({0, 1, 4}), True)], "meet the piece in its cut"),
        ([(0, frozenset({0, 4}), True), (1, frozenset({1, 4}), True)], "overlap beyond their cuts"),
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
            family = [sep for (_, _, sep) in s_decomposition(d).tree_edges]
            for s, t in itertools.combinations(family, 2):
                assert not reference_separations_cross(s, t)
                assert not reference_separations_cross(t, s)

    def test_laminarity_walk_matches_the_pairwise_reference(self):
        # Every s-decomposition of the corpus is laminar by both checks, and
        # so is each family with one tree edge reoriented, its shores and
        # its nodes swapped, exactly when no two of its separations cross.
        # Recorded: 1,866 families and 4,142 reorientations, 1,929 of them
        # crossing.
        families = reoriented = crossing = 0
        for d in carry_over_corpus():
            if d.n < 2:
                continue
            sdec = s_decomposition(d)
            tree_edges = list(sdec.tree_edges)
            assert dtw1._laminar(sdec.territories, tree_edges)
            assert reference_pairwise_laminar(tree_edges)
            families += 1
            for i, (ai, bi, sep) in enumerate(tree_edges):
                flipped = tree_edges.copy()
                flipped[i] = (bi, ai, TightSeparation(sep.shoreB, sep.shoreA))
                expected = reference_pairwise_laminar(flipped)
                assert dtw1._laminar(sdec.territories, flipped) == expected, (sorted(d.edges), i)
                reoriented += 1
                crossing += not expected
        assert families >= 1_800 and reoriented >= 4_000 and crossing >= 1_800, (
            families, reoriented, crossing
        )

    def test_laminarity_walk_checks_the_shores(self):
        # A tree edge whose shores are swapped but whose nodes are not, a
        # shore that misses a territory vertex, and a tree that is not
        # connected all fail the walk, although the first keeps every
        # separation of the family as it was.
        d = bidirect(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sdec = s_decomposition(d)
        tree_edges = list(sdec.tree_edges)
        assert len(tree_edges) == 3 and dtw1._laminar(sdec.territories, tree_edges)
        ai, bi, sep = tree_edges[1]
        swapped = tree_edges.copy()
        swapped[1] = (ai, bi, TightSeparation(sep.shoreB, sep.shoreA))
        assert reference_pairwise_laminar(swapped)
        assert not dtw1._laminar(sdec.territories, swapped)
        short = tree_edges.copy()
        far = max(sep.shoreA | sep.shoreB)
        short[1] = (ai, bi, TightSeparation(sep.shoreA - {far}, sep.shoreB - {far}))
        assert not dtw1._laminar(sdec.territories, short)
        _, _, last = tree_edges[2]
        assert not dtw1._laminar(sdec.territories, [*tree_edges[:2], (ai, bi, last)])

    def test_family_is_maximal_among_all_tight_separations(self):
        corpus = list(labeled_strongly_connected(3))
        rng = random.Random(94)
        corpus += [
            random_strongly_connected(rng, rng.choice([4, 5]), rng.choice([0.3, 0.6]))
            for _ in range(40)
        ]
        for d in corpus:
            family = {sep for (_, _, sep) in s_decomposition(d).tree_edges}
            for cand in brute_tight_separations(d):
                laminar = all(
                    not reference_separations_cross(cand, f)
                    and not reference_separations_cross(f, cand)
                    for f in family
                )
                assert laminar == (cand in family), (sorted(d.edges), cand)


def reference_pairwise_laminar(tree_edges) -> bool:
    """The laminarity check as `s_decomposition` made it before the tree
    walk: no two separations of the tree edges cross, by
    `reference_separations_cross` on every pair."""
    return not any(
        reference_separations_cross(s, t)
        for (_, _, s), (_, _, t) in itertools.combinations(tree_edges, 2)
    )


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
                local_a = {labels[i] for i in local.shoreA}
                local_b = {labels[i] for i in local.shoreB}
                assert lifted == dtw1._lift_separation(d, piece.attachments, local_a, local_b)
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
    ranked = [(rank[ai], rank[bi], sep) for (ai, bi, sep) in tree_edges]
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


def record_searches(monkeypatch):
    """A list that gets (piece, least entry) for every searched piece, the
    piece a snapshot of its territory, attachments and entries taken when
    it was searched: a split edits the piece in place afterwards."""
    searched = []
    least_entry = dtw1._least_entry

    def recording(piece):
        snapshot = types.SimpleNamespace(
            territory=piece.territory,
            attachments=list(piece.attachments),
            entries=dict(piece.entries),
        )
        searched.append((snapshot, least_entry(piece)))
        return searched[-1][1]

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
        assert len(territory) >= 3, "a two-vertex piece is never built"
        counts["both children"] += last[0] == (parent.territory, cut)
        last[0] = (parent.territory, cut)
        before = dict(parent.entries)
        inside.append(set())
        child = split_off(parent, territory, cut, *args)
        fresh = inside.pop()
        assert set(child.entries) == set(territory)
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
    triples in label sets, key the `reference_lift_separation` of the
    shores in the orientation the edge scan finds valid."""
    collapsed, labels = reference_collapse_piece(d, territory, attachments)
    index = {label: j for j, label in enumerate(labels)}

    def local(shore):
        return frozenset(map(index.__getitem__, shore))

    out = {}
    for i, v in enumerate(labels):
        triples = []
        for _, x, x_first in cut_vertex_shores(
            collapsed._out, collapsed._in, i, strong_components(collapsed, (i,))
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
                key = reference_lift_separation(d, attachments, local_sep, labels).sort_key()
            triples.append((x, x_first, key))
        out[v] = triples
    return out


def canonical(entries):
    """(X-shore, x_first, key) triples in an order that does not depend on
    how their sets were built."""
    return sorted((tuple(sorted(x)), repr(x_first), key or ()) for (x, x_first, key) in entries)


class TestSDecompositionCache:
    def test_matches_the_round_by_round_search(self, monkeypatch):
        # Every carry-over path must fire on this corpus.  Recorded counts:
        # 32,541 carried entries, 413 re-keyed, and 7,028 recomputed
        # vertices with 14,346 entries, all in pieces of three or more
        # vertices; 1,449 splits build both children, the first from a
        # copy of the piece and the second by editing the piece itself.
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
                got_attachments = sorted_attachments(dtw1._attachments(got.tree_edges, t))
                assert got_attachments == attachments[t], (t, sorted(d.edges))
            split += len(got.edges) >= 2
        assert split >= 100, split
        floors = {"carried": 30_000, "re-keyed": 350, "recomputed vertices": 6_500,
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
        lifted = []
        lift = dtw1._lift_separation

        def counted(*args):
            lifted.append(lift(*args))
            return lifted[-1]

        monkeypatch.setattr(dtw1, "_lift_separation", counted)
        sdec = s_decomposition(bidirect(40, random_tree_edges(random.Random(40), 40)))
        assert len(sdec.edges) == 38
        assert len(lifted) == len(sdec.edges)
        assert sorted(lifted, key=TightSeparation.sort_key) == sorted(
            (sep for (_, _, sep) in sdec.tree_edges), key=TightSeparation.sort_key
        )

    def test_each_piece_keeps_the_least_reference_lift(self, monkeypatch):
        # Only the winner is lifted as a separation; it must still be the
        # least of every candidate's full lift.
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
            for piece, best in searched:
                collapsed, labels = reference_collapse_piece(d, piece.territory, piece.attachments)
                lifts = [
                    reference_lift_separation(d, piece.attachments, local, labels)
                    for local in tight_separations(collapsed)
                ]
                least = min(lifts, key=TightSeparation.sort_key, default=None)
                assert (best and best[1].key) == (least and least.sort_key()), (
                    sorted(d.edges), sorted(piece.territory)
                )
                chosen += len(lifts) >= 2
        assert chosen >= 3_000, chosen


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
                    got = [(x & piece.territory, x_first, key) for (x, x_first, key, _) in entries]
                    assert canonical(got) == canonical(expected[v]), (
                        sorted(d.edges), sorted(piece.territory), v
                    )
                    checked += len(got)
        # 71,433 entries, carried or fresh.
        assert checked >= 70_000, checked


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
        assert cert.witness is None

    def test_bidirected_triangle_gets_a_bicycle_witness(self):
        d = bicycle(3)
        cert = recognize_dtw1(d)
        assert cert.verdict == "NO"
        assert (cert.witness.kind, cert.witness.length) == ("bicycle", 3)
        assert cert.witness.script == ()
        assert minor_haven(d, cert.witness).order == 3
        assert verify_certificate(d, cert).valid

    def test_a4_gets_an_a4_witness(self):
        d = a4_digraph()
        cert = recognize_dtw1(d)
        assert cert.verdict == "NO"
        assert (cert.witness.kind, cert.witness.script) == ("a4", ())
        assert verify_certificate(d, cert).valid

    @pytest.mark.parametrize("length", [4, 5, 6])
    def test_bidirected_cycles_get_full_length_witnesses(self, length):
        d = bicycle(length)
        cert = recognize_dtw1(d)
        assert cert.verdict == "NO"
        assert (cert.witness.kind, cert.witness.length) == ("bicycle", length)
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
        assert cert.witness.script == (("del", 0, 3), ("contract", 3, 0))
        assert cert.witness.branch_sets == {
            0: frozenset({0, 3}),
            1: frozenset({1}),
            2: frozenset({2}),
        }
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
        """A NO answer is the minor witness alone: no haven is lifted and no
        strong component is walked until a checker asks for one."""
        def refuse(*args, **kwargs):
            raise AssertionError("recognize_dtw1 built a haven")

        for module, name in ((dtw1, "haven_from_minor"), (games, "haven_from_minor"),
                             (games, "strong_component_of"),
                             (check, "on_every_path"),
                             (digraph, "strong_component_of"), (digraph, "round_trips")):
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
            assert (cert.witness.kind, cert.witness.length) == pattern, sorted(d.edges)
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
        cert = recognize_dtw1(d)
        w = cert.witness
        cut = MinorWitness(w.kind, w.length, w.script[:-1], w.branch_sets)
        assert not verify_certificate(d, Dtw1Certificate("NO", None, cut)).valid

    def test_doctored_branch_sets_are_rejected(self):
        d = bicycle(3)
        cert = recognize_dtw1(d)
        w = cert.witness
        swapped = MinorWitness(
            w.kind,
            w.length,
            w.script,
            {0: frozenset({0, 1}), 1: frozenset({1}), 2: frozenset({2})},
        )
        assert not verify_witness(d, swapped).valid
        assert not verify_certificate(d, Dtw1Certificate("NO", None, swapped)).valid

    @pytest.mark.parametrize("d", [bicycle(6), tree_plus_triangle(random.Random(12), 12)],
                             ids=["bicycle6", "tree-plus-triangle"])
    def test_tampered_witnesses_are_rejected(self, d):
        """Each step of a valid NO witness swapped for the other kind,
        reversed or dropped, and each branch set's least vertex moved to the
        next set: `verify_certificate` rejects exactly the changed witnesses
        that fail replay, and those that still replay to the pattern are real
        witnesses whose derived haven passes."""
        w = recognize_dtw1(d).witness
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
            report = verify_certificate(d, Dtw1Certificate("NO", None, bad))
            assert report.valid == verify_witness(d, bad).valid
            rejected += not report.valid
        assert rejected >= len(witnesses) - len(w.script), (rejected, len(witnesses))

    def test_wrong_roots_are_caught(self, monkeypatch):
        """The haven checks of a NO certificate: Bicycle(3) with vertex 0
        stretched into the path 3 -> 0 has root 0 in the class {0, 3}.  A
        root outside its class, or rooted at 3, which gives h({2}) = {3} but
        h({0, 2}) = {1}, is reported."""
        d = digraph_from_edges(4, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0)])
        branch = {0: frozenset({0, 3}), 1: frozenset({1}), 2: frozenset({2})}
        cert = Dtw1Certificate("NO", None, MinorWitness("bicycle", 3, (("contract", 3, 0),), branch))
        assert verify_certificate(d, cert).valid
        for root, message in ((1, "root lies outside"), (3, "haven verification failed")):
            monkeypatch.setattr(check, "_roots", lambda state, sets: {0: root, 1: 1, 2: 2})
            report = verify_certificate(d, cert)
            assert not report.valid and message in report.violations[0]

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

    def test_adjacency_reads_stay_linear(self, monkeypatch):
        """Checking a NO certificate reads each vertex's adjacency a bounded
        number of times, whatever k: `Bicycle(k)` with and without the chord
        0 -> k/2, for k = 8, 64 and 512.  The replay reads each out- and
        in-list once, and each of the six sweeps reads an out-list at most
        twice, once to find its path and once to grow its search; a walk of
        d - y for each vertex y would read each about 2n times."""
        reads = Counter()

        def counted(read):
            def counting(self, u):
                reads[u] += 1
                return read(self, u)
            return counting

        for name in ("out_neighbours", "in_neighbours"):
            monkeypatch.setattr(Digraph, name, counted(getattr(Digraph, name)))
        for k in (8, 64, 512):
            for d in (bicycle(k), bicycle_with_chord(k)):
                cert = recognize_dtw1(d)
                reads.clear()
                assert verify_certificate(d, cert).valid
                assert max(reads.values()) <= 2 + 6 * 2, (k, reads.most_common(3))
                assert sum(reads.values()) <= 8 * k, (k, sum(reads.values()))

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
        larger than the digraph is refused before the pattern is built."""
        d = bicycle(5)
        witness = recognize_dtw1(d).witness
        forged = dataclasses.replace(witness, length=500_000)

        def refuse(length):
            raise AssertionError(f"built a bicycle of length {length}")

        monkeypatch.setattr(check, "bicycle", refuse)
        message = ("the pattern has more vertices than the digraph",)
        assert verify_witness(d, forged).violations == message
        assert verify_certificate(d, Dtw1Certificate("NO", None, forged)).violations == message
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
