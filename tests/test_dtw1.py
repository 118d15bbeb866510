"""Tests for width-one recognition, its certificates, and the split tree."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from dtwone.digraph import (
    Digraph,
    TightSeparation,
    a4_digraph,
    bicycle,
    bidirect,
    butterfly_dominating_vertices,
    delete_vertex,
    digraph_from_edges,
    directed_cycle_digraph,
    is_strongly_2_connected,
    is_strongly_connected,
    quotient,
    separations_cross,
    strong_components,
    tight_separations,
)
from dtwone.cycles import cycle_hypergraph
from dtwone.decomp import validate_dtd
from dtwone import dtw1, games
from dtwone.dtw1 import (
    Dtw1Certificate,
    MinorWitness,
    extract_minor_witness,
    hypertree_route,
    recognize_dtw1,
    replay_script,
    s_decomposition,
    shore_contraction_script,
    verify_certificate,
    verify_witness,
    witness_pattern,
)
from dtwone.games import Haven, solve_game, verify_haven
from test_digraph import (
    random_strongly_connected,
    random_tree_edges,
    reference_tight_separations,
    separation_corpus,
)
from test_golden import random_corpus


def digon():
    return digraph_from_edges(2, [(0, 1), (1, 0)])


def bidirected_path(n):
    return bidirect(n, [(i, i + 1) for i in range(n - 1)])


def labeled_strongly_connected(n):
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        d = Digraph(n, frozenset(p for p, b in zip(pairs, bits) if b))
        if is_strongly_connected(d):
            yield d


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
    scanned for every degree and rebuilt on every contraction."""

    def __init__(self, d):
        self.base = d
        self.rep_of = list(range(d.n))
        self.members = {v: frozenset({v}) for v in range(d.n)}
        self.edges = set(d.edges)
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


class TestReplayDifferential:
    """The indexed replay state steps exactly like the edge-set one."""

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
            assert new.rep_of == ref.rep_of
            assert new.edges == ref.edges
            assert new.steps == ref.steps
            assert new.dense() == ref.dense()
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
        crashed = []
        for d in pattern_search_corpus():
            try:
                w = extract_minor_witness(d)
            except ValueError:
                continue
            except AssertionError as err:
                # The case analysis can still break its own invariant on a
                # NO instance (one 7-vertex input here); that produces no
                # script, so there is nothing to replay.
                assert "no cut vertex admits a usable shore contraction" in str(err)
                crashed.append(sorted(d.edges))
                continue
            assert self.replay_both(d, w.script).steps == list(w.script)
            replayed += 1
            steps += len(w.script)
        assert replayed >= 450 and steps >= 1000, (replayed, steps)
        assert len(crashed) <= 1, crashed


class TestShoreContraction:
    def test_two_vertex_shore_is_one_contraction(self):
        d = bidirected_path(3)
        steps = shore_contraction_script(d, {1, 2}, 1)
        state = replay_script(d, steps)
        assert len(state.members) == 2
        assert state.members[state.rep(2)] == frozenset({1, 2})

    def test_shore_sending_out_gets_an_out_branching(self):
        d = directed_cycle_digraph(3)
        assert shore_contraction_script(d, {0, 1}, 0) == [("contract", 0, 1)]

    def test_shore_receiving_gets_an_in_branching(self):
        d = directed_cycle_digraph(3)
        assert shore_contraction_script(d, {0, 2}, 0) == [("contract", 2, 0)]

    def test_non_branching_edges_are_deleted_first(self):
        d = bidirected_path(4)
        steps = shore_contraction_script(d, {1, 2, 3}, 1)
        assert steps == [
            ("del", 1, 2),
            ("del", 2, 3),
            ("contract", 3, 2),
            ("contract", 2, 1),
        ]
        state = replay_script(d, steps)
        assert state.members[state.rep(3)] == frozenset({1, 2, 3})

    def test_trivial_shore_is_empty(self):
        assert shore_contraction_script(digon(), {0}, 0) == []


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
        assert witness_pattern(extract_minor_witness(bicycle(4))).edges == bicycle(4).edges
        assert witness_pattern(extract_minor_witness(a4_digraph())).edges == a4_digraph().edges

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            extract_minor_witness(digon())

    def test_not_strongly_connected_raises(self):
        with pytest.raises(ValueError):
            extract_minor_witness(digraph_from_edges(3, [(0, 1), (1, 0), (1, 2)]))

    def test_no_dominating_vertex_raises(self):
        assert not butterfly_dominating_vertices(directed_cycle_digraph(3))
        with pytest.raises(ValueError):
            extract_minor_witness(directed_cycle_digraph(3))

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
            if not butterfly_dominating_vertices(d):
                continue
            seen += 1
            w = extract_minor_witness(d)
            report = verify_witness(d, w)
            assert report.valid, report.violations

    def test_a_digraph_no_case_fits_fails_an_assertion(self):
        with pytest.raises(AssertionError, match="bidirected triangle"):
            dtw1._case_analysis_steps(directed_cycle_digraph(3))


def reference_induced_edge_set(d, tup):
    pos = {v: i for i, v in enumerate(tup)}
    return frozenset((pos[a], pos[b]) for (a, b) in d.edges if a in pos and b in pos)


def reference_find_induced(d, size, template, canonical=None):
    """The permutation scan over every vertex tuple that the search replaced."""
    for tup in itertools.permutations(range(d.n), size):
        if canonical is not None and not canonical(tup):
            continue
        if reference_induced_edge_set(d, tup) == template:
            return tup
    return None


def reference_edge_in_small_cycle(d, edge):
    """Tries extra vertices from the whole digraph, not just the edge's neighbours."""
    a, b = edge
    others = [v for v in range(d.n) if v not in (a, b)]
    for size in (2, 3, 4):
        for extra in itertools.combinations(others, size - 2):
            for tup in itertools.permutations(sorted((a, b) + extra)):
                if reference_induced_edge_set(d, tup) in dtw1._SMALL_CYCLE_PATTERNS[size]:
                    return True
    return False


ORDERED_PAIR = lambda t: t[0] < t[1]
ORDERED_PAIRS = lambda t: t[0] < t[1] and t[2] < t[3]

# Every template with no filter, plus the filters the case analysis uses.
TEMPLATE_QUERIES = [
    (2, dtw1._DIGON, None),
    (3, dtw1._K3, None),
    (3, dtw1._K3_PLUS, None),
    (3, dtw1._K3_OUT, None),
    (3, dtw1._K3_OUT, ORDERED_PAIR),
    (3, dtw1._K3_IN, None),
    (3, dtw1._K3_IN, ORDERED_PAIR),
    (3, dtw1._K3_PLUS_PLUS, None),
    (4, dtw1._K22_UP, None),
    (4, dtw1._K22_UP, ORDERED_PAIRS),
]


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
    """The neighbour-driven search agrees with the permutation scan it replaced."""

    def test_find_induced_returns_the_reference_tuple(self):
        hits = [0] * len(TEMPLATE_QUERIES)
        two_regular = 0
        for d in pattern_search_corpus():
            two_regular += d.n >= 5 and all(
                len(d.out_neighbours(v)) == 2 == len(d.in_neighbours(v)) for v in range(d.n)
            )
            for q, (size, template, canonical) in enumerate(TEMPLATE_QUERIES):
                expected = reference_find_induced(d, size, template, canonical)
                got = dtw1._find_induced(d, size, template, canonical)
                assert got == expected, (sorted(d.edges), sorted(template))
                hits[q] += expected is not None
        assert all(hits) and two_regular >= 40, (hits, two_regular)

    def test_edge_in_small_cycle_matches_the_reference(self):
        for d in pattern_search_corpus():
            for e in d.sorted_edges():
                assert dtw1._edge_in_small_cycle(d, e) == reference_edge_in_small_cycle(d, e), (
                    sorted(d.edges), e
                )

    def test_bicycle_64_extracts_its_full_length_witness(self):
        d = bicycle(64)
        w = extract_minor_witness(d)
        assert (w.kind, w.length) == ("bicycle", 64)
        assert verify_witness(d, w).valid


def reference_reachable_from(d, sources):
    seen = set(sources)
    frontier = list(seen)
    while frontier:
        for w in d.out_neighbours(frontier.pop()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def reference_reaching(d, targets):
    seen = set(targets)
    frontier = list(seen)
    while frontier:
        for w in d.in_neighbours(frontier.pop()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def reference_case_one_steps(d):
    """`_case_one_steps` as it was when it built each d - v as a digraph and
    searched it for the X-shore."""
    dom = butterfly_dominating_vertices(d)
    saw_cut = False
    for v in range(d.n):
        sub, old_ids = delete_vertex(d, v)
        raw = strong_components(sub)
        if len(raw) <= 1:
            continue
        saw_cut = True
        fwd = {u: i for i, u in enumerate(old_ids)}
        comps = sorted(
            (frozenset(old_ids[i] for i in c) for c in raw),
            key=lambda c: (not (c & dom), min(c)),
        )
        for comp in comps:
            local = {fwd[u] for u in comp}
            if frozenset(old_ids[i] for i in reference_reaching(sub, local)) - comp:
                x_side = frozenset(old_ids[i] for i in reference_reachable_from(sub, local))
            else:
                x_side = comp
            if len(frozenset(range(d.n)) - x_side - {v}) < 2:
                continue
            shore = x_side | {v}
            collapsed, _ = quotient(d, [v if u in shore else u for u in range(d.n)])
            if not butterfly_dominating_vertices(collapsed):
                continue
            return shore_contraction_script(d, shore, v)
    assert saw_cut, "strongly 2-connected digraphs have no case here"
    raise AssertionError("no cut vertex admits a usable shore contraction")


def reference_round(d):
    """A case-analysis round as it was with its own strong 2-connectivity
    check; past case one the round is unchanged, so the rest is the program's."""
    if d.n > 3 and not is_strongly_2_connected(d):
        return ("steps", reference_case_one_steps(d), None)
    return dtw1._case_analysis_steps(d)


def outcome(fn, d):
    try:
        return fn(d)
    except AssertionError as err:
        return ("raised", str(err))


class TestCaseAnalysisReference:
    """Case one, found without a separate 2-connectivity check, takes the
    same step as the round that checked first and built each d - v."""

    @staticmethod
    def round_inputs(monkeypatch, run, corpus):
        """Every digraph a round of the case analysis sees while `run` goes
        over the corpus."""
        seen = []
        original = dtw1._case_analysis_steps

        def recording(d):
            seen.append(d)
            return original(d)

        monkeypatch.setattr(dtw1, "_case_analysis_steps", recording)
        for d in corpus:
            try:
                run(d)
            except ValueError:
                pass
            except AssertionError as err:
                assert "no cut vertex admits a usable shore contraction" in str(err)
        monkeypatch.undo()
        return seen

    def check_rounds(self, rounds):
        case_one = 0
        for d in rounds:
            expected = outcome(reference_round, d)
            assert outcome(dtw1._case_analysis_steps, d) == expected, sorted(d.edges)
            if d.n > 3:
                steps = outcome(dtw1._case_one_steps, d)
                assert (steps is None) == is_strongly_2_connected(d), sorted(d.edges)
                case_one += steps is not None
        return case_one

    def test_pattern_search_corpus(self, monkeypatch):
        rounds = self.round_inputs(monkeypatch, extract_minor_witness, pattern_search_corpus())
        case_one = self.check_rounds(rounds)
        assert len(rounds) >= 1200 and case_one >= 450, (len(rounds), case_one)

    def test_random_corpus(self, monkeypatch):
        rounds = self.round_inputs(monkeypatch, recognize_dtw1, random_corpus())
        case_one = self.check_rounds(rounds)
        assert len(rounds) >= 1200 and case_one >= 350, (len(rounds), case_one)


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


class TestSDecomposition:
    def test_digon_is_a_single_node(self):
        s = s_decomposition(digon())
        assert s.nodes == (0,)
        assert s.edges == ()
        assert s.territories[0] == frozenset({0, 1})

    def test_bidirected_path_splits_at_its_middle_vertex(self):
        s = s_decomposition(bidirected_path(3))
        assert sorted(sorted(t) for t in s.territories.values()) == [[0, 1], [1, 2]]
        ((edge, sep),) = s.separations.items()
        assert sep.cut_vertex == 1
        assert {sep.shoreA, sep.shoreB} == {frozenset({0, 1}), frozenset({1, 2})}

    def test_bidirected_triangle_stays_whole(self):
        d = bicycle(3)
        s = s_decomposition(d)
        assert s.nodes == (0,)
        assert s.pieces[0].edges == d.edges

    def test_directed_triangle_splits_into_two_digons(self):
        s = s_decomposition(directed_cycle_digraph(3))
        assert sorted(sorted(t) for t in s.territories.values()) == [[0, 1], [0, 2]]
        for piece in s.pieces.values():
            assert piece.n == 2

    def test_bidirected_star_splits_into_leaf_digons(self):
        star = bidirect(4, [(0, 3), (1, 3), (2, 3)])
        s = s_decomposition(star)
        assert sorted(sorted(t) for t in s.territories.values()) == [
            [0, 3], [1, 3], [2, 3],
        ]
        assert len(s.edges) == 2

    def test_single_vertex_raises(self):
        with pytest.raises(ValueError):
            s_decomposition(Digraph(1, frozenset()))

    def test_not_strongly_connected_raises(self):
        with pytest.raises(ValueError):
            s_decomposition(digraph_from_edges(2, [(0, 1)]))

    def test_tree_shape_and_shore_consistency(self):
        rng = random.Random(91)
        for _ in range(40):
            d = random_strongly_connected(rng, rng.choice([4, 5, 6]), 0.3)
            s = s_decomposition(d)
            assert len(s.edges) == len(s.nodes) - 1
            covered = frozenset().union(*s.territories.values())
            assert covered == frozenset(range(d.n))
            for e in s.edges:
                a, b = e
                left = s.shore_toward[(a, e)]
                right = s.shore_toward[(b, e)]
                assert left | right == frozenset(range(d.n))
                assert left & right == {s.separations[e].cut_vertex}

    def test_every_piece_is_strongly_2_connected(self):
        rng = random.Random(92)
        for _ in range(40):
            d = random_strongly_connected(rng, rng.choice([4, 5, 6]), 0.4)
            s = s_decomposition(d)
            for t in s.nodes:
                assert is_strongly_2_connected(s.pieces[t])
                assert len(s.territories[t]) >= 2

    def test_family_is_pairwise_laminar(self):
        rng = random.Random(93)
        for _ in range(40):
            d = random_strongly_connected(rng, rng.choice([4, 5, 6]), 0.5)
            family = list(s_decomposition(d).separations.values())
            for s, t in itertools.combinations(family, 2):
                assert not separations_cross(s, t)
                assert not separations_cross(t, s)

    def test_family_is_maximal_among_all_tight_separations(self):
        corpus = list(labeled_strongly_connected(3))
        rng = random.Random(94)
        corpus += [
            random_strongly_connected(rng, rng.choice([4, 5]), rng.choice([0.3, 0.6]))
            for _ in range(40)
        ]
        for d in corpus:
            family = set(s_decomposition(d).separations.values())
            for cand in brute_tight_separations(d):
                laminar = all(
                    not separations_cross(cand, f) and not separations_cross(f, cand)
                    for f in family
                )
                assert laminar == (cand in family), (sorted(d.edges), cand)


def reference_s_decomposition(d):
    """`s_decomposition` as it was when every round searched every piece."""
    pieces = [dtw1._PieceState(range(d.n), [])]
    tree_edges = []
    while True:
        best = None
        for pi, piece in enumerate(pieces):
            collapsed, labels = dtw1._collapse_piece(d, piece)
            for local in reference_tight_separations(collapsed):
                lifted = dtw1._lift_separation(d, piece, local, labels)
                key = lifted.sort_key()
                if best is None or key < best[0]:
                    best = (key, pi, lifted)
        if best is None:
            break
        _, pi, sep = best
        old = pieces[pi]
        v = sep.cut_vertex
        side_a = dtw1._PieceState(old.territory & sep.shoreA, [])
        side_b = dtw1._PieceState(old.territory & sep.shoreB, [])
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
    edges, separations, shore_toward = [], {}, {}
    for (ai, bi, sep) in tree_edges:
        e = tuple(sorted((rank[ai], rank[bi])))
        edges.append(e)
        separations[e] = sep
        shore_toward[(rank[ai], e)] = sep.shoreA
        shore_toward[(rank[bi], e)] = sep.shoreB
    territories, piece_digraphs, piece_labels = {}, {}, {}
    for old_index, piece in enumerate(pieces):
        t = rank[old_index]
        territories[t] = piece.territory
        piece_digraphs[t], piece_labels[t] = dtw1._collapse_piece(d, piece)
    return dtw1.SDecomposition(
        nodes=tuple(range(len(pieces))),
        edges=tuple(sorted(edges)),
        separations=separations,
        shore_toward=shore_toward,
        territories=territories,
        pieces=piece_digraphs,
        piece_labels=piece_labels,
    )


class TestSDecompositionCache:
    def test_matches_the_round_by_round_search(self):
        split = 0
        for d in separation_corpus():
            if d.n < 2:
                continue
            got = s_decomposition(d)
            expected = reference_s_decomposition(d)
            for f in dataclasses.fields(dtw1.SDecomposition):
                assert getattr(got, f.name) == getattr(expected, f.name), (f.name, sorted(d.edges))
            split += len(got.edges) >= 2
        assert split >= 100, split

    def test_each_piece_is_searched_once(self, monkeypatch):
        calls = []

        def counted(d, *args, **kwargs):
            calls.append(d.n)
            return tight_separations(d, *args, **kwargs)

        monkeypatch.setattr(dtw1, "tight_separations", counted)
        rng = random.Random(40)
        sdec = s_decomposition(bidirect(40, random_tree_edges(rng, 40)))
        assert len(sdec.edges) == 38
        assert len(calls) == 1 + 2 * len(sdec.edges)


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
        assert cert.witness is None and cert.haven is None

    def test_bidirected_triangle_gets_a_bicycle_witness(self):
        d = bicycle(3)
        cert = recognize_dtw1(d)
        assert cert.verdict == "NO"
        assert (cert.witness.kind, cert.witness.length) == ("bicycle", 3)
        assert cert.witness.script == ()
        assert cert.haven.order == 3
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

    def test_no_answers_enumerate_cycles_once(self, monkeypatch):
        calls = []

        def counted(d, *args, **kwargs):
            calls.append(d)
            return cycle_hypergraph(d, *args, **kwargs)

        monkeypatch.setattr(dtw1, "cycle_hypergraph", counted)
        monkeypatch.setattr(games, "cycle_hypergraph", counted)
        d = bicycle(5)
        cert = recognize_dtw1(d)
        assert cert.verdict == "NO" and verify_certificate(d, cert).valid
        assert calls == [d]

    def test_single_vertex_raises(self):
        with pytest.raises(ValueError):
            recognize_dtw1(Digraph(1, frozenset()))

    def test_not_strongly_connected_raises(self):
        with pytest.raises(ValueError):
            recognize_dtw1(digraph_from_edges(3, [(0, 1), (1, 2), (2, 1)]))


# Two 7-vertex NO instances on which the case analysis reaches a piece that
# is neither strongly 2-connected nor has a butterfly-dominating vertex, so
# `_case_one_steps` raises "no cut vertex admits a usable shore contraction".
CASE_ONE_CRASHES = [
    "0 4, 1 3, 1 5, 2 0, 2 4, 3 2, 3 5, 4 1, 4 6, 5 2, 5 4, 5 6, 6 1, 6 3",
    "0 3, 0 4, 1 2, 1 3, 2 0, 2 5, 3 0, 3 5, 4 1, 4 6, 5 4, 5 6, 6 1, 6 2",
]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the case-one shrinking step can break its own invariant")
@pytest.mark.parametrize("edges", CASE_ONE_CRASHES, ids=["seven-a", "seven-b"])
def test_case_one_crash_inputs_get_verified_no_certificates(edges):
    d = digraph_from_edges(7, [tuple(map(int, pair.split())) for pair in edges.split(", ")])
    assert not hypertree_route(d).is_hypertree
    cert = recognize_dtw1(d)
    assert cert.verdict == "NO"
    assert verify_certificate(d, cert).valid


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
        assert not verify_certificate(d, Dtw1Certificate("NO", None, cut, cert.haven)).valid

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

    def test_missing_haven_is_rejected(self):
        d = bicycle(3)
        cert = recognize_dtw1(d)
        assert not verify_certificate(
            d, Dtw1Certificate("NO", None, cert.witness, None)
        ).valid

    def test_wrong_haven_order_is_rejected(self):
        d = bicycle(3)
        cert = recognize_dtw1(d)
        bad = Haven(order=2, assignment=dict(cert.haven.assignment))
        assert not verify_certificate(
            d, Dtw1Certificate("NO", None, cert.witness, bad)
        ).valid

    def test_unknown_verdict_is_rejected(self):
        assert not verify_certificate(
            digon(), Dtw1Certificate("MAYBE", None, None, None)
        ).valid

    def test_yes_without_decomposition_is_rejected(self):
        assert not verify_certificate(
            digon(), Dtw1Certificate("YES", None, None, None)
        ).valid

    def test_unknown_pattern_kind_is_rejected(self):
        w = MinorWitness("pentagon", None, (), {0: frozenset({0})})
        assert not verify_witness(digon(), w).valid

    def test_short_bicycle_length_is_rejected(self):
        w = MinorWitness("bicycle", 2, (), {0: frozenset({0}), 1: frozenset({1})})
        assert not verify_witness(digon(), w).valid

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
