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
    digraph_from_edges,
    directed_cycle_digraph,
    is_strongly_2_connected,
    is_strongly_connected,
    quotient,
    separations_cross,
    strong_components,
    tight_separations,
)
from dtwone.decomp import validate_dtd
from dtwone import cycles, digraph, dtw1, games
from dtwone.dtw1 import (
    Dtw1Certificate,
    MinorWitness,
    extract_minor_witness,
    hypertree_route,
    minor_haven,
    recognize_dtw1,
    replay_script,
    s_decomposition,
    shore_contraction_script,
    verify_certificate,
    verify_witness,
)
from dtwone.formats import (
    ParseError,
    format_certificate,
    header_lines,
    parse_certificate,
    read_document,
)
from dtwone.games import solve_game
from test_digraph import (
    delete_vertex,
    random_strongly_connected,
    random_tree_edges,
    reference_tight_separations,
    separation_corpus,
    tree_plus_triangle,
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
            assert new.rep_of == ref.rep_of
            assert new.edges == ref.edges
            assert new.steps == ref.steps
            assert new.dense() == ref.dense()
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


def reference_a4_embedding(d):
    """The permutation scan the case analysis used to place A4 on four vertices."""
    target = a4_digraph()
    if d.n != 4 or len(d.edges) != len(target.edges):
        return None
    for perm in itertools.permutations(range(4)):
        if all((perm[a], perm[b]) in d.edges for (a, b) in target.edges):
            return perm
    return None


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

    def test_a4_search_matches_the_permutation_scan(self):
        pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
        hits = 0
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            d = Digraph(4, frozenset(p for p, b in zip(pairs, bits) if b))
            expected = reference_a4_embedding(d)
            assert dtw1._find_induced(d, 4, a4_digraph().edges) == expected, sorted(d.edges)
            hits += expected is not None
        assert hits == 6

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
        return ("steps", reference_case_one_steps(d), "case one")
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


def collapsed_pieces(d, s):
    """Each node's piece with every far shore contracted onto its cut vertex."""
    return [
        dtw1._collapse_piece(d, territory, dtw1._attachments(s.tree_edges, t))[0]
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
        with pytest.raises(ValueError):
            s_decomposition(digraph_from_edges(2, [(0, 1)]))

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

    def test_family_is_pairwise_laminar(self):
        rng = random.Random(93)
        for _ in range(40):
            d = random_strongly_connected(rng, rng.choice([4, 5, 6]), 0.5)
            family = [sep for (_, _, sep) in s_decomposition(d).tree_edges]
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
            family = {sep for (_, _, sep) in s_decomposition(d).tree_edges}
            for cand in brute_tight_separations(d):
                laminar = all(
                    not separations_cross(cand, f) and not separations_cross(f, cand)
                    for f in family
                )
                assert laminar == (cand in family), (sorted(d.edges), cand)


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
    attachments, by node."""
    pieces = [_PieceState(range(d.n), [])]
    tree_edges = []
    while True:
        best = None
        for pi, piece in enumerate(pieces):
            collapsed, labels = dtw1._collapse_piece(d, piece.territory, piece.attachments)
            for local in reference_tight_separations(collapsed):
                lifted = reference_lift_separation(d, piece.attachments, local, labels)
                assert lifted == dtw1._lift_separation(d, piece.attachments, local, labels)
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
    )
    return record, [pieces[i].attachments for i in order]


class TestSDecompositionCache:
    def test_matches_the_round_by_round_search(self):
        split = 0
        for d in separation_corpus():
            if d.n < 2:
                continue
            got = s_decomposition(d)
            expected, attachments = reference_s_decomposition(d)
            for f in dataclasses.fields(dtw1.SDecomposition):
                assert getattr(got, f.name) == getattr(expected, f.name), (f.name, sorted(d.edges))
            assert got.edges == expected.edges
            for t in range(len(got.territories)):
                assert dtw1._attachments(got.tree_edges, t) == attachments[t], (
                    t, sorted(d.edges)
                )
            split += len(got.edges) >= 2
        assert split >= 100, split

    def test_one_tarjan_pass_per_root_vertex_and_per_new_cut(self, monkeypatch):
        removed_counts = []

        def counted(d, removed=()):
            removed_counts.append(len(removed))
            return strong_components(d, removed)

        monkeypatch.setattr(dtw1, "strong_components", counted)
        monkeypatch.setattr(digraph, "strong_components", counted)
        sdec = s_decomposition(bidirect(40, random_tree_edges(random.Random(40), 40)))
        assert len(sdec.edges) == 38
        assert removed_counts.count(1) == 40 + 2 * 38

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


class TestInheritedComponents:
    def test_tables_match_a_fresh_tarjan_pass(self, monkeypatch):
        # Every piece's table, inherited or not, against the strong
        # components of its collapsed piece minus each vertex.
        recorded = []
        least_candidate = dtw1._least_candidate

        def recording(d, territory, attachments, inherited):
            best, table = least_candidate(d, territory, attachments, inherited)
            recorded.append((d, territory, attachments, len(inherited), table))
            return best, table

        monkeypatch.setattr(dtw1, "_least_candidate", recording)
        rng = random.Random(410)
        corpus = list(separation_corpus())
        for _ in range(10):
            corpus.append(bidirect(n := rng.randint(2, 40), random_tree_edges(rng, n)))
            corpus.append(tree_plus_triangle(rng, rng.randint(3, 40)))
        for d in corpus:
            if d.n >= 2:
                s_decomposition(d)
        inherited = checked = 0
        for d, territory, attachments, inherited_count, table in recorded:
            collapsed, labels = dtw1._collapse_piece(d, territory, attachments)
            assert set(table) == set(territory)
            for i, label in enumerate(labels):
                expected = [frozenset(labels[j] for j in k) for k in strong_components(collapsed, (i,))]
                assert set(table[label]) == set(expected), (sorted(d.edges), sorted(territory), label)
                position = {u: ci for ci, k in enumerate(table[label]) for u in k}
                for (a, b) in collapsed.edges:
                    if i not in (a, b):
                        assert position[labels[a]] >= position[labels[b]], (
                            sorted(d.edges), sorted(territory), label, (a, b)
                        )
                checked += 1
            inherited += inherited_count
        # 43,254 entries in 10,893 pieces, 25,047 of them inherited.
        assert inherited >= 20_000 and checked - inherited >= 10_000, (inherited, checked)


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
                             (digraph, "strong_component_of")):
            monkeypatch.setattr(module, name, refuse)
        tree_and_triangle = bidirect(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (4, 5)])
        inputs = (bicycle(5), a4_digraph(), tree_and_triangle)
        certs = [recognize_dtw1(d) for d in inputs]
        assert [c.verdict for c in certs] == ["NO"] * 3
        monkeypatch.undo()
        assert all(verify_certificate(d, c).valid for d, c in zip(inputs, certs))

    def test_single_vertex_raises(self):
        with pytest.raises(ValueError):
            recognize_dtw1(Digraph(1, frozenset()))

    def test_not_strongly_connected_raises(self):
        with pytest.raises(ValueError):
            recognize_dtw1(digraph_from_edges(3, [(0, 1), (1, 2), (2, 1)]))


# NO instances on which a `_K3` step that deleted x->z and contracted y->z
# lost the obstruction: a later round reached a piece that is neither
# strongly 2-connected nor has a butterfly-dominating vertex, and
# `_case_one_steps` raised "no cut vertex admits a usable shore contraction".
# The two 7-vertex ones are the smallest repros; the census ones are every
# crash among 1,500 draws of `rng = random.Random(7)`, `n = rng.randint(7, 11)`,
# `p = rng.choice((0.05, 0.1, 0.15, 0.2))`,
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


@pytest.mark.parametrize("index", RANDOM_CORPUS_CRASHES)
def test_random_corpus_crash_inputs_agree_with_the_hypertree_route(index):
    d = list(random_corpus())[index]
    assert not hypertree_route(d).is_hypertree
    assert recognize_dtw1(d).verdict == "NO"


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
            monkeypatch.setattr(dtw1, "_roots", lambda state, sets: {0: root, 1: 1, 2: 2})
            report = verify_certificate(d, cert)
            assert not report.valid and message in report.violations[0]

    def certificate_lines(self, d):
        names = tuple(str(v) for v in range(d.n))
        cert = recognize_dtw1(d)
        return format_certificate(cert, names, header_lines("recognize", digraph=d))

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

    def test_one_walk_per_cop_set(self, monkeypatch):
        """Checking a NO certificate walks each cop set's strong component
        once: C(8,2) + 8 + 1 walks on Bicycle(8), none of them repeated."""
        d = bicycle(8)
        cert = recognize_dtw1(d)
        calls = []

        def counted(*args):
            calls.append(args)
            return digraph.strong_component_of(*args)

        monkeypatch.setattr(games, "strong_component_of", counted)
        assert verify_certificate(d, cert).valid
        assert len(calls) == 28 + 8 + 1
        assert len({frozenset(removed) for (_, _, removed) in calls}) == len(calls)

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
