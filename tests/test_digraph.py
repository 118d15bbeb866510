"""Tests for the core digraph type and its structural operations."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtwone import digraph, suite
from dtwone.digraph import (
    Digraph,
    TightSeparation,
    a4_digraph,
    all_subsets,
    bicycle,
    bidirect,
    cut_vertex_shores,
    dense_digraph,
    digraph_from_edges,
    directed_cycle_digraph,
    immediate_dominators,
    is_directed_separation,
    is_strongly_2_connected,
    is_strongly_connected,
    round_trips,
    strong_component_of,
    strong_components,
    strong_components_minus_each,
    tight_separations,
)
from dtwone.dtw1 import _ReplayState, replay_script, shore_contraction_script
from dtwone.suite import labeled_strongly_connected


def random_strongly_connected(rng: random.Random, n: int, p: float) -> Digraph:
    """A random digraph patched up to be strongly connected.

    Start from a directed Hamiltonian cycle on a random permutation, then add
    each further arc independently with probability p.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                edges.add((u, v))
    d = Digraph(n, tuple(sorted(edges)))
    assert is_strongly_connected(d)
    return d


class TestConstruction:
    def test_rejects_loops(self):
        with pytest.raises(AssertionError):
            Digraph(2, ((0, 0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(AssertionError):
            Digraph(2, ((0, 2),))

    def test_edges_deduplicated_by_constructor(self):
        d = digraph_from_edges(3, [(2, 1), (0, 1), (2, 1)])
        assert d.sorted_edges() == [(0, 1), (2, 1)]

    def test_adjacency(self):
        d = digraph_from_edges(3, [(0, 1), (0, 2), (1, 0)])
        assert d.out_neighbours(0) == (1, 2)
        assert d.in_neighbours(0) == (1,)
        assert d.out_neighbours(2) == ()

    def test_bidirect(self):
        d = bidirect(3, [(0, 1), (1, 2)])
        assert d.sorted_edges() == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_directed_cycle(self):
        d = directed_cycle_digraph(3)
        assert d.sorted_edges() == [(0, 1), (1, 2), (2, 0)]

    def test_bicycle_is_bidirected_cycle(self):
        d = bicycle(3)
        assert d.n == 3
        assert is_strongly_connected(d)
        assert len(d.edges) == 6
        # Every edge lies in a digon.
        digons = {frozenset(e) for e in d.edges if (e[1], e[0]) in d.edges}
        assert len(digons) == 3

    def test_a4(self):
        d = a4_digraph()
        assert d.n == 4
        assert len(d.edges) == 8
        assert is_strongly_connected(d)
        assert is_strongly_2_connected(d)
        # Every vertex has total degree 4.
        for v in range(4):
            assert len(d.out_neighbours(v)) + len(d.in_neighbours(v)) == 4


class TestStrongComponents:
    def test_path_reverse_topological(self):
        d = digraph_from_edges(2, [(0, 1)])
        assert strong_components(d) == [{1}, {0}]

    def test_dag_diamond_order(self):
        d = digraph_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        comps = strong_components(d)
        assert comps[0] == {3}
        assert comps[-1] == {0}
        assert {frozenset(c) for c in comps} == {
            frozenset({i}) for i in range(4)
        }

    def test_two_cycles_bridged(self):
        d = digraph_from_edges(
            6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
        )
        assert strong_components(d) == [{3, 4, 5}, {0, 1, 2}]

    def test_strongly_connected(self):
        assert is_strongly_connected(directed_cycle_digraph(4))
        assert not is_strongly_connected(digraph_from_edges(2, [(0, 1)]))
        assert is_strongly_connected(Digraph(1, ()))
        assert is_strongly_connected(Digraph(0, ()))

    def test_removed_matches_the_induced_subgraph(self):
        # Same list, same order as the components of the renumbered
        # subgraph, mapped back to the original names.
        rng = random.Random(7)
        corpus = [random_strongly_connected(rng, rng.randint(2, 7), 0.2) for _ in range(20)]
        for _ in range(20):
            n = rng.randint(1, 7)
            corpus.append(Digraph(n, frozenset(
                (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3
            )))
        for d in corpus:
            for removed in all_subsets(range(d.n), 2):
                keep = [v for v in range(d.n) if v not in removed]
                sub, old_ids = induced_subgraph(d, keep)
                expected = [frozenset(old_ids[i] for i in c) for c in strong_components(sub)]
                assert strong_components(d, removed) == expected, (sorted(d.edges), removed)

    def test_matches_the_on_stack_reference(self):
        # Same components in the same order as the version with an
        # on-stack flag, on seeded digraphs that are strongly connected or
        # not, minus 0-2 vertices.
        rng = random.Random(112)
        split = 0
        for i in range(3_000):
            n = rng.randint(1, 14)
            p = rng.choice([0.1, 0.2, 0.35])
            if i % 2 and n >= 2:
                d = random_strongly_connected(rng, n, p)
            else:
                d = Digraph(n, frozenset(
                    (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
                ))
            removed = rng.sample(range(n), rng.randint(0, min(2, n)))
            got = strong_components(d, removed)
            assert got == reference_strong_components(d, removed), (sorted(d.edges), removed)
            split += len(got) >= 2
        assert split >= 1_400, split  # 1,521

    def test_strong_component_of_matches_the_condensation(self):
        # Every vertex of every component up to 12 vertices; on the larger
        # trees, the least and greatest vertex of each component.
        checked = 0
        for d in separation_corpus():
            for removed in all_subsets(range(d.n), 2):
                for comp in strong_components(d, removed):
                    for v in comp if d.n <= 12 else {min(comp), max(comp)}:
                        assert strong_component_of(d, v, removed) == comp, (
                            sorted(d.edges), removed, v
                        )
                        checked += 1
        assert checked >= 100_000, checked
        # `round_trips` from any source set is the forward reach intersected
        # with the backward reach, each a full walk of d - removed.
        rng = random.Random(146)
        kinds = set()
        for _ in range(3_000):
            n = rng.randint(1, 12)
            p = rng.choice((0.1, 0.2, 0.35, 0.6))
            d = digraph_from_edges(
                n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
            )
            removed = frozenset(v for v in range(n) if rng.random() < 0.2)
            rest = [v for v in range(n) if v not in removed]
            sources = frozenset(rng.sample(rest, rng.randint(0, len(rest))))
            expected = reference_reach(d, sources, removed) & reference_reach(
                d, sources, removed, backwards=True
            )
            assert round_trips(d, sources, removed) == expected, (
                sorted(d.edges), sources, removed
            )
            kinds.add((len(sources) > 1, len(expected) > len(sources)))
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}


class TestReachability:
    def test_cut_vertex_shores_reach_downstream(self):
        d = directed_cycle_digraph(4)
        # d - 0 is the path 1 -> 2 -> 3; only the source keeps its component.
        # {3} and {2} are entered, so their shores go second; {1} is not
        # entered and has an edge leaving it, so its shore goes first.
        assert cut_vertex_shores(d._out, d._in, 0, strong_components(d, (0,))) == [
            ({3}, {3}, False),
            ({2}, {2, 3}, False),
            ({1}, {1}, True),
        ]
        for d in (bicycle(3), Digraph(1, ())):
            assert cut_vertex_shores(d._out, d._in, 0, strong_components(d, (0,))) == []

    def test_induced_subgraph_mapping(self):
        d = digraph_from_edges(4, [(0, 2), (2, 3), (3, 0)])
        sub, old = induced_subgraph(d, {0, 2, 3})
        assert old == (0, 2, 3)
        assert sub.sorted_edges() == [(0, 1), (1, 2), (2, 0)]


def contractible(d, edge):
    """Whether a replay contracts the edge: the butterfly rule, that it is
    its tail's only out-edge or its head's only in-edge."""
    try:
        replay_script(d, [("contract", *edge)])
    except ValueError:
        return False
    return True


class TestButterfly:
    def test_contractible_unique_out(self):
        d = digraph_from_edges(3, [(0, 1), (1, 2), (2, 0), (2, 1)])
        # (0, 1) is the unique out-edge of 0.
        assert contractible(d, (0, 1))

    def test_contractible_unique_in(self):
        d = digraph_from_edges(3, [(0, 1), (0, 2), (1, 0)])
        # 0 has two out-edges, but (0, 1) is the unique in-edge of 1.
        assert contractible(d, (0, 1))

    def test_not_contractible(self):
        d = digraph_from_edges(3, [(0, 1), (0, 2), (2, 1)])
        # 0 has out-degree 2 and 1 has in-degree 2.
        assert not contractible(d, (0, 1))

    def test_contractible_requires_edge(self):
        d = digraph_from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="missing edge"):
            replay_script(d, [("contract", 1, 0)])

    def test_not_contractible_in_digon_rich(self):
        d = a4_digraph()
        for e in d.edges:
            assert not contractible(d, e)

    def test_contract_merges_and_relabels(self):
        d = digraph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        # Contracting (1, 2): the smaller label survives, vertex 3 becomes 2.
        c, labels = reference_quotient(d, [0, 1, 1, 3])
        assert c.n == 3
        assert labels == (0, 1, 3)
        assert c.sorted_edges() == [(0, 1), (1, 2), (2, 0)]
        assert dense_digraph(replay_script(d, [("contract", 1, 2)]).out) == (c, labels)

    def test_contract_triangle_to_digon(self):
        d = directed_cycle_digraph(3)
        c, labels = reference_quotient(d, [0, 0, 2])
        assert c.sorted_edges() == [(0, 1), (1, 0)]
        assert labels == (0, 2)
        assert dense_digraph(replay_script(d, [("contract", 0, 1)]).out) == (c, labels)

    def test_contract_drops_loops(self):
        d = digraph_from_edges(2, [(0, 1), (1, 0)])
        c, labels = reference_quotient(d, [0, 0])
        assert c.n == 1
        assert c.sorted_edges() == []
        assert labels == (0,)
        state = replay_script(d, [("contract", 1, 0)])
        assert dense_digraph(state.out) == (c, labels)
        assert state.edges == frozenset()

    def test_contraction_preserves_strong_connectivity(self):
        rng = random.Random(11)
        for _ in range(50):
            d = random_strongly_connected(rng, rng.randint(3, 7), 0.3)
            for (u, v) in d.edges:
                if contractible(d, (u, v)):
                    keep = min(u, v)
                    c, _ = reference_quotient(d, [keep if x in (u, v) else x for x in range(d.n)])
                    assert c.n == d.n - 1
                    assert is_strongly_connected(c)
                    replayed, _ = dense_digraph(replay_script(d, [("contract", u, v)]).out)
                    assert replayed == c


def reference_quotient(d, label_of):
    """Merge the vertices that share a label and number the classes densely:
    the `quotient` the program built digraphs with before `dense_digraph`.

    `label_of[v]` is the label of vertex v.  Returns (quotient, labels), where
    labels is the sorted tuple of distinct labels and vertex i of the
    quotient stands for labels[i].  Edges inside a class are dropped.
    """
    labels = tuple(sorted({label_of[v] for v in range(d.n)}))
    index = {label: i for i, label in enumerate(labels)}
    new = [index[label_of[v]] for v in range(d.n)]
    es = frozenset((new[a], new[b]) for (a, b) in d.edges if new[a] != new[b])
    return Digraph(len(labels), es), labels


def class_adjacency(d, label_of):
    """The out-adjacency of d's vertex classes, a set of head labels per
    label, as the replay state keeps it."""
    out = {label_of[v]: set() for v in range(d.n)}
    for (a, b) in d.edges:
        if label_of[a] != label_of[b]:
            out[label_of[a]].add(label_of[b])
    return out


class TestQuotient:
    """`dense_digraph` of a class adjacency is the reference quotient."""

    def test_labels_may_be_any_sortable_values(self):
        d = directed_cycle_digraph(4)
        label_of = {0: "b", 1: "a", 2: "b", 3: "c"}
        c, labels = reference_quotient(d, label_of)
        assert labels == ("a", "b", "c")
        # Vertices 0 and 2 form class "b", which becomes vertex 1.
        assert c.sorted_edges() == [(0, 1), (1, 0), (1, 2), (2, 1)]
        assert dense_digraph(class_adjacency(d, label_of)) == (c, labels)

    def test_parallel_edges_between_classes_merge(self):
        d = bidirect(4, [(0, 2), (1, 3), (0, 3)])
        c, labels = reference_quotient(d, [0, 0, 2, 2])
        assert labels == (0, 2)
        assert c.sorted_edges() == [(0, 1), (1, 0)]
        assert dense_digraph(class_adjacency(d, [0, 0, 2, 2])) == (c, labels)


class TestStrong2Connectivity:
    def test_small_conventions(self):
        assert is_strongly_2_connected(Digraph(1, ()))
        assert is_strongly_2_connected(bidirect(2, [(0, 1)]))

    def test_directed_cycle_is_not(self):
        # Deleting any vertex of a directed cycle leaves a directed path.
        assert not is_strongly_2_connected(directed_cycle_digraph(3))

    def test_bidirected_path_is_not(self):
        assert not is_strongly_2_connected(bidirect(3, [(0, 1), (1, 2)]))

    def test_bidirected_cycles_are(self):
        assert is_strongly_2_connected(bicycle(3))
        assert is_strongly_2_connected(bicycle(4))

    def test_matches_the_n_pass_reference(self):
        # Both answers at every stage of the test: n <= 2, not strongly
        # connected, a vertex of in- or out-degree one, a non-root
        # dominator, and vertex 0 a strong articulation point with every
        # dominator test passed.  Recorded: 584 True, and 6 small, 1,294
        # not strongly connected, 2,401 by degree, 283 by a dominator and 38
        # by vertex 0 False.
        rng = random.Random(21)
        corpus = [Digraph(0, ()), Digraph(1, ())]
        corpus += [Digraph(2, es) for es in all_subsets([(0, 1), (1, 0)], 2)]
        for _ in range(2000):
            n = rng.randint(3, 14)
            corpus.append(random_strongly_connected(rng, n, rng.choice([0.1, 0.2, 0.3, 0.5])))
            corpus.append(Digraph(n, {
                (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3
            }))
        for _ in range(600):
            corpus.append(glued_at_a_vertex(rng))
        stages = dict.fromkeys(
            ["small", "not strong", "degree", "dominator", "vertex 0", "True"], 0
        )
        for d in corpus:
            got = is_strongly_2_connected(d)
            assert got == reference_is_strongly_2_connected(d), sorted(d.edges)
            if d.n <= 2:
                stages["small"] += 1
            elif not is_strongly_connected(d):
                stages["not strong"] += 1
            elif any(len(d.out_neighbours(v)) < 2 or len(d.in_neighbours(v)) < 2
                     for v in range(d.n)):
                stages["degree"] += 1
            elif not got and len(strong_components(d, (0,))) == 1:
                stages["dominator"] += 1
            elif not got:
                stages["vertex 0"] += 1
            else:
                stages["True"] += 1
        floors = {"small": 6, "not strong": 1_200, "degree": 2_300, "dominator": 250,
                  "vertex 0": 30, "True": 550}
        assert all(stages[k] >= floor for k, floor in floors.items()), stages


class TestImmediateDominators:
    def test_path_and_diamond(self):
        path = directed_cycle_digraph(4)
        assert immediate_dominators(path, 0) == [0, 0, 1, 2]
        assert immediate_dominators(path, 0, reverse=True) == [0, 2, 3, 0]
        diamond = digraph_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert immediate_dominators(diamond, 0) == [0, 0, 0, 0]
        assert immediate_dominators(diamond, 1) == [None, 1, None, 1]
        assert immediate_dominators(diamond, 3, reverse=True) == [3, 3, 3, 3]

    def test_matches_the_definition(self):
        # x dominates v exactly when v is unreachable from the root in
        # d - x.  Both directions, any root, vertices the root misses.
        # Recorded: 10,474 reached non-root vertices, 2,930 of them with an
        # immediate dominator other than the root, and 6,300 unreached.
        rng = random.Random(22)
        reached = deep = unreached = 0
        for _ in range(1500):
            n = rng.randint(1, 12)
            p = rng.choice([0.1, 0.2, 0.3, 0.5])
            d = Digraph(n, {
                (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
            })
            root = rng.randrange(n)
            for reverse in (False, True):
                expected = reference_immediate_dominators(d, root, reverse)
                assert immediate_dominators(d, root, reverse) == expected, (
                    sorted(d.edges), root, reverse
                )
                reached += sum(x is not None for x in expected) - 1
                deep += sum(x not in (None, root) for x in expected)
                unreached += expected.count(None)
        assert reached >= 10_000 and deep >= 2_800 and unreached >= 6_000, (
            reached, deep, unreached
        )


class TestComponentsMinusEach:
    def test_matches_a_pass_per_vertex(self, monkeypatch):
        # Every (d, v) over `separation_corpus()`, the seeded dense draws on
        # 20, 30 and 40 vertices and digraphs glued at a vertex: the
        # components of the n-pass form, in an order in which no edge of
        # d - v runs from an earlier component to a later one.  Only vertex
        # 0 and the strong articulation points take a Tarjan pass.
        # The groups come in the documented order.  Recorded: 9,763 pairs;
        # 2,574 components reached from 0 but not reaching it, 983 neither
        # and 2,526 reaching 0 but not reached.
        rng = random.Random(5)
        corpus = [d for d in separation_corpus() if d.n >= 2]
        corpus += [suite.random_strongly_connected(rng, n, 0.15) for n in (20, 30, 40)]
        corpus += [glued_at_a_vertex(rng) for _ in range(100)]
        passes = []
        tarjan = digraph._tarjan

        def counted(*args):
            passes.append(None)
            return tarjan(*args)

        monkeypatch.setattr(digraph, "_tarjan", counted)
        pairs = 0
        groups = dict.fromkeys(["reached", "neither", "reaching"], 0)
        for d in corpus:
            expected = reference_minus_each(d)
            passes.clear()
            got = strong_components_minus_each(d)
            assert len(passes) == 1 + sum(len(comps) > 1 for comps in expected[1:])
            for v in range(d.n):
                assert sorted(got[v], key=min) == sorted(expected[v], key=min), (sorted(d.edges), v)
                at = {u: i for i, comp in enumerate(got[v]) for u in comp}
                assert all(at[a] >= at[b] for (a, b) in d.edges if v not in (a, b)), (
                    sorted(d.edges), v
                )
                if v:
                    reached = reference_reach(d, {0}, {v})
                    reaching = reference_reach(d, {0}, {v}, backwards=True)
                    ranks = [(u in reaching) * 2 + (u in reached) for u in map(min, got[v])]
                    assert ranks == sorted(ranks, key=[1, 0, 3, 2].index), (sorted(d.edges), v)
                    for rank, group in ((1, "reached"), (0, "neither"), (2, "reaching")):
                        groups[group] += ranks.count(rank)
                pairs += 1
        assert pairs >= 9_500 and min(groups.values()) >= 900, (pairs, groups)


def reference_minus_each(d):
    """`strong_components_minus_each` as it was: one Tarjan pass of d - v
    for every vertex v."""
    return [strong_components(d, (v,)) for v in range(d.n)]


class TestTightSeparations:
    def test_bidirected_path_single_separation(self):
        d = bidirect(3, [(0, 1), (1, 2)])
        seps = tight_separations(d)
        assert len(seps) == 1
        (s,) = seps
        assert s.cut_vertex == 1
        assert s.shoreA == frozenset({0, 1})
        assert s.shoreB == frozenset({1, 2})

    def test_separation_orientation_valid(self):
        rng = random.Random(3)
        for _ in range(60):
            d = random_strongly_connected(rng, rng.randint(3, 7), 0.25)
            for s in tight_separations(d):
                assert is_directed_separation(d, s.shoreA, s.shoreB)
                assert len(s.shoreA & s.shoreB) == 1
                assert len(s.shoreA) >= 2 and len(s.shoreB) >= 2

    def test_strongly_2_connected_has_none(self):
        assert tight_separations(a4_digraph()) == []
        assert tight_separations(bicycle(3)) == []
        assert tight_separations(bicycle(4)) == []

    def test_directed_cycle_separations(self):
        # Every vertex of a directed C4 is a cut vertex; each of the three
        # splits of the remaining path gives a separation, deduplicated to
        # two fresh ones per vertex.
        d = directed_cycle_digraph(4)
        seps = tight_separations(d)
        assert len(seps) == 8
        for s in seps:
            assert is_directed_separation(d, s.shoreA, s.shoreB)

    def test_bidirected_star_separations(self):
        d = bidirect(4, [(0, 1), (0, 2), (0, 3)])
        seps = tight_separations(d)
        assert [s.sort_key() for s in seps] == [
            ((0, 1), (0, 2, 3)),
            ((0, 1, 2), (0, 3)),
            ((0, 1, 3), (0, 2)),
        ]
        for s in seps:
            assert s.cut_vertex == 0
        # The crossing test acts on oriented separations; under the stored
        # orientations two of the three pairs happen to be laminar and one
        # crosses, and flipping one side of the crossing pair makes it
        # laminar too.
        assert not reference_separations_cross(seps[0], seps[1])
        assert not reference_separations_cross(seps[0], seps[2])
        assert reference_separations_cross(seps[1], seps[2])
        flipped = TightSeparation(seps[2].shoreB, seps[2].shoreA)
        assert not reference_separations_cross(seps[1], flipped)

    def test_crossing_detected_on_bidirected_cycle(self):
        # On the bidirected 4-cycle 0-1-2-3, the separation at cut 0
        # splitting {3,0}|{0,1,2} crosses the one at cut 1 splitting
        # {0,1}|{1,2,3}.
        s = TightSeparation(frozenset({3, 0}), frozenset({0, 1, 2}))
        t = TightSeparation(frozenset({0, 1}), frozenset({1, 2, 3}))
        assert reference_separations_cross(s, t)

    def test_contract_shore(self):
        d = bidirect(3, [(0, 1), (1, 2)])
        (s,) = tight_separations(d)
        c = s.cut_vertex
        # Collapse shore A onto its cut vertex.
        q, labels = reference_quotient(d, [c if v in s.shoreA else v for v in range(d.n)])
        assert q.n == 2
        assert q.sorted_edges() == [(0, 1), (1, 0)]
        assert labels == tuple(sorted((set(range(d.n)) - s.shoreA) | {c}))
        # Replaying the shore's contraction script gives the same digraph; the
        # merged class is named by its smallest member, not by the cut.
        state = _ReplayState(d)
        state.apply(shore_contraction_script(state, s.shoreA, c))
        assert dense_digraph(state.out)[0] == q
        assert state.members[state.rep(c)] == s.shoreA

    def test_sort_key_deterministic(self):
        d = bidirect(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        seps = tight_separations(d)
        keys = [s.sort_key() for s in seps]
        assert keys == sorted(keys)


def reference_strong_components(d, removed=()):
    """`strong_components` as it was with an on-stack flag per vertex and a
    component popped one vertex at a time: strong components of d minus
    `removed`, in reverse topological order of the condensation.

    The first component returned is a sink of the condensation; for the single
    edge a->b the result is [{b}, {a}].  Deterministic: Tarjan's algorithm with
    vertices visited in increasing order and sorted adjacency.  The removed
    vertices are marked visited before the first root, so the result is the
    list the induced subgraph on the other vertices would give, renumbered
    densely, in the same order, in the original names.
    """
    n = d.n
    index = [None] * n
    for x in removed:
        index[x] = -1
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(d.out_neighbours(root)))]
        while work:
            v, it = work[-1]
            pushed = False
            for w in it:
                if index[w] is None:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(d.out_neighbours(w))))
                    pushed = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(frozenset(comp))
    return comps


def reference_is_strongly_2_connected(d):
    """`is_strongly_2_connected` as it was, with one Tarjan pass per vertex:
    True if d stays strongly connected after deleting any single vertex, and
    on at most two vertices."""
    if d.n <= 2:
        return True
    if not is_strongly_connected(d):
        return False
    return all(len(strong_components(d, (v,))) == 1 for v in range(d.n))


def glued_at_a_vertex(rng):
    """Two dense strongly connected digraphs on 3-7 vertices sharing one
    vertex, shuffled: a strong articulation point, often with every in- and
    out-degree at least two."""
    a = random_strongly_connected(rng, rng.randint(3, 7), 0.7)
    b = random_strongly_connected(rng, rng.randint(3, 7), 0.7)
    n = a.n + b.n - 1
    name = list(range(n))
    rng.shuffle(name)
    shift = [name[0]] + name[a.n:]
    edges = {(name[u], name[v]) for (u, v) in a.edges}
    edges |= {(shift[u], shift[v]) for (u, v) in b.edges}
    return Digraph(n, edges)


def reference_immediate_dominators(d, root, reverse=False):
    """`immediate_dominators` from its definition: x dominates v when v is
    unreachable from the root in d - x, and v's immediate dominator is the
    strict dominator whose own dominators are all of v's strict ones."""
    reached = reference_reach(d, [root], (), reverse)
    dominators = {
        v: {
            x for x in reached
            if x in (v, root) or v not in reference_reach(d, [root], {x}, reverse)
        }
        for v in reached
    }
    out = [None] * d.n
    out[root] = root
    for v in reached - {root}:
        strict = dominators[v] - {v}
        (out[v],) = [x for x in strict if dominators[x] == strict]
    return out


def reference_separations_cross(s, t):
    """The crossing test on stored orientations: (A,B) and (C,D) cross when
    A∩C, B∩D, (A∩D)∖(B∩C) and (B∩C)∖(A∩D) are all non-empty."""
    a, b = s.shoreA, s.shoreB
    c, dd = t.shoreA, t.shoreB
    return bool(a & c) and bool(b & dd) and bool((a & dd) - (b & c)) and bool((b & c) - (a & dd))


def reference_reach(d, sources, removed, backwards=False):
    """Every vertex of d minus `removed` that the sources reach, or that
    reaches them when `backwards`: one full walk."""
    step = d.in_neighbours if backwards else d.out_neighbours
    seen = set(sources)
    stack = list(seen)
    while stack:
        for v in step(stack.pop()):
            if v not in removed and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def induced_subgraph(d, keep):
    """Induced subgraph on `keep`, with dense renaming.

    Returns (subgraph, old_ids) where old_ids[new] is the original vertex.
    """
    old_ids = tuple(sorted(keep))
    new_of = {old: new for new, old in enumerate(old_ids)}
    es = frozenset(
        (new_of[u], new_of[v]) for (u, v) in d.edges if u in new_of and v in new_of
    )
    return Digraph(len(old_ids), es), old_ids


def delete_vertex(d, v):
    """d - v with dense renaming; returns (subgraph, old_ids)."""
    return induced_subgraph(d, [u for u in range(d.n) if u != v])


def reference_is_directed_separation(d, shore_a, shore_b):
    """The edge-scan form of `is_directed_separation`."""
    if frozenset(shore_a) | frozenset(shore_b) != frozenset(range(d.n)):
        return False
    a_only = frozenset(shore_a) - frozenset(shore_b)
    b_only = frozenset(shore_b) - frozenset(shore_a)
    return not any(u in b_only and v in a_only for (u, v) in d.edges)


def generator_is_directed_separation(d, shore_a, shore_b):
    """`is_directed_separation` as it was when it scanned each B-only
    vertex's out-neighbours in a generator."""
    shore_a = frozenset(shore_a)
    shore_b = frozenset(shore_b)
    if shore_a | shore_b != d.vertex_set:
        return False
    a_only = shore_a - shore_b
    return all(a_only.isdisjoint(d.out_neighbours(u)) for u in shore_b - shore_a)


def other_reverse_topological_order(d, removed):
    """The strong components of d - removed from Tarjan's pass over d with
    its vertices renamed v -> n-1-v, mapped back: another reverse
    topological order of the same condensation."""
    flip = Digraph(d.n, frozenset((d.n - 1 - a, d.n - 1 - b) for (a, b) in d.edges))
    return [
        frozenset(d.n - 1 - u for u in comp)
        for comp in strong_components(flip, {d.n - 1 - u for u in removed})
    ]


def edge_scan_cut_vertex_shores(d, v, comps=None):
    """`cut_vertex_shores` as it was when it scanned every edge of d for
    the condensation of d - v."""
    if comps is None:
        comps = strong_components(d, (v,))
    if len(comps) <= 1:
        return []
    comp_of = {u: ci for ci, comp in enumerate(comps) for u in comp}
    succ = [set() for _ in comps]
    entered = set()
    for (a, b) in d.edges:
        if a != v and b != v and comp_of[a] != comp_of[b]:
            succ[comp_of[a]].add(comp_of[b])
            entered.add(comp_of[b])
    out = []
    for ci, comp in enumerate(comps):
        if ci in entered:
            out.append((comp, comp.union(*(out[cj][1] for cj in succ[ci])), False))
        else:
            out.append((comp, comp, True if succ[ci] else None))
    return out


def reference_tight_separations(d):
    """`tight_separations` as it was when it built each d - v as a digraph."""
    found = {}
    for v in range(d.n):
        sub, old_ids = delete_vertex(d, v)
        comps = [frozenset(old_ids[i] for i in comp) for comp in strong_components(sub)]
        if len(comps) <= 1:
            continue
        comp_of = {}
        for ci, comp in enumerate(comps):
            for u in comp:
                comp_of[u] = ci
        succ = {ci: set() for ci in range(len(comps))}
        pred = {ci: set() for ci in range(len(comps))}
        for (a, b) in d.edges:
            if a == v or b == v:
                continue
            ca, cb = comp_of[a], comp_of[b]
            if ca != cb:
                succ[ca].add(cb)
                pred[cb].add(ca)
        for ci in sorted(range(len(comps)), key=lambda i: min(comps[i])):
            if pred[ci]:
                closure = set()
                frontier = [ci]
                while frontier:
                    cj = frontier.pop()
                    if cj in closure:
                        continue
                    closure.add(cj)
                    frontier.extend(succ[cj])
                x = frozenset().union(*(comps[cj] for cj in closure))
            else:
                x = comps[ci]
            y = frozenset(u for u in range(d.n) if u != v) - x
            if not y:
                continue
            p = y | {v}
            q = x | {v}
            key = frozenset((p, q))
            if key in found:
                continue
            pq_valid = reference_is_directed_separation(d, p, q)
            qp_valid = reference_is_directed_separation(d, q, p)
            assert pq_valid or qp_valid
            if pq_valid and qp_valid:
                first, second = sorted((p, q), key=lambda s: tuple(sorted(s)))
            elif pq_valid:
                first, second = p, q
            else:
                first, second = q, p
            found[key] = TightSeparation(first, second)
    return sorted(found.values(), key=TightSeparation.sort_key)


def random_tree_edges(rng, n):
    return [(v, rng.randrange(v)) for v in range(1, n)]


def tree_plus_triangle(rng, n):
    """A bidirected random tree plus one digon closing a bidirected triangle."""
    edges = random_tree_edges(rng, n)
    nbrs = {v: [] for v in range(n)}
    for (u, v) in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    middle = rng.choice([v for v in range(n) if len(nbrs[v]) >= 2])
    a, c = rng.sample(nbrs[middle], 2)
    return bidirect(n, edges + [(a, c)])


def separation_corpus():
    """Every labeled strongly connected digraph on at most 4 vertices, 200
    seeded random strongly connected digraphs on 3-12 vertices, and 20
    seeded bidirected trees and 20 trees plus a triangle on at most 40."""
    for n in range(1, 5):
        yield from labeled_strongly_connected(n)
    rng = random.Random(404)
    for _ in range(200):
        yield random_strongly_connected(rng, rng.randint(3, 12), rng.choice([0.05, 0.1, 0.2, 0.4]))
    for _ in range(20):
        yield bidirect(n := rng.randint(2, 40), random_tree_edges(rng, n))
        yield tree_plus_triangle(rng, rng.randint(3, 40))


class TestSeparationReference:
    def test_tight_separations_match_the_subgraph_form(self):
        count = 0
        for d in separation_corpus():
            assert tight_separations(d) == reference_tight_separations(d), sorted(d.edges)
            count += 1
        assert count == 1 + 1 + 18 + 1606 + 200 + 40

    def test_given_components_in_another_order_give_the_same_separations(self):
        # The entries of d - v do not depend on which reverse topological
        # order its components come in, so a piece may keep the root pass's.
        reordered = 0
        for d in separation_corpus():
            minus = [other_reverse_topological_order(d, {v}) for v in range(d.n)]
            for v in range(d.n):
                assert sorted(minus[v], key=min) == sorted(strong_components(d, (v,)), key=min)
                assert sorted(
                    cut_vertex_shores(d._out, d._in, v, minus[v]), key=lambda t: min(t[0])
                ) == sorted(
                    cut_vertex_shores(d._out, d._in, v, strong_components(d, (v,))),
                    key=lambda t: min(t[0]),
                ), (sorted(d.edges), v)
                reordered += minus[v] != strong_components(d, (v,))
        assert reordered >= 500, reordered

    def test_cut_vertex_shores_match_the_edge_scan(self):
        # Also read off adjacency mappings of sets, as a piece keeps them.
        entries = entered = 0
        for d in separation_corpus():
            heads = {u: set(d.out_neighbours(u)) for u in range(d.n)}
            tails = {u: set(d.in_neighbours(u)) for u in range(d.n)}
            for v in range(d.n):
                orders = (strong_components(d, (v,)), other_reverse_topological_order(d, {v}))
                for comps in orders:
                    got = cut_vertex_shores(d._out, d._in, v, comps)
                    assert got == edge_scan_cut_vertex_shores(d, v, comps), (sorted(d.edges), v)
                    assert cut_vertex_shores(heads, tails, v, comps) == got, (sorted(d.edges), v)
                    entries += len(got)
                    entered += sum(x_first is False for (_, _, x_first) in got)
        # 23,198 entries, 12,754 of them entered by another component.
        assert entries >= 20_000 and entered >= 10_000, (entries, entered)

    def test_one_orientation_check_per_separation(self, monkeypatch):
        calls = []

        def counted(d, shore_a, shore_b):
            calls.append((shore_a, shore_b))
            return is_directed_separation(d, shore_a, shore_b)

        monkeypatch.setattr(digraph, "is_directed_separation", counted)
        d = bidirect(40, random_tree_edges(random.Random(41), 40))
        seps = tight_separations(d)
        assert len(seps) >= 38
        assert sorted(calls, key=lambda c: TightSeparation(*c).sort_key()) == [
            (s.shoreA, s.shoreB) for s in seps
        ]

    def test_is_directed_separation_matches_the_edge_scan(self):
        rng = random.Random(405)
        covering = overlapping = valid = 0
        for _ in range(400):
            n = rng.randint(1, 8)
            d = Digraph(n, frozenset(
                (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3
            ))
            for _ in range(10):
                a = frozenset(v for v in range(n) if rng.random() < 0.6)
                b = frozenset(v for v in range(n) if v not in a or rng.random() < 0.5)
                if rng.random() < 0.2:
                    b -= {rng.randrange(n)}
                covering += a | b == frozenset(range(n))
                overlapping += len(a & b) > 1
                got = is_directed_separation(d, a, b)
                assert got == reference_is_directed_separation(d, a, b), (sorted(d.edges), a, b)
                valid += got
        assert covering >= 1000 and overlapping >= 1000 and valid >= 500, (covering, overlapping, valid)

    def test_is_directed_separation_matches_the_generator_form(self):
        rng = random.Random(406)
        uncovering = overlapping = no_b_only = valid = 0
        for d in separation_corpus():
            for _ in range(4):
                a = frozenset(v for v in range(d.n) if rng.random() < 0.6)
                b = frozenset(v for v in range(d.n) if v not in a or rng.random() < 0.5)
                if rng.random() < 0.2:
                    b -= {rng.randrange(d.n)}
                if rng.random() < 0.2:
                    b &= a
                covering = a | b == d.vertex_set
                uncovering += not covering
                overlapping += len(a & b) > 1
                no_b_only += covering and not b - a
                got = is_directed_separation(d, a, b)
                assert got == generator_is_directed_separation(d, a, b), (sorted(d.edges), a, b)
                valid += got
        assert min(uncovering, overlapping, no_b_only, valid) >= 500, (
            uncovering, overlapping, no_b_only, valid
        )


class TestAllSubsets:
    def test_order(self):
        assert list(all_subsets([2, 0, 1], 2)) == [
            frozenset(),
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({1, 2}),
        ]


@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda e: e[0] != e[1]),
            ),
            st.frozensets(st.integers(0, n - 1)),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_strong_components_partition(args):
    n, edges, removed = args
    d = Digraph(n, tuple(sorted(edges)))
    comps = strong_components(d, removed)
    union = set()
    for c in comps:
        assert not (c & union)
        union |= c
    assert union == set(range(n)) - removed
    # Reverse topological: no arc from an earlier component to a later one.
    index = {}
    for i, c in enumerate(comps):
        for v in c:
            index[v] = i
    for u, v in d.edges:
        if u not in removed and v not in removed:
            assert index[u] >= index[v]
