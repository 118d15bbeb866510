"""Tests for the core digraph type and its structural operations."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtwone.digraph import (
    Digraph,
    TightSeparation,
    a4_digraph,
    all_subsets,
    bicycle,
    bidirect,
    butterfly_contractible,
    butterfly_dominating_vertices,
    cut_vertex_shores,
    delete_vertex,
    digraph_from_edges,
    directed_cycle_digraph,
    induced_subgraph,
    is_directed_separation,
    is_strongly_2_connected,
    is_strongly_connected,
    quotient,
    separations_cross,
    strong_components,
    tight_separations,
)
from dtwone.dtw1 import replay_script, shore_contraction_script
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


class TestReachability:
    def test_cut_vertex_shores_reach_downstream(self):
        d = directed_cycle_digraph(4)
        # d - 0 is the path 1 -> 2 -> 3; only the source keeps its component.
        assert cut_vertex_shores(d, 0) == [
            ({3}, {3}),
            ({2}, {2, 3}),
            ({1}, {1}),
        ]
        assert cut_vertex_shores(bicycle(3), 0) == []
        assert cut_vertex_shores(Digraph(1, ()), 0) == []

    def test_induced_subgraph_mapping(self):
        d = digraph_from_edges(4, [(0, 2), (2, 3), (3, 0)])
        sub, old = induced_subgraph(d, {0, 2, 3})
        assert old == (0, 2, 3)
        assert sub.sorted_edges() == [(0, 1), (1, 2), (2, 0)]


class TestButterfly:
    def test_contractible_unique_out(self):
        d = digraph_from_edges(3, [(0, 1), (1, 2), (2, 0), (2, 1)])
        # (0, 1) is the unique out-edge of 0.
        assert butterfly_contractible(d, (0, 1))

    def test_contractible_unique_in(self):
        d = digraph_from_edges(3, [(0, 1), (0, 2), (1, 0)])
        # 0 has two out-edges, but (0, 1) is the unique in-edge of 1.
        assert butterfly_contractible(d, (0, 1))

    def test_not_contractible(self):
        d = digraph_from_edges(3, [(0, 1), (0, 2), (2, 1)])
        # 0 has out-degree 2 and 1 has in-degree 2.
        assert not butterfly_contractible(d, (0, 1))

    def test_contractible_requires_edge(self):
        d = digraph_from_edges(2, [(0, 1)])
        with pytest.raises(AssertionError):
            butterfly_contractible(d, (1, 0))

    def test_not_contractible_in_digon_rich(self):
        d = a4_digraph()
        for e in d.edges:
            assert not butterfly_contractible(d, e)

    def test_contract_merges_and_relabels(self):
        d = digraph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        # Contracting (1, 2): the smaller label survives, vertex 3 becomes 2.
        c, labels = quotient(d, [0, 1, 1, 3])
        assert c.n == 3
        assert labels == (0, 1, 3)
        assert c.sorted_edges() == [(0, 1), (1, 2), (2, 0)]
        assert replay_script(d, [("contract", 1, 2)]).dense() == (c, labels)

    def test_contract_triangle_to_digon(self):
        d = directed_cycle_digraph(3)
        c, labels = quotient(d, [0, 0, 2])
        assert c.sorted_edges() == [(0, 1), (1, 0)]
        assert labels == (0, 2)
        assert replay_script(d, [("contract", 0, 1)]).dense() == (c, labels)

    def test_contract_drops_loops(self):
        d = digraph_from_edges(2, [(0, 1), (1, 0)])
        c, labels = quotient(d, [0, 0])
        assert c.n == 1
        assert c.sorted_edges() == []
        assert labels == (0,)
        state = replay_script(d, [("contract", 1, 0)])
        assert state.dense() == (c, labels)
        assert state.edges == frozenset()

    def test_contraction_preserves_strong_connectivity(self):
        rng = random.Random(11)
        for _ in range(50):
            d = random_strongly_connected(rng, rng.randint(3, 7), 0.3)
            for (u, v) in d.edges:
                if butterfly_contractible(d, (u, v)):
                    keep = min(u, v)
                    c, _ = quotient(d, [keep if x in (u, v) else x for x in range(d.n)])
                    assert c.n == d.n - 1
                    assert is_strongly_connected(c)
                    replayed, _ = replay_script(d, [("contract", u, v)]).dense()
                    assert replayed == c


class TestQuotient:
    def test_labels_may_be_any_sortable_values(self):
        d = directed_cycle_digraph(4)
        c, labels = quotient(d, {0: "b", 1: "a", 2: "b", 3: "c"})
        assert labels == ("a", "b", "c")
        # Vertices 0 and 2 form class "b", which becomes vertex 1.
        assert c.sorted_edges() == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_parallel_edges_between_classes_merge(self):
        d = bidirect(4, [(0, 2), (1, 3), (0, 3)])
        c, labels = quotient(d, [0, 0, 2, 2])
        assert labels == (0, 2)
        assert c.sorted_edges() == [(0, 1), (1, 0)]


class TestDominatingVertices:
    def test_directed_triangle_has_none(self):
        assert butterfly_dominating_vertices(directed_cycle_digraph(3)) == frozenset()

    def test_digon_both(self):
        d = bidirect(2, [(0, 1)])
        assert butterfly_dominating_vertices(d) == frozenset({0, 1})

    def test_three_vertex_census(self):
        # Among strongly connected digraphs on 3 vertices, exactly the one
        # with all six arcs has every vertex dominating; the rest have none.
        full = frozenset({0, 1, 2})
        seen_full = 0
        all_arcs = [(u, v) for u in range(3) for v in range(3) if u != v]
        for mask in range(1 << 6):
            edges = tuple(
                sorted(e for i, e in enumerate(all_arcs) if mask >> i & 1)
            )
            d = Digraph(3, edges)
            if not is_strongly_connected(d):
                continue
            dom = butterfly_dominating_vertices(d)
            if len(edges) == 6:
                assert dom == full
                seen_full += 1
            else:
                assert dom == frozenset()
        assert seen_full == 1

    def test_a4_all_dominating(self):
        assert butterfly_dominating_vertices(a4_digraph()) == frozenset(range(4))

    def test_strongly_2_connected_implies_all_dominating(self):
        rng = random.Random(5)
        found = 0
        for _ in range(200):
            d = random_strongly_connected(rng, rng.randint(3, 6), 0.5)
            if is_strongly_2_connected(d):
                found += 1
                assert butterfly_dominating_vertices(d) == frozenset(range(d.n))
        assert found > 10


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
        assert not separations_cross(seps[0], seps[1])
        assert not separations_cross(seps[0], seps[2])
        assert separations_cross(seps[1], seps[2])
        flipped = TightSeparation(seps[2].shoreB, seps[2].shoreA)
        assert not separations_cross(seps[1], flipped)

    def test_crossing_detected_on_bidirected_cycle(self):
        # On the bidirected 4-cycle 0-1-2-3, the separation at cut 0
        # splitting {3,0}|{0,1,2} crosses the one at cut 1 splitting
        # {0,1}|{1,2,3}.
        s = TightSeparation(frozenset({3, 0}), frozenset({0, 1, 2}))
        t = TightSeparation(frozenset({0, 1}), frozenset({1, 2, 3}))
        assert separations_cross(s, t)

    def test_contract_shore(self):
        d = bidirect(3, [(0, 1), (1, 2)])
        (s,) = tight_separations(d)
        c = s.cut_vertex
        # Collapse shore A onto its cut vertex.
        q, labels = quotient(d, [c if v in s.shoreA else v for v in range(d.n)])
        assert q.n == 2
        assert q.sorted_edges() == [(0, 1), (1, 0)]
        assert labels == tuple(sorted((set(range(d.n)) - s.shoreA) | {c}))
        # Replaying the shore's contraction script gives the same digraph; the
        # merged class is named by its smallest member, not by the cut.
        state = replay_script(d, shore_contraction_script(d, s.shoreA, c))
        assert state.dense()[0] == q
        assert state.members[state.rep(c)] == s.shoreA

    def test_sort_key_deterministic(self):
        d = bidirect(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        seps = tight_separations(d)
        keys = [s.sort_key() for s in seps]
        assert keys == sorted(keys)


def reference_is_directed_separation(d, shore_a, shore_b):
    """The edge-scan form of `is_directed_separation`."""
    if frozenset(shore_a) | frozenset(shore_b) != frozenset(range(d.n)):
        return False
    a_only = frozenset(shore_a) - frozenset(shore_b)
    b_only = frozenset(shore_b) - frozenset(shore_a)
    return not any(u in b_only and v in a_only for (u, v) in d.edges)


def reference_tight_separations(d, non_trivial_only=True):
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
            if not y and non_trivial_only:
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
            for trivial in (True, False):
                got = tight_separations(d, non_trivial_only=trivial)
                assert got == reference_tight_separations(d, trivial), sorted(d.edges)
            count += 1
        assert count == 1 + 1 + 18 + 1606 + 200 + 40

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
