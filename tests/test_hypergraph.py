"""Tests for hypergraph machinery and the exact width oracles."""

from __future__ import annotations

import itertools
import random

import pytest

from dtwone import decomp, hypergraph
from dtwone.decomp import exact_hbw, exact_hw, leaf_labeled_subcubic_trees
from dtwone.errors import InstanceTooLarge
from dtwone.hypergraph import (
    Hypergraph,
    UGraph,
    dual,
    has_helly,
    hypergraph_from_edges,
    hypertree_witness,
    is_alpha_acyclic,
    is_chordal,
    is_conformal,
    line_graph,
    two_section,
)


def random_hypergraph(rng: random.Random, max_vertices: int, max_edges: int) -> Hypergraph:
    n = rng.randint(1, max_vertices)
    m = rng.randint(1, max_edges)
    edges = []
    for _ in range(m):
        size = rng.randint(1, n)
        edges.append(frozenset(rng.sample(range(n), size)))
    return hypergraph_from_edges(edges)


def brute_force_helly(h: Hypergraph) -> bool:
    m = len(h.edges)
    for size in range(2, m + 1):
        for family in itertools.combinations(range(m), size):
            if all(
                h.edges[i] & h.edges[j]
                for i, j in itertools.combinations(family, 2)
            ):
                if not frozenset.intersection(*(h.edges[i] for i in family)):
                    return False
    return True


def triple_helly(h: Hypergraph) -> bool:
    """Independent route: the Helly property holds iff for every three
    vertices, the hyperedges containing at least two of them share a vertex."""
    for triple in itertools.combinations(sorted(h.vertices), 3):
        family = [e for e in h.edges if len(e & set(triple)) >= 2]
        if family and not frozenset.intersection(*family):
            return False
    return True


def brute_force_chordal(g: UGraph) -> bool:
    """A graph is chordal iff no vertex subset induces a cycle of length >= 4."""
    vs = list(g.vertices)
    for size in range(4, len(vs) + 1):
        for sub in itertools.combinations(vs, size):
            degs = [sum(1 for w in sub if w != v and g.has_edge(v, w)) for v in sub]
            if any(deg != 2 for deg in degs):
                continue
            # 2-regular induced subgraph: a cycle iff connected.
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                u = stack.pop()
                for w in sub:
                    if w not in seen and g.has_edge(u, w):
                        seen.add(w)
                        stack.append(w)
            if len(seen) == size:
                return False
    return True


def bidirected_triangle_cycle_hypergraph() -> Hypergraph:
    """The cycle hypergraph of the bidirected triangle, spelled out: three
    digons and both orientations of the triangle."""
    return Hypergraph(
        (0, 1, 2),
        (
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({1, 2}),
            frozenset({0, 1, 2}),
            frozenset({0, 1, 2}),
        ),
    )


class TestHypergraphType:
    def test_rejects_empty_edge(self):
        with pytest.raises(AssertionError):
            Hypergraph((0,), (frozenset(),))

    def test_rejects_isolated_vertex(self):
        with pytest.raises(AssertionError):
            Hypergraph((0, 1), (frozenset({0}),))

    def test_rejects_undeclared_vertex(self):
        with pytest.raises(AssertionError):
            Hypergraph((0,), (frozenset({0, 1}),))

    def test_empty_hypergraph_allowed(self):
        h = Hypergraph((), ())
        assert h.vertices == () and h.edges == ()

    def test_duplicates_kept(self):
        h = hypergraph_from_edges([{0, 1}, {0, 1}])
        assert len(h.edges) == 2


class TestDual:
    def test_single_edge(self):
        h = hypergraph_from_edges([{0, 1}])
        dd = dual(h)
        assert dd.vertices == (0,)
        assert dd.edges == (frozenset({0}), frozenset({0}))

    def test_bidirected_triangle_dual_degrees(self):
        dd = dual(bidirected_triangle_cycle_hypergraph())
        assert len(dd.vertices) == 5
        assert all(len(e) == 4 for e in dd.edges)

    def test_double_dual_isomorphic_for_reduced(self):
        h = hypergraph_from_edges([{0, 1}, {1, 2}])
        back = dual(dual(h))
        assert back.edges == h.edges

    def test_empty(self):
        assert dual(Hypergraph((), ())).edges == ()


class TestSections:
    def test_two_section_single_edge_is_clique(self):
        g = two_section(hypergraph_from_edges([{0, 1, 2}]))
        assert g.edges == frozenset(
            {frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})}
        )

    def test_two_section_path(self):
        g = two_section(hypergraph_from_edges([{0, 1}, {1, 2}]))
        assert g.edges == frozenset({frozenset({0, 1}), frozenset({1, 2})})

    def test_line_graph_disjoint_edges(self):
        g = line_graph(hypergraph_from_edges([{0, 1}, {2, 3}]))
        assert g.vertices == (0, 1)
        assert g.edges == frozenset()

    def test_line_graph_triangle(self):
        g = line_graph(hypergraph_from_edges([{0, 1}, {1, 2}, {0, 2}]))
        assert len(g.edges) == 3

    def test_line_graph_is_two_section_of_dual(self):
        rng = random.Random(23)
        for _ in range(80):
            h = random_hypergraph(rng, 5, 5)
            assert line_graph(h).edges == two_section(dual(h)).edges


class TestAlphaAcyclicity:
    def test_single_edge(self):
        assert is_alpha_acyclic(hypergraph_from_edges([{0, 1, 2}]))

    def test_triangle_stalls(self):
        assert not is_alpha_acyclic(hypergraph_from_edges([{0, 1}, {1, 2}, {0, 2}]))

    def test_contained_edges_reduce(self):
        assert is_alpha_acyclic(
            hypergraph_from_edges([{0, 1}, {0, 1, 2}, {2, 3}, {0, 1}])
        )

    def test_empty(self):
        assert is_alpha_acyclic(Hypergraph((), ()))

    def test_bidirected_triangle_dual_not_acyclic(self):
        assert not is_alpha_acyclic(dual(bidirected_triangle_cycle_hypergraph()))

    def test_order_independence(self):
        rng = random.Random(31)
        for _ in range(100):
            h = random_hypergraph(rng, 5, 5)
            reversed_h = Hypergraph(h.vertices, tuple(reversed(h.edges)))
            assert is_alpha_acyclic(h) == is_alpha_acyclic(reversed_h)


class TestHelly:
    def test_single_edge(self):
        assert has_helly(hypergraph_from_edges([{0, 1}]))

    def test_triangle_fails(self):
        assert not has_helly(hypergraph_from_edges([{0, 1}, {1, 2}, {0, 2}]))

    def test_bidirected_triangle_cycles_fail(self):
        # The digon triple is pairwise intersecting with empty core.
        assert not has_helly(bidirected_triangle_cycle_hypergraph())

    def test_matches_brute_force_and_triple_characterisation(self):
        rng = random.Random(5)
        for _ in range(120):
            h = random_hypergraph(rng, 6, 6)
            expected = brute_force_helly(h)
            assert has_helly(h) == expected
            assert triple_helly(h) == expected


class TestChordal:
    def test_c4(self):
        g = UGraph(
            (0, 1, 2, 3),
            frozenset(
                {
                    frozenset({0, 1}),
                    frozenset({1, 2}),
                    frozenset({2, 3}),
                    frozenset({0, 3}),
                }
            ),
        )
        assert not is_chordal(g)

    def test_tree(self):
        g = UGraph(
            (0, 1, 2, 3),
            frozenset({frozenset({0, 1}), frozenset({1, 2}), frozenset({1, 3})}),
        )
        assert is_chordal(g)

    def test_k4(self):
        g = UGraph(
            (0, 1, 2, 3),
            frozenset(
                frozenset(p) for p in itertools.combinations(range(4), 2)
            ),
        )
        assert is_chordal(g)

    def test_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(120):
            n = rng.randint(1, 7)
            edges = frozenset(
                frozenset(p)
                for p in itertools.combinations(range(n), 2)
                if rng.random() < 0.4
            )
            g = UGraph(tuple(range(n)), edges)
            assert is_chordal(g) == brute_force_chordal(g)


class TestConformal:
    def test_single_edge(self):
        assert is_conformal(hypergraph_from_edges([{0, 1, 2}]))

    def test_triangle_fails(self):
        assert not is_conformal(hypergraph_from_edges([{0, 1}, {1, 2}, {0, 2}]))

    def test_contained_edge_is_no_obstacle(self):
        assert is_conformal(hypergraph_from_edges([{0, 1}, {0, 1, 2}]))

    def test_single_cycle_hypergraph(self):
        assert is_conformal(hypergraph_from_edges([{0, 1, 2}]))


class TestHypertreeWitness:
    def test_path(self):
        w = hypertree_witness(hypergraph_from_edges([{0, 1}, {1, 2}]))
        assert w is not None
        assert w.tree.edges == frozenset({frozenset({0, 1}), frozenset({1, 2})})
        assert w.subtrees == (frozenset({0, 1}), frozenset({1, 2}))

    def test_single_big_edge(self):
        w = hypertree_witness(hypergraph_from_edges([{0, 1, 2}]))
        assert w is not None
        assert len(w.tree.edges) == 2

    def test_bidirected_triangle_cycles_have_none(self):
        assert hypertree_witness(bidirected_triangle_cycle_hypergraph()) is None

    def test_witness_is_deterministic_and_valid(self):
        rng = random.Random(41)
        for _ in range(100):
            h = random_hypergraph(rng, 6, 5)
            w1 = hypertree_witness(h)
            w2 = hypertree_witness(h)
            assert (w1 is None) == (w2 is None)
            if w1 is None:
                continue
            assert w1.tree.edges == w2.tree.edges
            assert len(w1.tree.edges) == len(h.vertices) - 1
            # re-verify independently: every hyperedge spans a connected piece
            for e in h.edges:
                seen = {min(e)}
                stack = [min(e)]
                while stack:
                    u = stack.pop()
                    for x in w1.tree.neighbours(u):
                        if x in e and x not in seen:
                            seen.add(x)
                            stack.append(x)
                assert seen == set(e)


class TestExactHw:
    def test_single_edge(self):
        width, dec = exact_hw(hypergraph_from_edges([{0, 1, 2}]), 3)
        assert width == 1
        assert dec.width == 1

    def test_triangle_is_two(self):
        width, dec = exact_hw(hypergraph_from_edges([{0, 1}, {1, 2}, {0, 2}]), 3)
        assert width == 2
        assert dec.width == 2

    def test_dual_of_digon_cycles(self):
        # One directed cycle through both vertices: dual has a single vertex
        # and two copies of the singleton hyperedge.
        h = Hypergraph((0, 1), (frozenset({0, 1}),))
        width, _ = exact_hw(dual(h), 2)
        assert width == 1

    def test_dual_of_bidirected_triangle_cycles(self):
        width, _ = exact_hw(dual(bidirected_triangle_cycle_hypergraph()), 4)
        assert width == 2

    def test_bound_respected(self):
        assert exact_hw(hypergraph_from_edges([{0, 1}, {1, 2}, {0, 2}]), 1) is None

    def test_empty(self):
        width, dec = exact_hw(Hypergraph((), ()), 1)
        assert width == 0
        assert dec.nodes == ()

    def test_size_guard(self):
        big = hypergraph_from_edges([{i, i + 1} for i in range(8)])
        with pytest.raises(InstanceTooLarge):
            exact_hw(big, 2)

    def test_width_one_is_searched_not_tested(self, monkeypatch):
        # Width 1 comes from the same search as every other width, so it is
        # an independent check of alpha-acyclicity.  exact_hw lives in
        # decomp: a name bound there or a call through the hypergraph
        # module both reach the refusal.
        def refuse(h):
            raise AssertionError("exact_hw must not call is_alpha_acyclic")

        monkeypatch.setattr(hypergraph, "is_alpha_acyclic", refuse)
        monkeypatch.setattr(decomp, "is_alpha_acyclic", refuse, raising=False)
        cases = [
            (hypergraph_from_edges([{0, 1, 2}]), 1),
            (hypergraph_from_edges([{0, 1}, {1, 2}, {2, 3}]), 1),
            (hypergraph_from_edges([{0, 1, 2}, {0, 1}, {1, 2}, {0, 2}]), 1),
            (hypergraph_from_edges([{0, 1}, {1, 2}, {0, 2}]), 2),
            (dual(Hypergraph((0, 1), (frozenset({0, 1}),))), 1),
            (dual(bidirected_triangle_cycle_hypergraph()), 2),
        ]
        for h, expected in cases:
            width, dec = exact_hw(h, 3)
            assert width == dec.width == expected
            assert exact_hw(h, expected - 1) is None

    def test_acyclic_iff_width_one(self):
        rng = random.Random(59)
        for _ in range(60):
            h = random_hypergraph(rng, 5, 5)
            width, _ = exact_hw(h, 5)
            assert (width <= 1) == is_alpha_acyclic(h)


class TestSubcubicTrees:
    @pytest.mark.parametrize("m,count", [(2, 1), (3, 1), (4, 3), (5, 15), (6, 105)])
    def test_counts(self, m, count):
        trees = list(leaf_labeled_subcubic_trees(m))
        assert len(trees) == count
        assert len(set(trees)) == count

    def test_degrees_and_leaves(self):
        for t in leaf_labeled_subcubic_trees(5):
            deg = {}
            for a, b in t:
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
            for leaf in range(5):
                assert deg[leaf] == 1
            for node, d in deg.items():
                if node >= 5:
                    assert d == 3
            assert len(t) == len(deg) - 1


class TestExactHbw:
    def test_single_edge(self):
        width, dec = exact_hbw(hypergraph_from_edges([{0, 1, 2}]), 3)
        assert width == 0
        assert dec.nodes == (0,)

    def test_two_overlapping_edges(self):
        width, _ = exact_hbw(hypergraph_from_edges([{0, 1}, {1, 2}]), 3)
        assert width == 1

    def test_two_disjoint_edges(self):
        width, _ = exact_hbw(hypergraph_from_edges([{0, 1}, {2, 3}]), 3)
        assert width == 0

    def test_dual_of_digon_cycles(self):
        h = Hypergraph((0, 1), (frozenset({0, 1}),))
        width, _ = exact_hbw(dual(h), 2)
        assert width == 1

    def test_edge_guard(self):
        big = hypergraph_from_edges([{i, i + 1} for i in range(8)])
        with pytest.raises(InstanceTooLarge):
            exact_hbw(big, 2)

    def test_sandwich_with_hw(self):
        rng = random.Random(67)
        for _ in range(40):
            h = random_hypergraph(rng, 5, 4)
            hbw, _ = exact_hbw(h, 10)
            hw, _ = exact_hw(h, 10)
            assert hbw <= hw <= 9 * hbw + 1


class TestFiveWayEquivalence:
    def test_on_randoms(self):
        rng = random.Random(71)
        for _ in range(150):
            h = random_hypergraph(rng, 6, 6)
            co = dual(h)
            a = hypertree_witness(h) is not None
            b = has_helly(h) and is_chordal(line_graph(h))
            # the 2-section of the dual is the line graph computed another way
            c = is_conformal(co) and is_chordal(two_section(co))
            d = is_alpha_acyclic(co)
            assert a == b == c == d

    def test_host_tree_with_nonchordal_2_section(self):
        # edges through a star centre: a hypertree whose own 2-section
        # contains an induced 4-cycle on the leaves
        h = hypergraph_from_edges(
            [{0, 4, 1}, {1, 4, 2}, {2, 4, 3}, {3, 4, 0}]
        )
        assert hypertree_witness(h) is not None
        assert not is_chordal(two_section(h))
        assert is_chordal(two_section(dual(h)))
