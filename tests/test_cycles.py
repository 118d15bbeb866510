"""Tests for cycle enumeration, the cycle hypergraph, cuts, hitting sets and
chains."""

from __future__ import annotations

import itertools
import random

import pytest

from dtwone.cycles import (
    CycleChain,
    cut,
    cycle_hypergraph,
    enumerate_cycles,
    find_closed_chain,
    min_hitting_set,
    strongly_connected_via_chains,
)
from dtwone.digraph import (
    Digraph,
    a4_digraph,
    bicycle,
    bidirect,
    digraph_from_edges,
    directed_cycle_digraph,
    is_strongly_connected,
)
from dtwone.errors import CapExceeded
from dtwone.suite import labeled_strongly_connected, random_digraph

from test_digraph import random_strongly_connected


def reference_cycles(d):
    """Every cyclic vertex order that starts at its least vertex and
    closes in d, in lexicographic order: all orders are listed, none is
    searched for."""
    found = []
    for s in range(d.n):
        later = range(s + 1, d.n)
        for k in range(1, d.n - s):
            for rest in itertools.permutations(later, k):
                seq = (s, *rest)
                if all(d.has_edge(u, seq[(i + 1) % len(seq)]) for i, u in enumerate(seq)):
                    found.append(seq)
    return sorted(found)


def oracle_corpus():
    """Every labelled strongly connected digraph with n <= 4, then seeded
    draws with n <= 7 at densities that make many acyclic and disconnected
    ones."""
    for n in range(1, 5):
        yield from labeled_strongly_connected(n)
    rng = random.Random(15)
    for _ in range(300):
        yield random_digraph(rng, rng.randint(1, 7), rng.choice([0.1, 0.2, 0.35, 0.5, 0.7]))


class TestEnumerateCycles:
    def test_matches_the_brute_force_reference(self):
        # Recorded: 1,626 strongly connected digraphs and 300 draws; 155 of
        # the 1,926 have no cycle and 184 are not strongly connected.
        checked = acyclic = disconnected = 0
        for d in oracle_corpus():
            expected = reference_cycles(d)
            assert [c.sequence for c in enumerate_cycles(d)] == expected, sorted(d.edges)
            checked += 1
            acyclic += not expected
            disconnected += not is_strongly_connected(d)
        assert checked == 1_626 + 300 and acyclic >= 150 and disconnected >= 180, (
            checked, acyclic, disconnected
        )

    def test_cap_exceeded(self):
        # Each cap below the cycle count raises at cycle cap + 1, with the
        # message the enumeration has always given; a cap at or above the
        # count returns every cycle.
        dense = random_strongly_connected(random.Random(16), 6, 0.5)
        for d in (bicycle(3), bicycle(6), a4_digraph(), dense):
            total = len(reference_cycles(d))
            for cap in (1, 2, 3, 5, total - 1, total, total + 1):
                if cap >= total:
                    assert len(enumerate_cycles(d, cap)) == total
                    continue
                with pytest.raises(CapExceeded) as err:
                    enumerate_cycles(d, cap)
                assert (err.value.cap, err.value.count) == (cap, cap + 1)
                assert str(err.value) == (
                    f"enumeration exceeded cap {cap} (saw at least {cap + 1} items)"
                )

    def test_directed_triangle_single_cycle(self):
        cycles = enumerate_cycles(directed_cycle_digraph(3))
        assert [c.sequence for c in cycles] == [(0, 1, 2)]

    def test_digon_single_cycle(self):
        cycles = enumerate_cycles(digraph_from_edges(2, [(0, 1), (1, 0)]))
        assert [c.sequence for c in cycles] == [(0, 1)]

    def test_bidirected_triangle_five_cycles(self):
        cycles = enumerate_cycles(bicycle(3))
        assert [c.sequence for c in cycles] == [
            (0, 1),
            (0, 1, 2),
            (0, 2),
            (0, 2, 1),
            (1, 2),
        ]

    def test_a4_seven_cycles(self):
        cycles = enumerate_cycles(a4_digraph())
        assert [c.sequence for c in cycles] == [
            (0, 1, 2),
            (0, 1, 2, 3),
            (0, 1, 3),
            (0, 2),
            (0, 2, 3),
            (1, 2, 3),
            (1, 3),
        ]

    def test_acyclic_digraph_has_none(self):
        assert enumerate_cycles(digraph_from_edges(3, [(0, 1), (1, 2)])) == []

    def test_cycles_are_closed_walks_of_the_host(self):
        rng = random.Random(11)
        for _ in range(60):
            d = random_digraph(rng, rng.randint(2, 6), 0.4)
            for c in enumerate_cycles(d):
                seq = c.sequence
                for i, u in enumerate(seq):
                    assert d.has_edge(u, seq[(i + 1) % len(seq)])

    def test_deterministic_and_sorted(self):
        rng = random.Random(12)
        for _ in range(30):
            d = random_digraph(rng, rng.randint(2, 6), 0.5)
            once = enumerate_cycles(d)
            twice = enumerate_cycles(d)
            assert once == twice
            seqs = [c.sequence for c in once]
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)


class TestCycleHypergraph:
    def test_bidirected_triangle(self):
        ch = cycle_hypergraph(bicycle(3))
        assert ch.vertices == (0, 1, 2)
        assert ch.isolated == ()
        assert list(ch.hyperedges) == [
            frozenset({0, 1}),
            frozenset({0, 1, 2}),
            frozenset({0, 2}),
            frozenset({0, 1, 2}),
            frozenset({1, 2}),
        ]

    def test_parallel_cycles_stay_distinct(self):
        ch = cycle_hypergraph(bicycle(3))
        assert ch.hyperedges[1] == ch.hyperedges[3]
        assert len(ch.hyperedges) == 5

    def test_vertex_off_all_cycles_is_isolated(self):
        d = digraph_from_edges(3, [(0, 1), (1, 2), (2, 1)])
        ch = cycle_hypergraph(d)
        assert ch.vertices == (1, 2)
        assert ch.isolated == (0,)
        h = ch.as_hypergraph()
        assert h.vertices == (1, 2)
        assert h.edges == (frozenset({1, 2}),)

    def test_as_hypergraph_keeps_duplicates(self):
        h = cycle_hypergraph(bicycle(3)).as_hypergraph()
        assert len(h.edges) == 5


class TestCut:
    def test_single_vertex_side(self):
        ch = cycle_hypergraph(bicycle(3))
        assert cut(ch, {0}) == frozenset({0, 1, 2, 3})

    def test_two_vertex_side(self):
        ch = cycle_hypergraph(bicycle(3))
        assert cut(ch, {0, 1}) == frozenset({1, 2, 3, 4})

    def test_whole_vertex_set_cuts_nothing(self):
        ch = cycle_hypergraph(bicycle(3))
        assert cut(ch, {0, 1, 2}) == frozenset()
        assert cut(ch, set()) == frozenset()

    def test_complementary_sides_agree(self):
        rng = random.Random(13)
        for _ in range(40):
            d = random_digraph(rng, rng.randint(2, 5), 0.5)
            ch = cycle_hypergraph(d)
            for _ in range(5):
                x = {v for v in range(d.n) if rng.random() < 0.5}
                rest = set(range(d.n)) - x
                assert cut(ch, x) == cut(ch, rest)


class TestMinHittingSet:
    def test_bidirected_triangle_needs_two(self):
        ch = cycle_hypergraph(bicycle(3))
        assert min_hitting_set(ch, range(5)) == frozenset({0, 1})

    def test_empty_targets(self):
        ch = cycle_hypergraph(bicycle(3))
        assert min_hitting_set(ch, []) == frozenset()

    def test_single_target_lexicographic_minimum(self):
        ch = cycle_hypergraph(bicycle(3))
        # hyperedge 4 is {1, 2}; the smallest singleton hitting it is {1}
        assert min_hitting_set(ch, [4]) == frozenset({1})

    def test_matches_brute_force(self):
        rng = random.Random(14)
        for _ in range(40):
            d = random_digraph(rng, rng.randint(2, 5), 0.5)
            ch = cycle_hypergraph(d)
            m = len(ch.hyperedges)
            if m == 0:
                continue
            targets = [i for i in range(m) if rng.random() < 0.7]
            got = min_hitting_set(ch, targets)
            sets = [ch.hyperedges[i] for i in targets]
            best = None
            for size in range(d.n + 1):
                from itertools import combinations

                for s in combinations(range(d.n), size):
                    if all(e & set(s) for e in sets):
                        best = frozenset(s)
                        break
                if best is not None:
                    break
            assert got == best


class TestChains:
    def test_closed_chain_needs_three(self):
        with pytest.raises(AssertionError):
            CycleChain((0, 1), True)


class TestFindClosedChain:
    def test_a4_triple(self):
        ch = cycle_hypergraph(a4_digraph())
        chain = find_closed_chain(ch)
        assert chain == CycleChain((0, 4, 6), True)
        sets = [ch.hyperedges[i] for i in chain.cycles]
        assert sets == [
            frozenset({0, 1, 2}),
            frozenset({0, 2, 3}),
            frozenset({1, 3}),
        ]
        assert sets[0] & sets[1] & sets[2] == frozenset()

    def test_bidirected_square_digon_chain(self):
        ch = cycle_hypergraph(bicycle(4))
        chain = find_closed_chain(ch)
        assert chain == CycleChain((0, 2, 5, 4), True)
        sets = [ch.hyperedges[i] for i in chain.cycles]
        assert sets == [
            frozenset({0, 1}),
            frozenset({0, 3}),
            frozenset({2, 3}),
            frozenset({1, 2}),
        ]

    def test_closed_chain_wraps_and_is_otherwise_disjoint(self):
        for d in [a4_digraph(), bicycle(4), bicycle(5), bicycle(6)]:
            ch = cycle_hypergraph(d)
            chain = find_closed_chain(ch)
            assert chain is not None and chain.closed
            sets = [ch.hyperedges[i] for i in chain.cycles]
            ell = len(sets)
            for a in range(ell):
                for b in range(a + 1, ell):
                    touching = b == a + 1 or (a, b) == (0, ell - 1)
                    assert bool(sets[a] & sets[b]) == touching or ell == 3
            if ell == 3:
                assert sets[0] & sets[1] and sets[1] & sets[2] and sets[0] & sets[2]
                assert not (sets[0] & sets[1] & sets[2])

    def test_no_closed_chain_in_simple_hosts(self):
        for d in [
            directed_cycle_digraph(3),
            directed_cycle_digraph(5),
            digraph_from_edges(2, [(0, 1), (1, 0)]),
            bidirect(3, [(0, 1), (1, 2)]),
        ]:
            assert find_closed_chain(cycle_hypergraph(d)) is None


class TestStrongConnectivityViaChains:
    def test_small_cases(self):
        assert strongly_connected_via_chains(Digraph(1, frozenset()))
        assert strongly_connected_via_chains(digraph_from_edges(2, [(0, 1), (1, 0)]))
        assert not strongly_connected_via_chains(Digraph(2, frozenset()))
        assert not strongly_connected_via_chains(
            digraph_from_edges(3, [(0, 1), (1, 2)])
        )

    def test_two_cycle_blocks_sharing_nothing(self):
        # two digons joined by one-way edges only: every vertex on a cycle,
        # but the cycles never intersect
        d = digraph_from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)])
        assert not strongly_connected_via_chains(d)

    def test_agrees_with_direct_check(self):
        rng = random.Random(15)
        for _ in range(120):
            d = random_digraph(rng, rng.randint(1, 6), rng.choice([0.2, 0.4, 0.6]))
            assert strongly_connected_via_chains(d) == is_strongly_connected(d)
        for _ in range(30):
            d = random_strongly_connected(rng, rng.randint(2, 6), 0.3)
            assert strongly_connected_via_chains(d)
