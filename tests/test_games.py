"""Tests for the cops-and-robber game, havens, and linkedness checks."""

from __future__ import annotations

import random
from functools import cache

import pytest

from dtwone import cycles, digraph, games
from dtwone.check import minor_haven_is_monotone
from dtwone.cycles import CycleChain, cut, cycle_hypergraph, find_closed_chain, min_hitting_set
from dtwone.decomp import BranchDecomposition, dtd_to_dbd, validate_dbd
from dtwone.digraph import (
    _bfs_arcs,
    a4_digraph,
    all_subsets,
    bicycle,
    bidirect,
    digraph_from_edges,
    directed_cycle_digraph,
    is_strongly_connected,
    strong_components,
)
from dtwone.dtw1 import recognize_dtw1
from dtwone.errors import InstanceTooLarge
from dtwone.games import (
    CopStrategy,
    Haven,
    _components_avoiding,
    _robber_options,
    dcn_exact,
    haven_from_closed_chain,
    haven_from_minor,
    haven_is_monotone,
    hyper_components,
    is_k_hyperlinked,
    is_k_linked,
    play_transcript,
    solve_game,
    strategy_beats_all_robbers,
    strategy_from_dbd,
    verify_haven,
)
from dtwone.hypergraph import dual
from dtwone.suite import labeled_strongly_connected
from test_check import reference_minor_haven_is_monotone
from test_decomp import single_node_dtd
from test_digraph import random_strongly_connected, tree_plus_triangle


def reference_verify_haven(d, hav):
    """`verify_haven` as it was when it listed the strong components of d - X
    for every entry."""
    domain = list(all_subsets(range(d.n), min(hav.order - 1, d.n)))
    for x in domain:
        if x not in hav.assignment:
            return False
        if hav.assignment[x] not in _components_avoiding(d, x):
            return False
    return reference_is_monotone(d, hav)


def reference_is_monotone(d, hav):
    """The monotonicity loop of `verify_haven` before it became
    `haven_is_monotone`."""
    domain = list(all_subsets(range(d.n), min(hav.order - 1, d.n)))
    for x in domain:
        for y in all_subsets(sorted(x), len(x)):
            if not hav.assignment[x] <= hav.assignment[y]:
                return False
    return True


def digon():
    return digraph_from_edges(2, [(0, 1), (1, 0)])


class TestRobberMoves:
    def test_components_sorted_by_least_vertex(self):
        d = digraph_from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert _components_avoiding(d, frozenset()) == (
            frozenset({0, 1}),
            frozenset({2, 3}),
        )
        assert _components_avoiding(d, frozenset({0, 1, 2, 3})) == ()

    def test_landing_inside_new_cop_free_components(self):
        d = digon()
        opts = _robber_options(
            d, frozenset(), frozenset({0, 1}), frozenset({0}), _components_avoiding
        )
        assert opts == (frozenset({1}),)

    def test_lifted_cop_frees_the_whole_component(self):
        # While the cops fly from {0} to {1} nobody blocks vertex 0, so the
        # robber runs through it and survives on the other side.
        d = digon()
        opts = _robber_options(
            d, frozenset({0}), frozenset({1}), frozenset({1}), _components_avoiding
        )
        assert opts == (frozenset({0}),)

    def test_standing_cops_keep_blocking(self):
        d = bicycle(3)
        opts = _robber_options(
            d, frozenset({0}), frozenset({1, 2}), frozenset({0, 1}), _components_avoiding
        )
        assert opts == (frozenset({2}),)


class TestSolveGame:
    def test_single_vertex(self):
        d = digraph_from_edges(1, [])
        assert solve_game(d, 0).cops_win is False
        res = solve_game(d, 1)
        assert res.cops_win is True
        assert strategy_beats_all_robbers(d, res.strategy)

    def test_digon(self):
        d = digon()
        assert solve_game(d, 1).cops_win is False
        assert solve_game(d, 1).strategy is None
        res = solve_game(d, 2)
        assert res.cops_win is True
        assert strategy_beats_all_robbers(d, res.strategy)

    def test_directed_triangle(self):
        d = directed_cycle_digraph(3)
        assert solve_game(d, 1).cops_win is False
        res = solve_game(d, 2)
        assert res.cops_win is True
        assert strategy_beats_all_robbers(d, res.strategy)

    def test_bidirected_triangle(self):
        d = bicycle(3)
        assert solve_game(d, 2).cops_win is False
        res = solve_game(d, 3)
        assert res.cops_win is True
        assert strategy_beats_all_robbers(d, res.strategy)

    def test_a4(self):
        d = a4_digraph()
        assert solve_game(d, 2).cops_win is False
        res = solve_game(d, 3)
        assert res.cops_win is True
        assert strategy_beats_all_robbers(d, res.strategy)

    def test_budget_respected_in_returned_strategy(self):
        res = solve_game(bicycle(3), 3)
        assert len(res.strategy.initial) <= 3
        assert all(len(x) <= 3 for x in res.strategy.table.values())

    def test_instance_too_large(self):
        with pytest.raises(InstanceTooLarge):
            solve_game(directed_cycle_digraph(12), 6)

    def test_size_guard_counts_cop_sets_without_listing_them(self):
        # C(40, 10) is about 8.5e8 cop sets: the guard must refuse them
        # by arithmetic alone.
        path = bidirect(40, [(v, v + 1) for v in range(39)])
        with pytest.raises(InstanceTooLarge):
            solve_game(path, 10)

    def test_random_wins_are_simulation_checked_and_monotone(self):
        rng = random.Random(2024)
        for _ in range(30):
            n = rng.randint(2, 4)
            d = random_strongly_connected(rng, n, 0.4)
            best = None
            for k in range(n + 1):
                res = solve_game(d, k)
                if res.cops_win:
                    best = k
                    assert strategy_beats_all_robbers(d, res.strategy)
                    break
            assert best is not None, "n cops always win"
            assert solve_game(d, best + 1).cops_win is True
            if best > 0:
                assert solve_game(d, best - 1).cops_win is False


class TestDcnExact:
    def test_frozen_values(self):
        assert dcn_exact(digraph_from_edges(1, []), 3) == 1
        assert dcn_exact(digon(), 4) == 2
        assert dcn_exact(directed_cycle_digraph(3), 4) == 2
        assert dcn_exact(a4_digraph(), 4) == 3
        assert dcn_exact(bicycle(3), 3) == 3

    def test_budget_exhausted_gives_none(self):
        assert dcn_exact(bicycle(3), 2) is None


def reference_strategy_from_dbd(d, dec):
    """`strategy_from_dbd` as it was when it enumerated the cycles again
    and took a fresh minimum hitting set for every tree edge."""
    if not is_strongly_connected(d):
        raise ValueError("the tree-walking strategy needs a strongly connected digraph")
    report = validate_dbd(d, dec)
    if not report.valid:
        raise ValueError("invalid branch decomposition: " + "; ".join(report.violations))

    if len(dec.nodes) == 1:
        only = dec.nodes[0]
        return CopStrategy(budget=1, initial=frozenset({dec.leaf_label[only]}), table={})

    ch = cycle_hypergraph(d)
    hits = {}
    for e in dec.edges:
        hits[e] = min_hitting_set(ch, cut(ch, dec.side(e, e[0])))
    k = max(len(s) for s in hits.values())
    budget = max(3 * k, 1)

    adj = {t: [] for t in dec.nodes}
    for u, v in dec.edges:
        adj[u].append(v)
        adj[v].append(u)
    for t in adj:
        adj[t].sort()

    def tree_edge(u, v):
        return (u, v) if u <= v else (v, u)

    def guards_around(t, skip=None):
        out = frozenset()
        for u in adj[t]:
            if u != skip:
                out |= hits[tree_edge(t, u)]
        return out

    def side(t, u):
        """Leaf vertices in the subtree hanging off u when the edge (t, u) is cut."""
        return dec.side(tree_edge(t, u), u)

    ell = min(dec.leaves(), key=lambda t: dec.leaf_label[t])
    t0 = adj[ell][0]
    x0 = frozenset({dec.leaf_label[ell]}) | guards_around(t0, skip=ell)
    assert len(x0) <= budget, "opening cop set over budget"

    depth = {ell: 0}
    for t, u in _bfs_arcs(ell, adj.__getitem__)[1]:
        depth[u] = depth[t] + 1

    # The walk state is (cop set, robber component, tree cursor).  One game
    # position can occur at several cursors with different prescribed moves;
    # only the deepest cursor's move makes enough progress to avoid loops,
    # so it is the one the positional table keeps.
    best: dict = {}
    comps = cache(_components_avoiding)
    queue = [(x0, r, ell, t0) for r in comps(d, x0)]
    seen = set(queue)
    head = 0
    while head < len(queue):
        x, r, prev, curr = queue[head]
        head += 1
        while True:
            if len(adj[curr]) == 1:
                x2 = hits[tree_edge(prev, curr)] | frozenset({dec.leaf_label[curr]})
                nxt = curr
            else:
                cands = [u for u in adj[curr] if u != prev and r <= side(curr, u)]
                assert len(cands) == 1, "robber component must sit inside exactly one subtree"
                nxt = cands[0]
                if len(adj[nxt]) == 1:
                    x2 = hits[tree_edge(curr, nxt)] | frozenset({dec.leaf_label[nxt]})
                else:
                    x2 = guards_around(nxt)
            if x2 != x:
                break
            # identical guards on consecutive edges: the robber cannot move
            # either, so slide down the tree without emitting a cop move
            prev, curr = curr, nxt
        assert len(x2) <= budget, "cop set over budget during the walk"
        if (x, r) not in best or best[(x, r)][0] < depth[curr]:
            best[(x, r)] = (depth[curr], x2)
        replies = _robber_options(d, x, r, x2, comps)
        if nxt is curr or len(adj[nxt]) == 1:
            assert not replies, "robber must be caught at a leaf"
        for r2 in replies:
            state = (x2, r2, curr, nxt)
            if state not in seen:
                seen.add(state)
                queue.append(state)
    table = {pos: move for pos, (_, move) in best.items()}
    return CopStrategy(budget=budget, initial=x0, table=table)


class TestStrategyFromDbd:
    def test_digon_two_node_tree(self):
        d = digon()
        dec = BranchDecomposition(
            (0, 1), ((0, 1),), {0: 0, 1: 1}, {(0, 1): frozenset({0})}
        )
        s = strategy_from_dbd(d, dec)
        assert s.budget == 3
        assert strategy_beats_all_robbers(d, s)

    def test_triangle_star(self):
        d = directed_cycle_digraph(3)
        dec = BranchDecomposition(
            (0, 1, 2, 3),
            ((0, 3), (1, 3), (2, 3)),
            {0: 0, 1: 1, 2: 2},
            {(0, 3): frozenset({0}), (1, 3): frozenset({1}), (2, 3): frozenset({2})},
        )
        s = strategy_from_dbd(d, dec)
        assert s.budget == 3
        assert strategy_beats_all_robbers(d, s)

    def test_bidirected_square_balanced_tree(self):
        d = bicycle(4)
        dec = BranchDecomposition(
            (0, 1, 2, 3, 4, 5),
            ((0, 4), (1, 4), (2, 5), (3, 5), (4, 5)),
            {0: 0, 1: 1, 2: 2, 3: 3},
            {
                (0, 4): frozenset({0}),
                (1, 4): frozenset({1}),
                (2, 5): frozenset({2}),
                (3, 5): frozenset({3}),
                (4, 5): frozenset({1, 3}),
            },
        )
        assert validate_dbd(d, dec).width == 2
        s = strategy_from_dbd(d, dec)
        assert s.budget == 6
        assert strategy_beats_all_robbers(d, s)

    def test_single_vertex_single_node(self):
        d = digraph_from_edges(1, [])
        dec = BranchDecomposition((0,), (), {0: 0}, {})
        s = strategy_from_dbd(d, dec)
        assert s.budget == 1
        assert s.initial == frozenset({0})
        assert strategy_beats_all_robbers(d, s)

    def test_invalid_decomposition_rejected(self):
        d = digon()
        dec = BranchDecomposition(
            (0, 1), ((0, 1),), {0: 0, 1: 1}, {(0, 1): frozenset()}
        )
        with pytest.raises(ValueError):
            strategy_from_dbd(d, dec)

    def test_needs_strong_connectivity(self):
        d = digraph_from_edges(2, [(0, 1)])
        dec = BranchDecomposition(
            (0, 1), ((0, 1),), {0: 0, 1: 1}, {(0, 1): frozenset()}
        )
        with pytest.raises(ValueError):
            strategy_from_dbd(d, dec)

    def test_random_width_one_instances(self):
        # Bidirected trees have branch decompositions of width one; the walk
        # must then get by with three cops.
        from dtwone.digraph import bidirect

        d = bidirect(4, [(0, 1), (1, 2), (1, 3)])
        dec = BranchDecomposition(
            (0, 1, 2, 3, 4, 5),
            ((0, 4), (1, 4), (2, 5), (3, 5), (4, 5)),
            {0: 0, 1: 1, 2: 2, 3: 3},
            {
                (0, 4): frozenset({0}),
                (1, 4): frozenset({1}),
                (2, 5): frozenset({2}),
                (3, 5): frozenset({3}),
                (4, 5): frozenset({1}),
            },
        )
        assert validate_dbd(d, dec).valid
        s = strategy_from_dbd(d, dec)
        assert s.budget == 3
        assert strategy_beats_all_robbers(d, s)

    def test_small_corpus_matches_the_reference_with_one_enumeration(self, monkeypatch):
        """On the `dtd_to_dbd` decompositions of every labelled strongly
        connected digraph on at most four vertices, from one bag and from
        the recogniser, the walk over the accepted edge sets gives the
        reference's strategy and enumerates the cycles once, inside
        `validate_dbd`."""
        cases = []
        for n in range(1, 5):
            for d in labeled_strongly_connected(n):
                decs = [single_node_dtd(d)]
                if n > 1:
                    decs.append(recognize_dtw1(d).decomposition)
                cases += [(d, dtd_to_dbd(d, dec)) for dec in decs if dec is not None]
        calls = 0
        enumerate_cycles = cycles.enumerate_cycles

        def counted(*args):
            nonlocal calls
            calls += 1
            return enumerate_cycles(*args)

        monkeypatch.setattr(cycles, "enumerate_cycles", counted)
        for d, dbd in cases:
            calls = 0
            got = strategy_from_dbd(d, dbd)
            assert calls == 1, sorted(d.edges)
            assert got == reference_strategy_from_dbd(d, dbd), sorted(d.edges)
        # 1,626 digraphs from one bag, and 1,192 of them YES
        assert len(cases) == 1_626 + 1_192, len(cases)


class TestHavens:
    def haven_of(self, d):
        ch = cycle_hypergraph(d)
        chain = find_closed_chain(ch)
        assert chain is not None
        return haven_from_closed_chain(ch, chain)

    def test_a4_haven(self):
        d = a4_digraph()
        hav = self.haven_of(d)
        assert hav.order == 3
        assert verify_haven(d, hav)

    def test_bidirected_triangle_haven(self):
        d = bicycle(3)
        hav = self.haven_of(d)
        assert verify_haven(d, hav)

    def test_bidirected_hexagon_haven(self):
        d = bicycle(6)
        hav = self.haven_of(d)
        assert verify_haven(d, hav)

    def test_haven_blocks_two_cops(self):
        for d in (a4_digraph(), bicycle(3), bicycle(6)):
            hav = self.haven_of(d)
            assert verify_haven(d, hav)
            assert solve_game(d, 2).cops_win is False

    @pytest.mark.parametrize(
        "d", [*(bicycle(k) for k in range(3, 9)), a4_digraph()],
        ids=[*(f"bicycle{k}" for k in range(3, 9)), "a4"],
    )
    def test_patterns_survive_losing_any_one_vertex(self, d):
        """The minor haven points every cop set at one strong component of
        what the pattern keeps, which needs this."""
        for v in range(d.n):
            assert len(strong_components(d, {v})) == 1

    @pytest.mark.parametrize(
        "d", [bicycle(3), bicycle(6), a4_digraph()], ids=["bicycle3", "bicycle6", "a4"]
    )
    def test_minor_haven_of_a_pattern(self, d):
        singletons = {p: frozenset({p}) for p in range(d.n)}
        hav = haven_from_minor(d, singletons, {p: p for p in range(d.n)})
        assert hav.order == 3 and verify_haven(d, hav)
        assert hav.assignment[frozenset()] == frozenset(range(d.n))
        assert hav.assignment[frozenset({0, 1})] == next(
            c for c in strong_components(d, {0, 1}) if 2 in c
        )

    def test_minor_haven_follows_the_roots(self):
        # Bicycle(3) with its vertex 0 stretched into the path 3 -> 0: the
        # class {0, 3} is entered at 3 and at 0 and left only from 0, so its
        # root is 0.  Rooted at 3, h({2}) = {3} but h({0, 2}) = {1}.
        d = digraph_from_edges(
            4, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0)]
        )
        branch = {0: frozenset({0, 3}), 1: frozenset({1}), 2: frozenset({2})}
        hav = haven_from_minor(d, branch, {0: 0, 1: 1, 2: 2})
        assert verify_haven(d, hav)
        assert hav.assignment[frozenset({2})] == frozenset({0, 1})
        wrong = haven_from_minor(d, branch, {0: 3, 1: 1, 2: 2})
        assert not haven_is_monotone(d, wrong) and not verify_haven(d, wrong)

    def test_minor_haven_runs_no_condensation(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return strong_components(*args)

        monkeypatch.setattr(games, "strong_components", counted)
        monkeypatch.setattr(digraph, "strong_components", counted)
        d = bicycle(8)
        singletons = {p: frozenset({p}) for p in range(d.n)}
        hav = haven_from_minor(d, singletons, {p: p for p in range(d.n)})
        assert len(hav.assignment) == 1 + 8 + 28
        assert calls == []

    def test_monotone_without_the_table_agrees_with_the_table(self):
        """`minor_haven_is_monotone` and its n + 1-walk reference give
        `haven_is_monotone`'s verdict on the table `haven_from_minor` builds.
        The corpus has 3-9 vertices, digraphs that are not strongly
        connected, branch sets that leave vertices out and roots drawn
        anywhere in their branch sets."""
        rng = random.Random(2026)
        verdicts = []
        for _ in range(6000):
            n = rng.randint(3, 9)
            p = rng.choice((0.2, 0.35, 0.5, 0.7))
            d = digraph_from_edges(n, [(u, v) for u in range(n) for v in range(n)
                                       if u != v and rng.random() < p])
            k = rng.randint(3, n)
            covered = rng.sample(range(n), rng.randint(k, n))
            cuts = [0, *sorted(rng.sample(range(1, len(covered)), k - 1)), len(covered)]
            parts = [covered[a:b] for a, b in zip(cuts, cuts[1:])]
            branch = {q: frozenset(part) for q, part in enumerate(parts)}
            roots = {q: rng.choice(part) for q, part in enumerate(parts)}
            want = haven_is_monotone(d, haven_from_minor(d, branch, roots))
            assert minor_haven_is_monotone(d, branch, roots) == want, (
                sorted(d.edges), branch, roots)
            assert reference_minor_haven_is_monotone(d, branch, roots) == want
            verdicts.append(want)
        assert 1000 <= sum(verdicts) <= 5000, sum(verdicts)

    @pytest.mark.parametrize(
        "d",
        [*(bicycle(k) for k in range(3, 9)), a4_digraph(),
         tree_plus_triangle(random.Random(12), 12)],
        ids=[*(f"bicycle{k}" for k in range(3, 9)), "a4", "tree-plus-triangle"],
    )
    def test_verify_agrees_with_the_component_list_on_mutations(self, d):
        """Each entry of a valid haven is replaced by a proper subset of its
        component, a union of two components, a set holding a cop, the empty
        set, a set naming vertex n, or another component of d - X.  The
        monotonicity helper agrees with the old loop on every mutation, and
        where the new entry is still a component of d - X, the only kind of
        entry the derived haven can hold, it alone gives `verify_haven`'s
        verdict."""
        rooted = recognize_dtw1(d).rooted_sets
        hav = haven_from_minor(d, rooted.sets, rooted.roots)
        assert verify_haven(d, hav) and reference_verify_haven(d, hav)
        assert haven_is_monotone(d, hav)
        tried = rejected = 0
        for x, h in hav.assignment.items():
            others = [c for c in strong_components(d, x) if c != h]
            mutations = [frozenset(), h | {d.n}]
            if len(h) >= 2:
                mutations += [h - {min(h)}, h - {max(h)}]
            if x:
                mutations.append(h | {min(x)})
            if others:
                mutations += [h | others[0], others[0]]
            for m in mutations:
                mutated = Haven(hav.order, {**hav.assignment, x: m})
                got = verify_haven(d, mutated)
                assert got == reference_verify_haven(d, mutated), (sorted(d.edges), x, m)
                monotone = haven_is_monotone(d, mutated)
                assert monotone == reference_is_monotone(d, mutated), (sorted(d.edges), x, m)
                if m in others:
                    assert monotone == got, (sorted(d.edges), x, m)
                tried += 1
                rejected += not got
        assert rejected >= tried - 2 * len(hav.assignment), (tried, rejected)
        assert tried >= 4 * len(hav.assignment), (tried, rejected)

    def test_open_chain_rejected(self):
        ch = cycle_hypergraph(a4_digraph())
        with pytest.raises(ValueError):
            haven_from_closed_chain(ch, CycleChain((0, 4, 6), False))

    def test_unknown_cycle_rejected(self):
        ch = cycle_hypergraph(a4_digraph())
        with pytest.raises(ValueError):
            haven_from_closed_chain(ch, CycleChain((0, 4, 99), True))

    def test_repeated_cycle_rejected(self):
        ch = cycle_hypergraph(directed_cycle_digraph(5))
        with pytest.raises(ValueError):
            haven_from_closed_chain(ch, CycleChain((0, 0, 0), True))

    def test_verify_rejects_missing_assignment(self):
        d = digon()
        hav = Haven(2, {frozenset(): frozenset({0, 1})})
        assert verify_haven(d, hav) is False

    def test_verify_rejects_non_component(self):
        d = digon()
        hav = Haven(
            1,
            {frozenset(): frozenset({0})},
        )
        assert verify_haven(d, hav) is False

    def test_verify_order_one(self):
        d = digon()
        hav = Haven(1, {frozenset(): frozenset({0, 1})})
        assert verify_haven(d, hav) is True

    def test_verify_checks_monotonicity(self):
        d = digraph_from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        base = {
            frozenset(): frozenset({0, 1}),
            frozenset({0}): frozenset({1}),
            frozenset({1}): frozenset({0}),
            frozenset({2}): frozenset({0, 1}),
            frozenset({3}): frozenset({0, 1}),
        }
        assert verify_haven(d, Haven(2, base)) is True
        twisted = dict(base)
        twisted[frozenset({0})] = frozenset({2, 3})
        assert verify_haven(d, Haven(2, twisted)) is False


class TestLinked:
    def test_digon_values(self):
        d = digon()
        assert is_k_linked(d, {0, 1}, 0) is True
        assert is_k_linked(d, {0, 1}, 1) is False

    def test_bidirected_triangle_values(self):
        d = bicycle(3)
        assert is_k_linked(d, {0, 1, 2}, 1) is True
        assert is_k_linked(d, {0, 1, 2}, 2) is False

    def test_hyperlinked_digon_dual(self):
        d = digon()
        h = dual(cycle_hypergraph(d).as_hypergraph())
        assert is_k_hyperlinked(h, {0, 1}, 1) is True
        assert is_k_hyperlinked(h, {0, 1}, 2) is False

    def test_same_k_translation_fails_on_the_digon(self):
        # Only the shifted pairing holds: 1-linked is false for the digon
        # while its dual is 1-hyperlinked, because deleting zero hyperedges
        # never splits anything.
        d = digon()
        h = dual(cycle_hypergraph(d).as_hypergraph())
        assert is_k_linked(d, {0, 1}, 1) != is_k_hyperlinked(h, {0, 1}, 1)

    def test_hyper_components(self):
        d = bicycle(3)
        h = dual(cycle_hypergraph(d).as_hypergraph())
        assert len(hyper_components(h, frozenset())) == 1
        assert hyper_components(h, frozenset(range(len(h.vertices)))) == ()

    def test_pairing_on_random_digraphs(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(2, 5)
            d = random_strongly_connected(rng, n, 0.4)
            h = dual(cycle_hypergraph(d).as_hypergraph())
            w = [v for v in range(d.n) if rng.random() < 0.6] or [0]
            for k in range(3):
                assert is_k_linked(d, w, k) == is_k_hyperlinked(h, w, k + 1), (
                    sorted(d.edges),
                    w,
                    k,
                )

    def test_component_bijection_on_random_digraphs(self):
        rng = random.Random(4242)
        for _ in range(200):
            n = rng.randint(2, 5)
            d = random_strongly_connected(rng, n, 0.4)
            ch = cycle_hypergraph(d)
            h = dual(ch.as_hypergraph())
            s = frozenset(v for v in range(d.n) if rng.random() < 0.4)
            touched = frozenset(
                i for i, e in enumerate(ch.hyperedges) if set(e) & s
            )
            left = sorted(hyper_components(h, touched), key=min)
            right = sorted(
                (
                    frozenset(
                        i for i, e in enumerate(ch.hyperedges) if set(e) <= comp
                    )
                    for comp in _components_avoiding(d, s)
                    if any(set(e) <= comp for e in ch.hyperedges)
                ),
                key=min,
            )
            assert left == right, (sorted(d.edges), sorted(s))


class TestPlayTranscript:
    def test_capture_on_digon(self):
        d = digon()
        result = solve_game(d, 2)
        assert result.cops_win
        moves = play_transcript(d, result.strategy)
        assert moves[-1][1] == frozenset()
        assert all(len(x) <= 2 for x, _ in moves)

    def test_capture_on_bicycle_with_three(self):
        d = bicycle(3)
        result = solve_game(d, 3)
        moves = play_transcript(d, result.strategy)
        assert moves[-1][1] == frozenset()
        assert len(moves) >= 2

    def test_rounds_are_legal_positions(self):
        d = a4_digraph()
        result = solve_game(d, 3)
        moves = play_transcript(d, result.strategy)
        for x, r in moves[:-1]:
            assert r in _components_avoiding(d, x)

    def test_hole_in_table_raises(self):
        broken = CopStrategy(budget=2, initial=frozenset(), table={})
        with pytest.raises(ValueError):
            play_transcript(digon(), broken)

    def test_loop_detected(self):
        d = digon()
        stuck = CopStrategy(
            budget=1,
            initial=frozenset({0}),
            table={(frozenset({0}), frozenset({1})): frozenset({0})},
        )
        with pytest.raises(ValueError):
            play_transcript(d, stuck)
