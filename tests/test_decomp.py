"""Tests for decomposition validators and the conversions between digraph
decompositions and decompositions of the dual cycle hypergraph."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from dtwone import check, decomp
from dtwone.check import DirectedTreeDecomposition, Report, validate_dtd
from dtwone.cycles import cut, cycle_hypergraph, min_hitting_set
from dtwone.decomp import (
    BranchDecomposition,
    HypertreeDecomposition,
    _boundary,
    _tree_sides,
    dbd_to_hbd,
    dtd_to_dbd,
    dtd_to_ghd,
    dtd_to_leaf_dtd,
    exact_hbw,
    leaf_labeled_subcubic_trees,
    min_cover,
    validate_dbd,
    validate_ghd,
    validate_hbd,
    validate_hd,
)
from dtwone.digraph import (
    _bfs_arcs,
    a4_digraph,
    bicycle,
    bidirect,
    digraph_from_edges,
    directed_cycle_digraph,
)
from dtwone.dtw1 import hypertree_route, recognize_dtw1
from dtwone.hypergraph import Hypergraph, dual, hypergraph_from_edges
from dtwone.suite import (
    bidirected_path,
    exhaustive_optimal_dbd,
    random_hypergraph,
    shape_families,
    strongly_connected_up_to_iso,
)
from test_digraph import random_strongly_connected, random_tree_edges, reference_reach


def digon():
    return digraph_from_edges(2, [(0, 1), (1, 0)])


def single_node_dtd(d):
    return DirectedTreeDecomposition(
        nodes=(0,), arcs=(), bags={0: frozenset(range(d.n))}, guards={}
    )


def tree_dtd(d, root=0):
    """One node per vertex, hung on d's breadth-first tree from root, each
    arc guarded by its parent: width one when d is a bidirected tree."""
    order, arcs = _bfs_arcs(root, d.out_neighbours)
    return DirectedTreeDecomposition(
        nodes=tuple(order),
        arcs=tuple(arcs),
        bags={v: frozenset({v}) for v in order},
        guards={(p, c): frozenset({p}) for (p, c) in arcs},
    )


def triangle_dtd(guard):
    # root holds {0, 1}, the leaf holds {2}
    return DirectedTreeDecomposition(
        nodes=(0, 1),
        arcs=((0, 1),),
        bags={0: frozenset({0, 1}), 1: frozenset({2})},
        guards={(0, 1): frozenset(guard)},
    )


class TestValidateDtd:
    def test_digon_single_node(self):
        report = validate_dtd(digon(), single_node_dtd(digon()))
        assert report.valid and report.width == 1

    def test_triangle_guarded_arc(self):
        report = validate_dtd(directed_cycle_digraph(3), triangle_dtd({0}))
        assert report.valid and report.width == 1

    def test_triangle_unguarded_arc(self):
        report = validate_dtd(directed_cycle_digraph(3), triangle_dtd(set()))
        assert not report.valid
        assert any("misses a walk" in v for v in report.violations)

    def test_either_remote_vertex_guards(self):
        # every walk from 2 back to 2 passes both 0 and 1
        assert validate_dtd(directed_cycle_digraph(3), triangle_dtd({1})).valid

    def test_bag_vertex_as_guard_is_vacuous(self):
        # guarding with the bag's own vertex empties the walk endpoints
        report = validate_dtd(directed_cycle_digraph(3), triangle_dtd({2}))
        assert report.valid and report.width == 2

    def test_non_partition_rejected(self):
        d = digon()
        dec = DirectedTreeDecomposition(
            nodes=(0,), arcs=(), bags={0: frozenset({0})}, guards={}
        )
        report = validate_dtd(d, dec)
        assert not report.valid
        assert any("partition" in v for v in report.violations)

    def test_overlapping_bags_rejected(self):
        d = digon()
        dec = DirectedTreeDecomposition(
            nodes=(0, 1),
            arcs=((0, 1),),
            bags={0: frozenset({0, 1}), 1: frozenset({1})},
            guards={(0, 1): frozenset()},
        )
        assert not validate_dtd(d, dec).valid

    def test_two_roots_rejected(self):
        d = digon()
        dec = DirectedTreeDecomposition(
            nodes=(0, 1),
            arcs=(),
            bags={0: frozenset({0}), 1: frozenset({1})},
            guards={},
        )
        report = validate_dtd(d, dec)
        assert not report.valid
        assert any("root" in v for v in report.violations)

    def test_arc_cycle_rejected(self):
        d = digon()
        dec = DirectedTreeDecomposition(
            nodes=(0, 1),
            arcs=((0, 1), (1, 0)),
            bags={0: frozenset({0}), 1: frozenset({1})},
            guards={(0, 1): frozenset(), (1, 0): frozenset()},
        )
        assert not validate_dtd(d, dec).valid

    def test_guard_keys_must_match_arcs(self):
        d = digon()
        dec = DirectedTreeDecomposition(
            nodes=(0, 1),
            arcs=((0, 1),),
            bags={0: frozenset({0}), 1: frozenset({1})},
            guards={},
        )
        report = validate_dtd(d, dec)
        assert not report.valid
        assert any("guards" in v for v in report.violations)

    def test_a4_two_node_width_two(self):
        dec = DirectedTreeDecomposition(
            nodes=(0, 1),
            arcs=((0, 1),),
            bags={0: frozenset({0, 1, 2}), 1: frozenset({3})},
            guards={(0, 1): frozenset({0, 1})},
        )
        report = validate_dtd(a4_digraph(), dec)
        assert report.valid and report.width == 2

    def test_mutation_dropping_needed_guard_vertex(self):
        d = directed_cycle_digraph(4)
        dec = DirectedTreeDecomposition(
            nodes=(0, 1),
            arcs=((0, 1),),
            bags={0: frozenset({0, 1}), 1: frozenset({2, 3})},
            guards={(0, 1): frozenset({0})},
        )
        assert validate_dtd(d, dec).valid
        mutated = DirectedTreeDecomposition(
            nodes=dec.nodes, arcs=dec.arcs, bags=dec.bags, guards={(0, 1): frozenset()}
        )
        assert not validate_dtd(d, mutated).valid


def subtree_nodes(dec, t):
    return _bfs_arcs(t, dec.children)[0]


def subtree_vertices(dec, t):
    return frozenset().union(*(dec.bags[s] for s in subtree_nodes(dec, t)))


def reference_validate_dtd(d, dec):
    """`validate_dtd` as it was when each arc walked its own subtree and
    each node's Γ scanned every arc."""
    violations = []
    nodes = dec.nodes
    if not nodes or len(set(nodes)) != len(nodes):
        violations.append("nodes must be non-empty and pairwise distinct")
    known = set(nodes)
    for a in dec.arcs:
        if len(a) != 2 or a[0] not in known or a[1] not in known or a[0] == a[1]:
            violations.append(f"arc {a!r} does not join two distinct nodes")
    if len(set(dec.arcs)) != len(dec.arcs):
        violations.append("arcs repeat")
    if set(dec.bags) != known:
        violations.append("bags must be keyed by exactly the nodes")
    if set(dec.guards) != set(dec.arcs):
        violations.append("guards must be keyed by exactly the arcs")
    if violations:
        return Report(False, None, tuple(violations))
    parent = {}
    for (p, c) in dec.arcs:
        if c in parent:
            violations.append(f"node {c!r} has two parents")
        parent[c] = p
    roots = [t for t in nodes if t not in parent]
    if len(roots) != 1:
        violations.append("expected exactly one root")
    if violations:
        return Report(False, None, tuple(violations))
    if len(subtree_nodes(dec, roots[0])) != len(nodes):
        violations.append("not every node is reachable from the root")
        return Report(False, None, tuple(violations))
    union = set()
    total = 0
    for t in nodes:
        union |= dec.bags[t]
        total += len(dec.bags[t])
    if union != set(range(d.n)) or total != d.n:
        violations.append("bags must partition the vertex set of the digraph")
    for a in dec.arcs:
        s = subtree_vertices(dec, a[1])
        g = dec.guards[a]
        if not g <= set(range(d.n)):
            violations.append(f"guard of arc {a!r} mentions unknown vertices")
            continue
        # Two full walks of d - g, sharing none with `round_trips`.
        forward = reference_reach(d, s - g, g)
        bad = (forward & reference_reach(d, s - g, g, backwards=True)) - s
        if bad:
            violations.append(
                f"guard {sorted(g)} of arc {a!r} misses a walk returning to "
                f"{sorted(s)} through vertex {min(bad)}"
            )
    if violations:
        return Report(False, None, tuple(violations))
    width = max(
        len(dec.bags[t].union(*(dec.guards[a] for a in dec.arcs if t in a))) - 1
        for t in nodes
    )
    return Report(True, max(width, 0), ())


def mutated_dtds(rng, dec, d):
    """The decomposition, then copies with one guard vertex dropped or
    added, one bag vertex moved, one arc re-hung under another node, and
    one node's bag emptied."""
    yield dec
    arcs = list(dec.arcs)
    for a in arcs:
        g = dec.guards[a]
        if g:
            yield replace(dec, guards={**dec.guards, a: g - {rng.choice(sorted(g))}})
        yield replace(dec, guards={**dec.guards, a: g | {rng.randrange(d.n + 1)}})
    for t in dec.nodes:
        if dec.bags[t]:
            v = rng.choice(sorted(dec.bags[t]))
            u = rng.choice(dec.nodes)
            bags = {**dec.bags, t: dec.bags[t] - {v}}
            bags[u] = bags[u] | {v}
            yield replace(dec, bags=bags)
            yield replace(dec, bags={**dec.bags, t: frozenset()})
    if arcs:
        i = rng.randrange(len(arcs))
        p, c = arcs[i]
        q = rng.choice(dec.nodes)
        rehung = arcs[:i] + [(q, c)] + arcs[i + 1:]
        guards = {(q, c) if a == (p, c) else a: g for a, g in dec.guards.items()}
        yield replace(dec, arcs=tuple(rehung), guards=guards)


class TestValidateDtdReference:
    def test_reports_match_the_per_arc_walks(self):
        rng = random.Random(430)
        decs = []
        for _ in range(20):
            d = bidirect(n := rng.randint(2, 20), random_tree_edges(rng, n))
            dec = recognize_dtw1(d).decomposition
            decs += [(d, dec), (d, dtd_to_leaf_dtd(d, dec))]
        for _ in range(60):
            d = random_strongly_connected(rng, rng.randint(2, 6), 0.1)
            decs.append((d, single_node_dtd(d)))
            cert = recognize_dtw1(d)
            if cert.decomposition is not None:
                decs.append((d, cert.decomposition))
        valid = missed = wider = 0
        for d, dec in decs:
            for mutant in mutated_dtds(rng, dec, d):
                got = validate_dtd(d, mutant)
                assert got == reference_validate_dtd(d, mutant), (sorted(d.edges), mutant)
                valid += got.valid
                missed += any("misses a walk" in v for v in got.violations)
                wider += got.valid and got.width > 1
        assert valid >= 1_000 and missed >= 500 and wider >= 500, (valid, missed, wider)

    def test_shape_families_match_the_per_arc_walks(self, monkeypatch):
        """The one-way test changes no report: the shape families with the
        recogniser's and the host tree's decompositions, their leaf shapes,
        one node per vertex on a chain and on a breadth-first tree, and the
        mutants of each.  Both the test and the walks that settle the
        other arcs run on many arcs."""
        rng = random.Random(432)
        cases = []
        for n in (4, 6, 9):
            chain = tree_dtd(bidirected_path(n))
            for _, d, verdict in shape_families(n):
                decs = [single_node_dtd(d), chain, tree_dtd(d)]
                if verdict == "YES":
                    own = recognize_dtw1(d).decomposition
                    route = hypertree_route(d).decomposition
                    decs += [own, route, dtd_to_leaf_dtd(d, own), dtd_to_leaf_dtd(d, route)]
                cases += [(d, m) for dec in decs for m in mutated_dtds(rng, dec, d)]
        walks = []
        walk = check.round_trips
        monkeypatch.setattr(
            check, "round_trips", lambda *args: walks.append(args) or walk(*args)
        )
        arcs = missed = 0
        for d, dec in cases:
            got = validate_dtd(d, dec)
            assert got == reference_validate_dtd(d, dec), (sorted(d.edges), dec)
            arcs += len(dec.arcs)
            missed += any("misses a walk" in v for v in got.violations)
        assert missed >= 1_000 and 1_000 <= len(walks) <= arcs * 3 // 4, (missed, len(walks), arcs)

    def test_gammas_are_the_arc_scan(self):
        rng = random.Random(431)
        for _ in range(20):
            d = bidirect(n := rng.randint(2, 30), random_tree_edges(rng, n))
            for dec in (recognize_dtw1(d).decomposition, single_node_dtd(d)):
                dec = dtd_to_leaf_dtd(d, dec)
                for t in dec.nodes:
                    expected = dec.bags[t].union(*(dec.guards[a] for a in dec.arcs if t in a))
                    assert dec.gamma_at(t) == expected


def two_leaf_dbd(hit):
    return BranchDecomposition(
        nodes=(0, 1),
        edges=((0, 1),),
        leaf_label={0: 0, 1: 1},
        edge_sets={(0, 1): frozenset(hit)},
    )


def star_dbd(n, hits):
    # centre 0, leaf i+1 carries vertex i
    return BranchDecomposition(
        nodes=tuple(range(n + 1)),
        edges=tuple((0, i + 1) for i in range(n)),
        leaf_label={i + 1: i for i in range(n)},
        edge_sets={(0, i + 1): frozenset(h) for i, h in enumerate(hits)},
    )


class TestValidateDbd:
    def test_digon_two_leaves(self):
        report = validate_dbd(digon(), two_leaf_dbd({0}))
        assert report.valid and report.width == 1

    def test_triangle_star(self):
        report = validate_dbd(directed_cycle_digraph(3), star_dbd(3, [{0}, {0}, {0}]))
        assert report.valid and report.width == 1

    def test_bidirected_triangle_star(self):
        # every crossing cycle contains the separated vertex, so singletons do
        report = validate_dbd(bicycle(3), star_dbd(3, [{0}, {1}, {2}]))
        assert report.valid and report.width == 1

    def test_cached_set_missing_a_cycle(self):
        report = validate_dbd(digon(), two_leaf_dbd(set()))
        assert not report.valid
        assert any("misses a crossing cycle" in v for v in report.violations)

    def test_cached_set_not_minimum(self):
        report = validate_dbd(digon(), two_leaf_dbd({0, 1}))
        assert not report.valid
        assert any("not minimum" in v for v in report.violations)

    def test_leaf_map_must_be_bijective(self):
        dec = BranchDecomposition(
            nodes=(0, 1),
            edges=((0, 1),),
            leaf_label={0: 0, 1: 0},
            edge_sets={(0, 1): frozenset({0})},
        )
        assert not validate_dbd(digon(), dec).valid

    def test_disconnected_tree_rejected(self):
        # three edges on four nodes, but a triangle leaves node 3 alone
        dec = BranchDecomposition(
            nodes=(0, 1, 2, 3),
            edges=((0, 1), (0, 2), (1, 2)),
            leaf_label={3: 0},
            edge_sets={},
        )
        report = validate_dbd(digon(), dec)
        assert report.violations == ("the edges do not connect all nodes",)

    def test_degree_four_rejected(self):
        d = directed_cycle_digraph(4)
        dec = star_dbd(4, [{0}, {0}, {0}, {0}])
        report = validate_dbd(d, dec)
        assert not report.valid
        assert any("degree" in v for v in report.violations)


class TestDtdChildren:
    def test_children_are_the_arc_scan(self):
        # The cached map gives every node its children in arc order, and no
        # children to a name that is not a parent.
        c6 = directed_cycle_digraph(6)
        tree = bidirect(8, [(0, 1), (1, 2), (1, 3), (3, 4), (0, 5), (5, 6), (5, 7)])
        decs = [
            single_node_dtd(digon()),
            triangle_dtd({0}),
            dtd_to_leaf_dtd(c6, single_node_dtd(c6)),
            recognize_dtw1(tree).decomposition,
        ]
        for dec in decs:
            for t in dec.nodes:
                assert dec.children(t) == tuple(c for (p, c) in dec.arcs if p == t)
            assert dec.children("absent") == ()


def reference_dtd_to_leaf_dtd(d, dec):
    """`dtd_to_leaf_dtd` as it was when each child token walked its whole
    subtree for its least vertex and a fixpoint loop pruned the new tree."""
    report = validate_dtd(d, dec)
    assert report.valid, f"input decomposition invalid: {report.violations}"
    (root,) = set(dec.nodes).difference(c for (_, c) in dec.arcs)
    orig_gamma = {t: dec.gamma_at(t) for t in dec.nodes}

    bags = {}
    arcs = []
    guards = {}
    spine_count = {}
    for t in dec.nodes:
        keep = not dec.children(t) and len(dec.bags[t]) == 1
        bags[("node", t)] = dec.bags[t] if keep else frozenset()

    def child_key(token):
        """Leaves and child subtrees by their least vertex; children whose
        subtrees hold no vertex last, by name."""
        if token[0] == "leaf":
            return (0, token[2], "")
        vs = subtree_vertices(dec, token[1])
        return (0, min(vs), "") if vs else (1, 0, str(token[1]))

    def attach(parent, source, tokens, allowed):
        while len(tokens) > allowed:
            head, tokens = tokens[: allowed - 1], tokens[allowed - 1 :]
            for c in head:
                link(parent, source, c)
            i = spine_count.get(source, 0)
            spine_count[source] = i + 1
            s = ("spine", source, i)
            bags[s] = frozenset()
            arcs.append((parent, s))
            guards[(parent, s)] = orig_gamma[source]
            parent = s
            allowed = 2
        for c in tokens:
            link(parent, source, c)

    def link(parent, source, child):
        arcs.append((parent, child))
        if child[0] == "leaf":
            guards[(parent, child)] = dec.bags[source]
        else:
            guards[(parent, child)] = dec.guards[(source, child[1])]

    for t in dec.nodes:
        keep = not dec.children(t) and len(dec.bags[t]) == 1
        tokens = [("node", c) for c in dec.children(t)]
        if not keep:
            for v in sorted(dec.bags[t]):
                leaf = ("leaf", t, v)
                bags[leaf] = frozenset({v})
                tokens.append(leaf)
        tokens.sort(key=child_key)
        attach(("node", t), t, tokens, 3 if t == root else 2)

    # prune childless empty nodes and empty single-child roots
    children = {}
    for (p, c) in arcs:
        children.setdefault(p, []).append(c)
    alive = set(bags)
    root_token = ("node", root)
    changed = True
    while changed:
        changed = False
        for t in sorted(alive, key=str):
            live_kids = [c for c in children.get(t, ()) if c in alive]
            if t != root_token and not live_kids and not bags[t]:
                alive.remove(t)
                changed = True
        live_kids = [c for c in children.get(root_token, ()) if c in alive]
        if not bags[root_token] and len(live_kids) == 1:
            alive.remove(root_token)
            root_token = live_kids[0]
            changed = True

    order, kept = _bfs_arcs(
        root_token, lambda t: [c for c in children.get(t, ()) if c in alive]
    )
    rename = {t: i for i, t in enumerate(order)}
    out = DirectedTreeDecomposition(
        nodes=tuple(range(len(order))),
        arcs=tuple((rename[p], rename[c]) for (p, c) in kept),
        bags={rename[t]: bags[t] for t in order},
        guards={(rename[p], rename[c]): guards[(p, c)] for (p, c) in kept},
    )
    check = validate_dtd(d, out)
    assert check.valid, f"leaf construction went invalid: {check.violations}"
    assert check.width <= report.width, "leaf construction may not widen"
    leaf_nodes = [t for t in out.nodes if not out.children(t)]
    assert all(len(out.bags[t]) == 1 for t in leaf_nodes)
    assert all(
        not out.bags[t] for t in out.nodes if out.children(t)
    ), "internal bags must be empty"
    degree = {t: 0 for t in out.nodes}
    for (p, c) in out.arcs:
        degree[p] += 1
        degree[c] += 1
    assert all(degree[t] <= 3 for t in out.nodes), "tree must be subcubic"
    return out


class TestLeafDtd:
    def test_digon_becomes_three_node_path(self):
        d = digon()
        out = dtd_to_leaf_dtd(d, single_node_dtd(d))
        assert len(out.nodes) == 3
        assert sorted(map(sorted, out.bags.values())) == [[], [0], [1]]
        assert all(g == frozenset({0, 1}) for g in out.guards.values())
        assert validate_dtd(d, out).width == 1

    def test_already_leaf_shape_is_fixed(self):
        d = directed_cycle_digraph(3)
        once = dtd_to_leaf_dtd(d, triangle_dtd({0}))
        twice = dtd_to_leaf_dtd(d, once)
        assert once == twice

    def test_triangle_keeps_width_one(self):
        d = directed_cycle_digraph(3)
        out = dtd_to_leaf_dtd(d, triangle_dtd({0}))
        report = validate_dtd(d, out)
        assert report.valid and report.width == 1
        leaves = [t for t in out.nodes if not out.children(t)]
        assert sorted(min(out.bags[t]) for t in leaves) == [0, 1, 2]

    def test_single_vertex_digraph(self):
        d = digraph_from_edges(1, [])
        out = dtd_to_leaf_dtd(d, single_node_dtd(d))
        assert len(out.nodes) == 1
        assert out.bags[0] == frozenset({0})

    def test_wide_bag_grows_a_spine(self):
        d = directed_cycle_digraph(6)
        out = dtd_to_leaf_dtd(d, single_node_dtd(d))
        report = validate_dtd(d, out)
        assert report.valid
        degree = {t: 0 for t in out.nodes}
        for (p, c) in out.arcs:
            degree[p] += 1
            degree[c] += 1
        assert max(degree.values()) <= 3
        leaves = [t for t in out.nodes if not out.children(t)]
        assert len(leaves) == 6

    def test_a4_width_two_survives(self):
        d = a4_digraph()
        dec = DirectedTreeDecomposition(
            nodes=(0, 1),
            arcs=((0, 1),),
            bags={0: frozenset({0, 1, 2}), 1: frozenset({3})},
            guards={(0, 1): frozenset({0, 1})},
        )
        out = dtd_to_leaf_dtd(d, dec)
        report = validate_dtd(d, out)
        assert report.valid and report.width <= 2


def empty_children_dtd(root_bag, child_bags, guard=()):
    """A root over one child per entry of child_bags, numbered from 1; every
    arc has the same guard."""
    kids = range(1, len(child_bags) + 1)
    return DirectedTreeDecomposition(
        nodes=(0, *kids),
        arcs=tuple((0, c) for c in kids),
        bags={0: frozenset(root_bag), **{c: frozenset(b) for c, b in zip(kids, child_bags)}},
        guards={(0, c): frozenset(guard) for c in kids},
    )


class TestLeafDtdReference:
    def assert_matches(self, d, dec):
        got, ref = dtd_to_leaf_dtd(d, dec), reference_dtd_to_leaf_dtd(d, dec)
        assert (got.nodes, got.arcs, got.bags, got.guards) == (
            ref.nodes, ref.arcs, ref.bags, ref.guards
        ), (sorted(d.edges), dec)

    def test_shape_families_and_their_valid_mutants_match(self):
        rng = random.Random(433)
        compared = mutants = 0
        for n in (4, 6, 9):
            chain = tree_dtd(bidirected_path(n))
            for _, d, verdict in shape_families(n):
                decs = [single_node_dtd(d), chain, tree_dtd(d)]
                if verdict == "YES":
                    decs += [recognize_dtw1(d).decomposition, hypertree_route(d).decomposition]
                for dec in decs:
                    for i, m in enumerate(mutated_dtds(rng, dec, d)):
                        if validate_dtd(d, m).valid:
                            self.assert_matches(d, m)
                            compared += 1
                            mutants += i > 0
        assert compared >= 450 and mutants >= 350, (compared, mutants)

    def test_vertex_free_subtrees_match(self):
        c3 = directed_cycle_digraph(3)
        cases = [
            # a root with three vertices over three empty children: the
            # root's six tokens need a spine
            (c3, empty_children_dtd({0, 1, 2}, [(), (), ()])),
            # the spine below the first two tokens holds only empty children
            (c3, empty_children_dtd({0}, [{1, 2}, (), (), (), ()], guard={0})),
            # pruning the empty children leaves an empty root with one child
            (c3, empty_children_dtd((), [{0, 1, 2}, (), ()])),
        ]
        for d, dec in cases:
            self.assert_matches(d, dec)
        out = dtd_to_leaf_dtd(*cases[1])
        assert sorted(map(sorted, out.bags.values())) == [[], [], [0], [1], [2]]

    def test_children_reads_stay_linear(self, monkeypatch):
        """On the chain decomposition of P_n the conversion reads each
        node's children a bounded number of times; walking every child's
        subtree again for its least vertex read them Θ(n²) times."""
        reads = 0
        children = DirectedTreeDecomposition.children

        def counted(dec, t):
            nonlocal reads
            reads += 1
            return children(dec, t)

        monkeypatch.setattr(DirectedTreeDecomposition, "children", counted)
        for n in (64, 512):
            d = bidirected_path(n)
            dec = tree_dtd(d)
            reads = 0
            dtd_to_leaf_dtd(d, dec)
            assert reads <= 12 * n, (n, reads)


class TestDtdToDbd:
    def test_digon(self):
        d = digon()
        out = dtd_to_dbd(d, single_node_dtd(d))
        report = validate_dbd(d, out)
        assert report.valid and report.width == 1

    def test_triangle(self):
        d = directed_cycle_digraph(3)
        out = dtd_to_dbd(d, triangle_dtd({0}))
        report = validate_dbd(d, out)
        assert report.valid and report.width == 1

    def test_a4_width_at_most_three(self):
        d = a4_digraph()
        dec = DirectedTreeDecomposition(
            nodes=(0, 1),
            arcs=((0, 1),),
            bags={0: frozenset({0, 1, 2}), 1: frozenset({3})},
            guards={(0, 1): frozenset({0, 1})},
        )
        out = dtd_to_dbd(d, dec)
        report = validate_dbd(d, out)
        assert report.valid and report.width <= 3

    def test_bidirected_triangle(self):
        d = bicycle(3)
        out = dtd_to_dbd(d, single_node_dtd(d))
        report = validate_dbd(d, out)
        assert report.valid and report.width == 1


class TestDbdHbdRoundTrip:
    def cases(self):
        yield digon(), dtd_to_dbd(digon(), single_node_dtd(digon()))
        d3 = directed_cycle_digraph(3)
        yield d3, dtd_to_dbd(d3, triangle_dtd({0}))
        b3 = bicycle(3)
        yield b3, dtd_to_dbd(b3, single_node_dtd(b3))
        a4 = a4_digraph()
        yield a4, dtd_to_dbd(a4, single_node_dtd(a4))

    def test_widths_agree(self):
        for d, dbd in self.cases():
            assert dbd_to_hbd(d, dbd) is dbd
            report = validate_hbd(dual(cycle_hypergraph(d).as_hypergraph()), dbd)
            assert report.valid and report.width == dbd.width()

    def test_a_set_that_is_not_minimum_fails_the_check(self):
        # On the digon each tree edge's boundary is the single cycle, so
        # its hitting set needs one vertex; both is too many, and a set
        # naming no digon vertex is unknown to the dual.
        d, dbd = next(self.cases())
        e = dbd.edges[0]
        for cached, violation in (({0, 1}, "is not minimum"), ({5}, "names unknown hyperedges")):
            fat = replace(dbd, edge_sets={**dbd.edge_sets, e: frozenset(cached)})
            with pytest.raises(AssertionError, match=violation):
                dbd_to_hbd(d, fat)

    def test_one_type_reads_both_ways(self):
        # Small strongly connected digraphs, one per isomorphism class: an
        # optimal decomposition of the dual validates over the digraph, and
        # an optimal decomposition of the digraph validates over the dual,
        # each with its own width.
        checked = 0
        for n in (2, 3, 4):
            for d in strongly_connected_up_to_iso(n):
                ch = cycle_hypergraph(d)
                ground = dual(ch.as_hypergraph())
                width, hbd = exact_hbw(ground, n)
                report = validate_dbd(d, hbd)
                assert report.valid and report.width == width, sorted(d.edges)
                dbd = exhaustive_optimal_dbd(d, ch)
                report = validate_hbd(ground, dbd)
                assert report.valid and report.width == dbd.width(), sorted(d.edges)
                # and the two oracles return the same decomposition
                assert (dbd.nodes, dbd.edges, dbd.leaf_label, dbd.edge_sets) == (
                    hbd.nodes, hbd.edges, hbd.leaf_label, hbd.edge_sets
                ), sorted(d.edges)
                checked += 1
        assert checked == 1 + 5 + 83


def reference_optimal_branch_decomposition(m, edge_set):
    """The exhaustive branch-width search with no cache: every tree of
    `leaf_labeled_subcubic_trees(m)` becomes a `BranchDecomposition`, and
    `edge_set(dec, e)` gives each edge's set, read through
    `BranchDecomposition.side`.  The first tree of least width wins."""
    labels = {i: i for i in range(m)}
    if m <= 1:
        return BranchDecomposition(tuple(range(m)), (), labels, {})
    nodes = tuple(range(2 * m - 2))
    best = None
    for edges in leaf_labeled_subcubic_trees(m):
        dec = BranchDecomposition(nodes, edges, labels, {})
        sets = {e: edge_set(dec, e) for e in edges}
        width = max(len(s) for s in sets.values())
        if best is None or width < best[0]:
            best = (width, edges, sets)
    _, edges, sets = best
    return BranchDecomposition(nodes, edges, labels, sets)


def reference_dbd(d, ch):
    return reference_optimal_branch_decomposition(
        d.n, lambda dec, e: min_hitting_set(ch, cut(ch, dec.side(e, e[0])))
    )


def reference_hbd(h):
    return reference_optimal_branch_decomposition(
        len(h.edges), lambda dec, e: min_cover(h, _boundary(h, dec, e))
    )


class TestOptimalBranchDecomposition:
    def test_both_oracles_match_the_reference_on_small_classes(self):
        checked = 0
        for n in (1, 2, 3, 4):
            for d in strongly_connected_up_to_iso(n):
                ch = cycle_hypergraph(d)
                ground = dual(ch.as_hypergraph())
                assert exhaustive_optimal_dbd(d, ch) == reference_dbd(d, ch), sorted(d.edges)
                ref = reference_hbd(ground)
                assert exact_hbw(ground, n) == (ref.width(), ref), sorted(d.edges)
                checked += 1
        assert checked == 1 + 1 + 5 + 83

    def test_exact_hbw_matches_the_reference_on_random_hypergraphs(self):
        rng = random.Random(83)
        sizes = set()
        for _ in range(200):
            h = random_hypergraph(rng, 6, 6)
            ref = reference_hbd(h)
            assert exact_hbw(h, 6) == (ref.width(), ref), h.edges
            sizes.add(len(h.edges))
        assert sizes == {1, 2, 3, 4, 5, 6}

    def test_tree_sides_are_read_once_per_shape(self, monkeypatch):
        # The 83 four-vertex classes through both oracles read the sides of
        # the three 4-leaf trees once each.  When each oracle scanned the
        # trees itself, every digraph read them again in both: 498 calls.
        calls = 0

        def counted(edges):
            nonlocal calls
            calls += 1
            return _tree_sides(edges)

        monkeypatch.setattr(decomp, "_tree_sides", counted)
        decomp._shapes.cache_clear()
        for d in strongly_connected_up_to_iso(4):
            ch = cycle_hypergraph(d)
            exhaustive_optimal_dbd(d, ch)
            exact_hbw(dual(ch.as_hypergraph()), 4)
        assert calls == 3


class TestDtdToGhd:
    def test_digon_single_node(self):
        d = digon()
        ghd = dtd_to_ghd(d, single_node_dtd(d))
        assert ghd.nodes == (0,)
        assert ghd.bags[0] == frozenset({0})
        assert ghd.guards[0] == frozenset({0, 1})
        assert ghd.width == 2
        ground = dual(cycle_hypergraph(d).as_hypergraph())
        assert validate_ghd(ground, ghd).valid

    def test_triangle_width_at_most_two(self):
        d = directed_cycle_digraph(3)
        ghd = dtd_to_ghd(d, triangle_dtd({0}))
        ground = dual(cycle_hypergraph(d).as_hypergraph())
        report = validate_ghd(ground, ghd)
        assert report.valid and report.width <= 2

    def test_bidirected_triangle_width_at_most_three(self):
        d = bicycle(3)
        ghd = dtd_to_ghd(d, single_node_dtd(d))
        ground = dual(cycle_hypergraph(d).as_hypergraph())
        report = validate_ghd(ground, ghd)
        assert report.valid and report.width <= 3

    def test_dag_gives_the_empty_decomposition(self):
        d = digraph_from_edges(3, [(0, 1), (1, 2)])
        dec = DirectedTreeDecomposition(
            nodes=(0,), arcs=(), bags={0: frozenset({0, 1, 2})}, guards={}
        )
        ghd = dtd_to_ghd(d, dec)
        assert ghd.nodes == ()
        ground = dual(cycle_hypergraph(d).as_hypergraph())
        report = validate_ghd(ground, ghd)
        assert report.valid and report.width == 0


class TestValidateGhdHd:
    def test_single_edge_single_node(self):
        h = hypergraph_from_edges([{0, 1, 2}])
        dec = HypertreeDecomposition(
            nodes=(0,), arcs=(), bags={0: frozenset({0, 1, 2})}, guards={0: frozenset({0})}
        )
        for checker in (validate_ghd, validate_hd):
            report = checker(h, dec)
            assert report.valid and report.width == 1

    def test_uncovered_bag_rejected(self):
        h = hypergraph_from_edges([{0, 1}, {2}])
        dec = HypertreeDecomposition(
            nodes=(0,),
            arcs=(),
            bags={0: frozenset({0, 1, 2})},
            guards={0: frozenset({0})},
        )
        report = validate_ghd(h, dec)
        assert not report.valid
        assert any("not covered" in v for v in report.violations)

    def test_missing_vertex_rejected(self):
        h = hypergraph_from_edges([{0, 1}])
        dec = HypertreeDecomposition(
            nodes=(0,), arcs=(), bags={0: frozenset({0})}, guards={0: frozenset({0})}
        )
        assert not validate_ghd(h, dec).valid

    def test_disconnected_holder_rejected(self):
        h = hypergraph_from_edges([{0, 1}, {1, 2}, {0, 2}])
        dec = HypertreeDecomposition(
            nodes=(0, 1, 2),
            arcs=((0, 1), (1, 2)),
            bags={
                0: frozenset({0, 1}),
                1: frozenset({1, 2}),
                2: frozenset({0, 2}),
            },
            guards={t: frozenset({0, 1, 2}) for t in (0, 1, 2)},
        )
        report = validate_ghd(h, dec)
        assert not report.valid
        assert any("not connected" in v for v in report.violations)

    def test_disconnected_tree_rejected(self):
        h = hypergraph_from_edges([{0, 1}])
        dec = HypertreeDecomposition(
            nodes=(0, 1, 2, 3),
            arcs=((0, 1), (1, 2), (2, 0)),
            bags={t: frozenset({0, 1}) for t in range(4)},
            guards={t: frozenset({0}) for t in range(4)},
        )
        for checker in (validate_ghd, validate_hd):
            report = checker(h, dec)
            assert report.violations == ("the arcs do not connect all nodes",)

    def test_descendant_condition_only_for_hd(self):
        # the guard edge of the root reaches a vertex placed below the root
        h = hypergraph_from_edges([{0, 1}, {1, 2}])
        dec = HypertreeDecomposition(
            nodes=(0, 1),
            arcs=((0, 1),),
            bags={0: frozenset({0, 1}), 1: frozenset({1, 2})},
            guards={0: frozenset({0, 1}), 1: frozenset({1})},
        )
        assert validate_ghd(h, dec).valid
        report = validate_hd(h, dec)
        assert not report.valid
        assert any("below" in v for v in report.violations)

    def test_pair_without_common_bag_rejected(self):
        h = hypergraph_from_edges([{0, 1, 2}])
        dec = HypertreeDecomposition(
            nodes=(0, 1),
            arcs=((0, 1),),
            bags={0: frozenset({0, 1}), 1: frozenset({2})},
            guards={0: frozenset({0}), 1: frozenset({0})},
        )
        report = validate_ghd(h, dec)
        assert not report.valid
        assert any("common edge" in v for v in report.violations)

    def test_empty_hypergraph_empty_decomposition(self):
        h = Hypergraph((), ())
        dec = HypertreeDecomposition((), (), {}, {})
        for checker in (validate_ghd, validate_hd):
            report = checker(h, dec)
            assert report.valid and report.width == 0


class TestValidateHbd:
    def test_minimal_cases(self):
        h = hypergraph_from_edges([{0, 1}])
        dec = BranchDecomposition(
            nodes=(0,), edges=(), leaf_label={0: 0}, edge_sets={}
        )
        report = validate_hbd(h, dec)
        assert report.valid and report.width == 0

    def test_leaves_must_biject_onto_the_given_edges(self):
        h = hypergraph_from_edges([{0, 1}, {1, 2}, {2, 0}])
        width, dec = exact_hbw(h, 3)
        assert validate_hbd(h, dec).valid and width == 1
        # the same tree is no decomposition of a hypergraph with an edge more
        bigger = hypergraph_from_edges([{0, 1}, {1, 2}, {2, 0}, {0, 3}])
        report = validate_hbd(bigger, dec)
        assert report.violations == (
            "leaf map must be a bijection onto the edge indices",
        )
        relabelled = BranchDecomposition(
            dec.nodes, dec.edges, {t: 0 for t in dec.leaf_label}, dec.edge_sets
        )
        report = validate_hbd(h, relabelled)
        assert report.violations == (
            "leaf map must be a bijection onto the edge indices",
        )

    def test_cover_must_be_minimum(self):
        h = hypergraph_from_edges([{0, 1}, {1, 2}])
        good = BranchDecomposition(
            nodes=(0, 1),
            edges=((0, 1),),
            leaf_label={0: 0, 1: 1},
            edge_sets={(0, 1): frozenset({0})},
        )
        assert validate_hbd(h, good).valid
        fat = BranchDecomposition(
            nodes=(0, 1),
            edges=((0, 1),),
            leaf_label={0: 0, 1: 1},
            edge_sets={(0, 1): frozenset({0, 1})},
        )
        report = validate_hbd(h, fat)
        assert not report.valid
        assert any("not minimum" in v for v in report.violations)

    def test_cover_naming_an_unknown_hyperedge_is_a_violation(self):
        h = hypergraph_from_edges([{0, 1}, {1, 2}])
        dec = BranchDecomposition(
            nodes=(0, 1),
            edges=((0, 1),),
            leaf_label={0: 0, 1: 1},
            edge_sets={(0, 1): frozenset({5})},
        )
        report = validate_hbd(h, dec)
        assert report.violations == ("cover of edge (0, 1) names unknown hyperedges",)
