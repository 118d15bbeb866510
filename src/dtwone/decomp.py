"""Branch and hypertree decompositions with their validators, the one
exhaustive search for an optimal branch decomposition, and the
conversions from directed tree decompositions, whose type and validator
(`validate_dtd`) live in the certificate checker, `check`.

One `BranchDecomposition` type serves a digraph and its dual cycle
hypergraph, whose leaf labels are the digraph's vertices or the
hypergraph's edge indices.  The conversions are dtd → dbd (`dtd_to_dbd`),
a dbd checked as a decomposition of the dual (`dbd_to_hbd`), and dtd → ghd
(`dtd_to_ghd`)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property

from .check import DirectedTreeDecomposition, Report, validate_dtd
from .cycles import DEFAULT_CYCLE_CAP, cut, cycle_hypergraph, min_hitting_set
from .digraph import Digraph, _bfs_arcs
from .errors import InstanceTooLarge
from .hypergraph import (
    Hypergraph,
    HypertreeDecomposition,
    _tree_sides,
    _vertex_components,
    dual,
    leaf_labeled_subcubic_trees,
    min_cover,
)

EXACT_HBW_MAX_EDGES = 7  # leaf limit of the exhaustive branch-width search


@dataclass(frozen=True)
class BranchDecomposition:
    """An unrooted subcubic tree with a label per leaf and a cached set per
    tree edge.

    Over a digraph, leaves name its vertices and each set is a minimum
    hitting set of the directed cycles crossing the edge.  Over a
    hypergraph, leaves name its edge indices and each set is a minimum cover
    of the edge's boundary.  Over the dual cycle hypergraph the two readings
    are one: vertex v is dual hyperedge v.
    """

    nodes: tuple
    edges: tuple
    leaf_label: dict
    edge_sets: dict

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(
            self, "edges", tuple(tuple(sorted(e)) for e in self.edges)
        )
        object.__setattr__(
            self,
            "edge_sets",
            {tuple(sorted(e)): frozenset(s) for e, s in self.edge_sets.items()},
        )

    def degree(self, t):
        return sum(1 for e in self.edges if t in e)

    def leaves(self):
        return tuple(t for t in self.nodes if self.degree(t) <= 1)

    @cached_property
    def _sides(self):
        every = frozenset(self.nodes)
        leaves = frozenset(self.leaf_label)
        label = self.leaf_label.__getitem__
        sides = {}
        for e, near in _tree_sides(self.edges).items():
            sides[e, e[0]] = frozenset(map(label, near & leaves))
            sides[e, e[1]] = frozenset(map(label, (every - near) & leaves))
        return sides

    def side(self, e, endpoint):
        """The labels at the leaves of the component of tree − e containing
        the given endpoint."""
        assert endpoint in e
        return self._sides[tuple(sorted(e)), endpoint]

    def width(self):
        return max((len(s) for s in self.edge_sets.values()), default=0)


@cache
def _shapes(m):
    """Each tree of `leaf_labeled_subcubic_trees(m)` with the leaves on
    the first node's side of each of its edges.  The trees depend only on
    m, so their sides are read off `_tree_sides` once per process."""
    leaves = frozenset(range(m))
    return tuple(
        (edges, tuple((e, near & leaves) for e, near in _tree_sides(edges).items()))
        for edges in leaf_labeled_subcubic_trees(m)
    )


def optimal_branch_decomposition(m, edge_set) -> BranchDecomposition:
    """The exhaustive branch-width search: over every tree of
    `leaf_labeled_subcubic_trees(m)`, leaf i labelled i (with m ≤ 1 the
    leaves are the whole tree), the first whose largest edge set is
    smallest.  A tree edge's set is `edge_set(side)` for
    the leaves on its first node's side, asked once per side.  Both exact
    oracles, `hypergraph.exact_hbw` and `suite.exhaustive_optimal_dbd`, are
    this search with their own edge sets."""
    if m > EXACT_HBW_MAX_EDGES:
        raise InstanceTooLarge(
            f"exhaustive branch width limited to {EXACT_HBW_MAX_EDGES} leaves, got {m}"
        )
    memo = {}
    best = None
    for edges, sides in _shapes(m):
        sets = {}
        for e, side in sides:
            if side not in memo:
                memo[side] = edge_set(side)
            sets[e] = memo[side]
        width = max(map(len, sets.values()), default=0)
        if best is None or width < best[0]:
            best = width, edges, sets
    _, edges, sets = best
    return BranchDecomposition(
        tuple(range(max(2 * m - 2, m))), edges, {i: i for i in range(m)}, sets
    )


def _tree_report(nodes, edges, max_degree=3):
    """Structural violations for an undirected tree given by nodes/edges."""
    violations = []
    if not nodes or len(set(nodes)) != len(nodes):
        violations.append("nodes must be non-empty and pairwise distinct")
        return violations
    known = set(nodes)
    for e in edges:
        if len(e) != 2 or e[0] not in known or e[1] not in known or e[0] == e[1]:
            violations.append(f"edge {e!r} does not join two distinct nodes")
    if len(set(edges)) != len(edges):
        violations.append("edges repeat")
    if violations:
        return violations
    if len(edges) != len(nodes) - 1:
        violations.append("a tree needs exactly one edge less than nodes")
        return violations
    adj = {t: [] for t in nodes}
    for (u, v) in edges:
        adj[u].append(v)
        adj[v].append(u)
    if len(_vertex_components(adj, nodes)) != 1:
        violations.append("the edges do not connect all nodes")
    for t in nodes:
        if len(adj[t]) > max_degree:
            violations.append(f"node {t!r} has degree above {max_degree}")
    return violations


def _shape_report(dec: BranchDecomposition, count, labels, sets) -> list:
    """Violations of a branch decomposition's shape: a subcubic tree whose
    leaves biject onto range(count) and whose sets are keyed by its edges.
    `labels` and `sets` name the leaf labels and the edge sets."""
    violations = _tree_report(dec.nodes, dec.edges)
    if violations:
        return violations
    if set(dec.leaf_label) != set(dec.leaves()):
        violations.append("leaf map must be keyed by exactly the tree leaves")
    if sorted(dec.leaf_label.values()) != list(range(count)):
        violations.append(f"leaf map must be a bijection onto the {labels}")
    if set(dec.edge_sets) != set(dec.edges):
        violations.append(f"{sets} must be keyed by exactly the edges")
    return violations


def validate_dbd(
    d: Digraph,
    dec: BranchDecomposition,
    cap: int = DEFAULT_CYCLE_CAP,
) -> Report:
    """Check a directed branch decomposition and recompute every edge's
    thickness: the least size of a set hitting all directed cycles with
    vertices on both sides of the edge.  The cached witnesses must hit their
    crossing cycles and be of minimum size."""
    violations = _shape_report(dec, d.n, "vertices", "hitting sets")
    if violations:
        return Report(False, None, tuple(violations))

    ch = cycle_hypergraph(d, cap)
    width = 0
    for e in dec.edges:
        targets = cut(ch, dec.side(e, e[0]))
        best = min_hitting_set(ch, targets)
        cached = dec.edge_sets[e]
        if not all(ch.hyperedges[i] & cached for i in targets):
            violations.append(f"cached set of edge {e!r} misses a crossing cycle")
        elif len(cached) != len(best):
            violations.append(f"cached set of edge {e!r} is not minimum")
        width = max(width, len(best))
    if violations:
        return Report(False, None, tuple(violations))
    return Report(True, width, ())


def _union(h: Hypergraph, indices) -> frozenset:
    """The vertices of h covered by the hyperedges with the given indices."""
    return frozenset().union(*map(h.edges.__getitem__, indices))


def _boundary(h: Hypergraph, dec: BranchDecomposition, e) -> frozenset:
    """The vertices of h covered by hyperedges on both sides of a tree edge
    of a branch decomposition whose leaves biject onto the edges of h."""
    return _union(h, dec.side(e, e[0])) & _union(h, dec.side(e, e[1]))


def validate_hbd(h: Hypergraph, dec: BranchDecomposition) -> Report:
    """Check a hyperbranch decomposition against the hypergraph h: the
    cached covers must cover their boundaries and be of minimum size."""
    m = len(h.edges)
    if m <= 1:
        if dec.edges or len(dec.nodes) != m or sorted(
            dec.leaf_label.values()
        ) != list(range(m)):
            return Report(False, None, ("a hypergraph this small needs a bare tree",))
        return Report(True, 0, ())
    violations = _shape_report(dec, m, "edge indices", "cover sets")
    if violations:
        return Report(False, None, tuple(violations))
    width = 0
    for e in dec.edges:
        boundary = _boundary(h, dec, e)
        best = min_cover(h, boundary)
        cached = dec.edge_sets[e]
        if not cached <= frozenset(range(m)):
            violations.append(f"cover of edge {e!r} names unknown hyperedges")
        elif not boundary <= _union(h, cached):
            violations.append(f"cover of edge {e!r} misses its boundary")
        elif len(cached) != len(best):
            violations.append(f"cover of edge {e!r} is not minimum")
        width = max(width, len(best))
    if violations:
        return Report(False, None, tuple(violations))
    return Report(True, width, ())


def _validate_hyper_decomposition(h, dec, descendant):
    violations = []
    nodes = dec.nodes
    if len(set(nodes)) != len(nodes):
        violations.append("nodes repeat")
        return Report(False, None, tuple(violations))
    if not nodes:
        if h.vertices or h.edges:
            violations.append("empty decomposition for a non-empty hypergraph")
        return Report(not violations, 0 if not violations else None, tuple(violations))
    known = set(nodes)
    for a in dec.arcs:
        if len(a) != 2 or a[0] not in known or a[1] not in known or a[0] == a[1]:
            violations.append(f"arc {a!r} does not join two distinct nodes")
    if len(set(dec.arcs)) != len(dec.arcs):
        violations.append("arcs repeat")
    if set(dec.bags) != known or set(dec.guards) != known:
        violations.append("bags and guards must be keyed by exactly the nodes")
    if violations:
        return Report(False, None, tuple(violations))
    if len(dec.arcs) != len(nodes) - 1:
        violations.append("a tree needs exactly one arc less than nodes")
        return Report(False, None, tuple(violations))
    adj = {t: [] for t in nodes}
    for (p, c) in dec.arcs:
        adj[p].append(c)
        adj[c].append(p)
    if len(_vertex_components(adj, nodes)) != 1:
        violations.append("the arcs do not connect all nodes")
        return Report(False, None, tuple(violations))
    if descendant:
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

    vertex_set = set(h.vertices)
    edge_count = len(h.edges)
    for t in nodes:
        if not dec.bags[t] <= vertex_set:
            violations.append(f"bag of node {t!r} mentions unknown vertices")
        if not set(dec.guards[t]) <= set(range(edge_count)):
            violations.append(f"guard of node {t!r} names unknown hyperedges")
    if violations:
        return Report(False, None, tuple(violations))

    holders = {v: [t for t in nodes if v in dec.bags[t]] for v in h.vertices}
    for v in h.vertices:
        if not holders[v]:
            violations.append(f"vertex {v!r} appears in no bag")
    for e in h.edges:
        pairs = sorted(e)
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                u, v = pairs[i], pairs[j]
                if not any(
                    u in dec.bags[t] and v in dec.bags[t] for t in nodes
                ):
                    violations.append(
                        f"no bag contains both {u!r} and {v!r} of a common edge"
                    )
    for v in h.vertices:
        if len(_vertex_components(adj, holders[v])) > 1:
            violations.append(f"the bags containing {v!r} are not connected")
    for t in nodes:
        if not dec.bags[t] <= _union(h, dec.guards[t]):
            violations.append(f"bag of node {t!r} is not covered by its guard")
    if descendant and not violations:
        children = {t: [] for t in nodes}
        for (p, c) in dec.arcs:
            children[p].append(c)
        for t in nodes:
            below, _ = _bfs_arcs(t, children.__getitem__)
            inside = frozenset().union(*(dec.bags[s] for s in below))
            if not _union(h, dec.guards[t]) & inside <= dec.bags[t]:
                violations.append(
                    f"guard of node {t!r} reaches below the node past its bag"
                )
    if violations:
        return Report(False, None, tuple(violations))
    width = max(len(dec.guards[t]) for t in nodes)
    return Report(True, width, ())


def validate_ghd(h: Hypergraph, dec: HypertreeDecomposition) -> Report:
    """Check the tree-decomposition axioms on the 2-section plus coverage of
    every bag by its guard edges; the rooting is ignored."""
    return _validate_hyper_decomposition(h, dec, descendant=False)


def validate_hd(h: Hypergraph, dec: HypertreeDecomposition) -> Report:
    """validate_ghd plus the arborescence shape and the descendant condition:
    below a node, its guard edges may only touch the node's own bag."""
    return _validate_hyper_decomposition(h, dec, descendant=True)


def dtd_to_leaf_dtd(
    d: Digraph, dec: DirectedTreeDecomposition
) -> DirectedTreeDecomposition:
    """Rebuild a valid decomposition in leaf shape: every vertex sits alone in
    a leaf bag, internal bags are empty, and the tree is subcubic.

    Per node, one new leaf is hung below it for each bag vertex, guarded by
    the node's original bag; nodes with too many children grow a spine of
    empty nodes guarded by the node's original Γ.  Childless nodes that
    already hold exactly one vertex stay as they are, so decompositions
    already in leaf shape only get relabelled.  The width never increases;
    the result is re-validated.
    """
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
        vs = dec.subtree_vertices(token[1])
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


def dtd_to_dbd(
    d: Digraph, dec: DirectedTreeDecomposition, cap: int = DEFAULT_CYCLE_CAP
) -> BranchDecomposition:
    """Forget the orientation of the leaf-shaped decomposition: leaves name
    their bag vertices and every tree edge caches a true minimum hitting set
    for its crossing cycles."""
    leaf = dtd_to_leaf_dtd(d, dec)
    shape = BranchDecomposition(
        nodes=leaf.nodes,
        edges=sorted(tuple(sorted(a)) for a in leaf.arcs),
        leaf_label={t: min(leaf.bags[t]) for t in leaf.nodes if not leaf.children(t)},
        edge_sets={},
    )
    ch = cycle_hypergraph(d, cap)
    hitting = {e: min_hitting_set(ch, cut(ch, shape.side(e, e[0]))) for e in shape.edges}
    return replace(shape, edge_sets=hitting)


def dbd_to_hbd(
    d: Digraph, dec: BranchDecomposition, cap: int = DEFAULT_CYCLE_CAP
) -> BranchDecomposition:
    """Check a branch decomposition of the digraph as one of its dual cycle
    hypergraph, and return it unchanged.  Leaf vertex v is dual hyperedge v.
    `validate_hbd` must accept it there: the shape, and on every edge a
    cached hitting set that covers the boundary with the fewest vertices."""
    ch = cycle_hypergraph(d, cap)
    assert len(ch.vertices) == d.n, (
        "conversion needs every vertex on a directed cycle"
    )
    report = validate_hbd(dual(ch.as_hypergraph()), dec)
    assert report.valid, "; ".join(report.violations)
    return dec


def _minimal_subtree(adj, targets):
    """The nodes of the smallest subtree containing all target nodes:
    repeatedly shed leaves that are not targets."""
    targets = set(targets)
    if not targets:
        return set()
    alive = set(adj)
    degree = {t: len(adj[t]) for t in alive}
    queue = [t for t in alive if degree[t] <= 1 and t not in targets]
    while queue:
        t = queue.pop()
        if t not in alive:
            continue
        alive.remove(t)
        for u in adj[t]:
            if u in alive:
                degree[u] -= 1
                if degree[u] <= 1 and u not in targets:
                    queue.append(u)
    return alive


def dtd_to_ghd(
    d: Digraph, dec: DirectedTreeDecomposition, cap: int = DEFAULT_CYCLE_CAP
) -> HypertreeDecomposition:
    """A generalised hypertree decomposition of the dual cycle hypergraph,
    over the same tree: each cycle's dual vertex occupies the minimal subtree
    spanning the nodes whose bags meet the cycle, and each node is guarded by
    the dual edges of its Γ."""
    report = validate_dtd(d, dec)
    assert report.valid, f"input decomposition invalid: {report.violations}"
    ch = cycle_hypergraph(d, cap)
    if not ch.hyperedges:
        return HypertreeDecomposition((), (), {}, {})
    adj = {t: set() for t in dec.nodes}
    for (p, c) in dec.arcs:
        adj[p].add(c)
        adj[c].add(p)
    bags = {t: set() for t in dec.nodes}
    for i, e in enumerate(ch.hyperedges):
        meets = {t for t in dec.nodes if dec.bags[t] & e}
        for t in _minimal_subtree(adj, meets):
            bags[t].add(i)
    position = {v: i for i, v in enumerate(ch.vertices)}
    guards = {
        t: frozenset(position[v] for v in dec.gamma_at(t) if v in position)
        for t in dec.nodes
    }
    return HypertreeDecomposition(
        nodes=dec.nodes,
        arcs=dec.arcs,
        bags={t: frozenset(b) for t, b in bags.items()},
        guards=guards,
    )
