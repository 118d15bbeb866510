"""Hypergraphs and what describes them: dual, 2-section, line graph,
α-acyclicity, the Helly property, chordality, conformality and host-tree
witnesses.  The module imports nothing from the rest of the package; the
decompositions of a hypergraph and the exact width oracles live in
`decomp`.

Vertex ids must be pairwise sortable (all ints or all strings); hyperedges are
frozensets and may repeat — a repeated vertex set counts as a distinct
hyperedge.  Isolated vertices are not allowed, the empty hypergraph is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Hypergraph:
    """A finite hypergraph with ordered vertices and an ordered edge multiset."""

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(frozenset(e) for e in self.edges))
        vs = set(self.vertices)
        assert len(vs) == len(self.vertices), "duplicate vertex ids"
        covered = set()
        for e in self.edges:
            assert e, "empty hyperedge"
            assert e <= vs, f"hyperedge {sorted(e)} uses undeclared vertices"
            covered |= e
        assert covered == vs, "isolated vertices are not allowed"


def hypergraph_from_edges(edges):
    """Hypergraph on the sorted union of the given hyperedges."""
    es = tuple(frozenset(e) for e in edges)
    vs = tuple(sorted(set().union(*es))) if es else ()
    return Hypergraph(vs, es)


@dataclass(frozen=True)
class UGraph:
    """An undirected loop-free graph; isolated vertices are permitted here."""

    vertices: tuple
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self, "edges", frozenset(frozenset(e) for e in self.edges)
        )
        vs = set(self.vertices)
        for e in self.edges:
            assert len(e) == 2, f"not an undirected edge: {sorted(e)}"
            assert e <= vs, f"edge {sorted(e)} uses undeclared vertices"

    @cached_property
    def adjacency(self):
        """The sorted neighbours of every vertex."""
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            u, v = sorted(e)
            adj[u].add(v)
            adj[v].add(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def neighbours(self, v):
        return self.adjacency[v]

    def has_edge(self, u, v):
        return frozenset((u, v)) in self.edges


def dual(h):
    """The dual hypergraph: one vertex per hyperedge index of h, and for every
    vertex v of h one hyperedge e_v collecting the indices of the hyperedges
    containing v.  Hyperedge i of the dual is e_v for v = h.vertices[i]."""
    es = tuple(
        frozenset(i for i, e in enumerate(h.edges) if v in e) for v in h.vertices
    )
    return Hypergraph(tuple(range(len(h.edges))), es)


def two_section(h):
    """The 2-section: u and v are adjacent iff some hyperedge contains both."""
    es = set()
    for e in h.edges:
        for pair in itertools.combinations(sorted(e), 2):
            es.add(frozenset(pair))
    return UGraph(h.vertices, frozenset(es))


def line_graph(h):
    """The intersection graph of the hyperedges, one vertex per edge index."""
    m = len(h.edges)
    es = frozenset(
        frozenset((i, j))
        for i, j in itertools.combinations(range(m), 2)
        if h.edges[i] & h.edges[j]
    )
    return UGraph(tuple(range(m)), es)


def is_alpha_acyclic(h):
    """Reduction test for acyclicity: repeatedly drop vertices lying in at most
    one live edge and edges contained in other live edges (equal edges keep the
    lowest index); acyclic iff nothing remains."""
    live = {i: set(e) for i, e in enumerate(h.edges)}
    while True:
        changed = False
        count = {}
        for e in live.values():
            for v in e:
                count[v] = count.get(v, 0) + 1
        for i in sorted(live):
            rare = {v for v in live[i] if count[v] <= 1}
            if rare:
                live[i] -= rare
                changed = True
        for i in sorted(live):
            if not live[i]:
                del live[i]
                changed = True
        for i in sorted(live):
            if i not in live:
                continue
            swallowed = any(
                j != i and (live[i] < live[j] or (live[i] == live[j] and i > j))
                for j in live
            )
            if swallowed:
                del live[i]
                changed = True
        if not changed:
            return not live


def has_helly(h):
    """True if every family of pairwise intersecting hyperedges has a common
    vertex.

    Searches for a violating family depth-first in index order, carrying the
    running intersection; the first time the intersection of a pairwise
    intersecting family empties, a violation is found.
    """
    edges = h.edges
    m = len(edges)

    def violation(members, core):
        start = members[-1] + 1 if members else 0
        for j in range(start, m):
            ej = edges[j]
            if not all(ej & edges[i] for i in members):
                continue
            new_core = core & ej if members else ej
            if not new_core:
                return True
            members.append(j)
            if violation(members, new_core):
                return True
            members.pop()
        return False

    return not violation([], frozenset())


def is_chordal(g):
    """Chordality via maximum-cardinality search and a perfect-elimination
    check; ties are broken towards the earlier vertex in g.vertices."""
    position = {v: i for i, v in enumerate(g.vertices)}
    weight = {v: 0 for v in g.vertices}
    numbered = {}
    seq = []
    for _ in range(len(g.vertices)):
        v = max(
            (u for u in g.vertices if u not in numbered),
            key=lambda u: (weight[u], -position[u]),
        )
        numbered[v] = len(seq)
        seq.append(v)
        for w in g.neighbours(v):
            if w not in numbered:
                weight[w] += 1
    # Earlier-numbered neighbours of each vertex must form a clique, which
    # reduces to: all of them are adjacent to the latest-numbered one.
    for v in seq:
        earlier = [w for w in g.neighbours(v) if numbered[w] < numbered[v]]
        if not earlier:
            continue
        last = max(earlier, key=lambda w: numbered[w])
        for w in earlier:
            if w != last and not g.has_edge(w, last):
                return False
    return True


def _maximal_cliques(g):
    """All maximal cliques (Bron–Kerbosch, no pivoting, deterministic)."""
    if not g.vertices:
        return []
    adj = {v: set(g.neighbours(v)) for v in g.vertices}
    out = []

    def grow(clique, candidates, used):
        if not candidates and not used:
            out.append(frozenset(clique))
            return
        for v in sorted(candidates):
            grow(clique | {v}, candidates & adj[v], used & adj[v])
            candidates = candidates - {v}
            used = used | {v}

    grow(set(), set(g.vertices), set())
    return out


def is_conformal(h):
    """True if every maximal clique of the 2-section is a hyperedge."""
    present = set(h.edges)
    return all(c in present for c in _maximal_cliques(two_section(h)))


@dataclass(frozen=True)
class JoinTreeWitness:
    """A host tree on the hypergraph's vertices in which every hyperedge
    induces a subtree; subtrees lists the hyperedges themselves, in order."""

    tree: UGraph
    subtrees: tuple


def _vertex_components(adj, rest):
    """Connected pieces of `rest` under the adjacency map, sorted by minimum."""
    rest = set(rest)
    pieces = []
    while rest:
        start = min(rest)
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in rest and w not in comp:
                    comp.add(w)
                    stack.append(w)
        pieces.append(frozenset(comp))
        rest -= comp
    return sorted(pieces, key=min)


def _spanning_tree(nodes, ranked):
    """Kruskal's spanning forest on the nodes: the (key, a, b) candidates are
    taken in ascending order, and a pair joins the forest when its ends lie
    in different trees."""
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = set()
    for _, a, b in sorted(ranked):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            edges.add(frozenset((a, b)))
    return UGraph(tuple(nodes), frozenset(edges))


def hypertree_witness(h):
    """A host tree in which every hyperedge induces a subtree, if one exists.

    Construction: a maximum-weight spanning tree over all vertex pairs,
    weighted by the number of shared hyperedges (Kruskal; ties broken by the
    vertex pair), then verified edge by edge.  A maximum-weight tree is a
    valid host whenever any valid host exists, so failed verification means
    none exists.
    """
    vs = sorted(h.vertices)
    if not vs:
        return JoinTreeWitness(UGraph((), frozenset()), tuple(h.edges))
    tree = _spanning_tree(
        vs,
        (
            (-sum(1 for e in h.edges if u in e and v in e), u, v)
            for u, v in itertools.combinations(vs, 2)
        ),
    )
    for e in h.edges:
        if len(_vertex_components(tree.adjacency, e)) > 1:
            return None
    return JoinTreeWitness(tree, tuple(h.edges))
