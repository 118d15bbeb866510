"""Digraphs with dense integer vertices, quotients and one-vertex separations.

A digraph is a vertex count plus a set of ordered pairs; loops and parallel
edges are excluded.  Everything else — strong components, butterfly
contractibility, tight separations — is computed on demand.  The strong
components of d minus a vertex set come from one Tarjan pass over d itself,
without building d minus the set.  Every contraction, of one edge or of a
whole shore, is a `quotient`.  All enumeration orders are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Digraph:
    """A finite digraph on vertices 0..n-1 without loops or parallel edges."""

    n: int
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))
        for (u, v) in self.edges:
            assert 0 <= u < self.n and 0 <= v < self.n, f"edge ({u},{v}) out of range"
            assert u != v, f"loop at {u}"

    @cached_property
    def _out(self):
        adj = {u: [] for u in range(self.n)}
        for (u, v) in sorted(self.edges):
            adj[u].append(v)
        return {u: tuple(vs) for u, vs in adj.items()}

    @cached_property
    def _in(self):
        adj = {u: [] for u in range(self.n)}
        for (u, v) in sorted(self.edges):
            adj[v].append(u)
        return {u: tuple(vs) for u, vs in adj.items()}

    def out_neighbours(self, u):
        """Sorted tuple of heads of edges leaving u."""
        return self._out[u]

    def in_neighbours(self, u):
        """Sorted tuple of tails of edges entering u."""
        return self._in[u]

    def vertices(self):
        return range(self.n)

    def has_edge(self, u, v):
        return (u, v) in self.edges

    def sorted_edges(self):
        return sorted(self.edges)


def digraph_from_edges(n, edges):
    return Digraph(n, frozenset((u, v) for (u, v) in edges))


def bidirect(n, undirected_edges):
    """The bidirected digraph: every undirected edge becomes a digon."""
    es = set()
    for (u, v) in undirected_edges:
        assert u != v, f"loop at {u}"
        es.add((u, v))
        es.add((v, u))
    return Digraph(n, frozenset(es))


def directed_cycle_digraph(length):
    """The directed cycle 0 -> 1 -> ... -> length-1 -> 0."""
    assert length >= 2
    return Digraph(length, frozenset((i, (i + 1) % length) for i in range(length)))


def bicycle(length):
    """The bidirected cycle on `length` vertices (every edge a digon)."""
    assert length >= 3
    return bidirect(length, [(i, (i + 1) % length) for i in range(length)])


def a4_digraph():
    """The 4-vertex obstruction: a directed 4-cycle plus both diagonals as digons.

    Vertices 0..3 with the cycle 0->1->2->3->0, a digon between 1 and 3 and a
    digon between 0 and 2.
    """
    return Digraph(
        4,
        frozenset(
            [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (3, 1), (0, 2), (2, 0)]
        ),
    )


def strong_components(d, removed=()):
    """Strong components of d minus `removed`, in reverse topological order of
    the condensation.

    The first component returned is a sink of the condensation; for the single
    edge a->b the result is [{b}, {a}].  Deterministic: Tarjan's algorithm with
    vertices visited in increasing order and sorted adjacency.  The removed
    vertices are marked visited before the first root, so the result is the
    list `induced_subgraph` of the other vertices would give, in the same
    order, in the original names.
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


def is_strongly_connected(d):
    if d.n <= 1:
        return True
    return len(strong_components(d)) == 1


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


def butterfly_contractible(d, edge):
    """An edge (u,v) is butterfly contractible if it is the unique edge leaving
    u or the unique edge entering v."""
    (u, v) = edge
    assert edge in d.edges, f"edge {edge} not present"
    return len(d.out_neighbours(u)) == 1 or len(d.in_neighbours(v)) == 1


def quotient(d, label_of):
    """Merge the vertices that share a label and number the classes densely.

    `label_of[v]` is the label of vertex v.  Returns (quotient, labels), where
    labels is the sorted tuple of distinct labels and vertex i of the
    quotient stands for labels[i].  Edges inside a class are dropped.
    """
    labels = tuple(sorted({label_of[v] for v in range(d.n)}))
    index = {label: i for i, label in enumerate(labels)}
    new = [index[label_of[v]] for v in range(d.n)]
    es = frozenset((new[a], new[b]) for (a, b) in d.edges if new[a] != new[b])
    return Digraph(len(labels), es), labels


@dataclass(frozen=True)
class TightSeparation:
    """A directed separation of order one.

    shoreA and shoreB cover all vertices, meet in exactly the cut vertex, and
    no edge runs from shoreB-only to shoreA-only (edges cross A -> B).
    """

    shoreA: frozenset
    shoreB: frozenset

    @property
    def cut_vertex(self):
        (c,) = self.shoreA & self.shoreB
        return c

    def sort_key(self):
        return (tuple(sorted(self.shoreA)), tuple(sorted(self.shoreB)))


def is_directed_separation(d, shore_a, shore_b):
    """True if (shore_a, shore_b) covers V and no edge runs from B-only to A-only."""
    if frozenset(shore_a) | frozenset(shore_b) != frozenset(range(d.n)):
        return False
    a_only = frozenset(shore_a) - frozenset(shore_b)
    b_only = frozenset(shore_b) - frozenset(shore_a)
    return not any(v in a_only for u in b_only for v in d.out_neighbours(u))


def separations_cross(s, t):
    """Crossing test on stored orientations: (A,B) and (C,D) cross when A∩C,
    B∩D, (A∩D)∖(B∩C) and (B∩C)∖(A∩D) are all non-empty."""
    a, b = s.shoreA, s.shoreB
    c, dd = t.shoreA, t.shoreB
    return bool(a & c) and bool(b & dd) and bool((a & dd) - (b & c)) and bool((b & c) - (a & dd))


def cut_vertex_shores(d, v):
    """The strong components of d - v, each paired with its X-shore.

    The X-shore of a component K is K alone when no other component has an
    edge into K, and otherwise every vertex reachable from K in d - v.
    Components come in `strong_components(d, (v,))` order; the list is empty
    when d - v has at most one component, that is when v is no cut vertex.
    """
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
    # Reverse topological order: every successor of a component comes before
    # it and is entered, so its shore is already everything it reaches.
    shores = []
    for ci, comp in enumerate(comps):
        if ci in entered:
            comp = comp.union(*(shores[cj] for cj in succ[ci]))
        shores.append(comp)
    return list(zip(comps, shores))


def tight_separations(d, non_trivial_only=True):
    """All tight separations of a strongly connected digraph arising from single
    cut vertices.

    For each vertex v whose removal leaves several strong components and each
    component K of d - v, the shore X is the X-shore `cut_vertex_shores`
    pairs with K.  The rest of d - v is Y, and the separation pairs Y+v against
    X+v with separator {v}.  Results are deduplicated by unordered shore pair,
    stored in the valid orientation (edges crossing from the first shore to the
    second; lexicographically smaller first shore when both orientations are
    valid) and sorted.  With non_trivial_only both shores must have >= 2
    vertices, which here just excludes the Y = empty case.
    """
    found = {}
    for v in range(d.n):
        for _, x in cut_vertex_shores(d, v):
            y = frozenset(u for u in range(d.n) if u != v) - x
            if not y and non_trivial_only:
                continue
            p = y | {v}
            q = x | {v}
            key = frozenset((p, q))
            if key in found:
                continue
            pq_valid = is_directed_separation(d, p, q)
            qp_valid = is_directed_separation(d, q, p)
            assert pq_valid or qp_valid, "constructed shores admit no valid orientation"
            if pq_valid and qp_valid:
                first, second = sorted((p, q), key=lambda s: tuple(sorted(s)))
            elif pq_valid:
                first, second = p, q
            else:
                first, second = q, p
            found[key] = TightSeparation(first, second)
    return sorted(found.values(), key=TightSeparation.sort_key)


def is_strongly_2_connected(d):
    """True if d stays strongly connected after deleting any single vertex.

    Digraphs on at most two vertices count as strongly 2-connected.
    """
    if d.n <= 2:
        return True
    if not is_strongly_connected(d):
        return False
    return all(len(strong_components(d, (v,))) == 1 for v in range(d.n))


def butterfly_dominating_vertices(d):
    """Vertices incident with every butterfly-contractible edge, subject to the
    degree proviso.

    A vertex v qualifies when (i) every contractible edge has v as an endpoint
    and (ii) if v has both an incoming and an outgoing contractible edge, then
    v has exactly one in-edge or exactly one out-edge.  With no contractible
    edge at all, every vertex qualifies.
    """
    contractible = [e for e in d.sorted_edges() if butterfly_contractible(d, e)]
    if not contractible:
        return frozenset(range(d.n))
    result = set()
    for v in range(d.n):
        if not all(v in e for e in contractible):
            continue
        has_in = any(h == v for (_, h) in contractible)
        has_out = any(t == v for (t, _) in contractible)
        if has_in and has_out:
            if len(d.in_neighbours(v)) == 1 or len(d.out_neighbours(v)) == 1:
                result.add(v)
        else:
            result.add(v)
    return frozenset(result)


def all_subsets(items, max_size):
    """Subsets of `items` by increasing size, lexicographic within each size."""
    ordered = sorted(items)
    for size in range(max_size + 1):
        for combo in itertools.combinations(ordered, size):
            yield frozenset(combo)
