"""Digraphs on dense integer vertices, and their one-vertex separations.

A digraph is a vertex count plus a set of ordered pairs; loops and parallel
edges are excluded.  Everything else — strong components, dominators,
tight separations — is computed on demand.  The strong
components of d minus a vertex set come from one Tarjan pass over d itself,
without building d minus the set.  `round_trips` walks forward from a
source set and back inside what it reached: one source gives the strong
component holding it.  `cut_vertex_shores` reads the condensation of d
minus a vertex off an out-adjacency mapping, from components the caller
already has, and `orient_cut_separation` orients each of its shores;
`tight_separations` collects them for every vertex, and the recogniser's
s-decomposition keeps them per piece.
`immediate_dominators` is Lengauer and Tarjan's algorithm.
`is_strongly_2_connected` filters by degree, then runs it from one vertex
in d and in d reversed and adds one Tarjan pass, so no vertex takes a pass
of its own; `strong_components_minus_each` reads the strong components of
d minus each vertex off the same two trees, with one Tarjan pass of d - 0
and one of the region each strong articulation point dominates.  The
recogniser's s-decomposition and the replay state
contract in place on adjacency sets, one `merge_into` per vertex, and
`dense_digraph` is the one place such a mapping becomes a `Digraph`,
numbered densely by sorted label.  All enumeration orders are
deterministic.
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
    def vertex_set(self):
        """The vertices 0..n-1 as a frozenset."""
        return frozenset(range(self.n))

    @cached_property
    def _out(self):
        adj = [[] for _ in range(self.n)]
        for (u, v) in self.edges:
            adj[u].append(v)
        return {u: tuple(sorted(vs)) for u, vs in enumerate(adj)}

    @cached_property
    def _in(self):
        """Read off `_out`: tails come in increasing order, so no sort."""
        adj = [[] for _ in range(self.n)]
        for u, vs in self._out.items():
            for v in vs:
                adj[v].append(u)
        return {u: tuple(vs) for u, vs in enumerate(adj)}

    @cached_property
    def dominators(self):
        """The immediate dominators from vertex 0 in d and in d reversed, as
        `immediate_dominators` gives them, built once per digraph:
        `is_strongly_2_connected` and `strong_components_minus_each` share
        them.  Needs a vertex 0."""
        return immediate_dominators(self, 0), immediate_dominators(self, 0, reverse=True)

    def out_neighbours(self, u):
        """Sorted tuple of heads of edges leaving u."""
        return self._out[u]

    def in_neighbours(self, u):
        """Sorted tuple of tails of edges entering u."""
        return self._in[u]

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
    list the induced subgraph on the other vertices would give, renumbered
    densely, in the same order, in the original names.
    """
    index = [None] * d.n
    for x in removed:
        index[x] = d.n
    return _tarjan(d._out, range(d.n), index)


def _tarjan(out, roots, index):
    """Tarjan's loop: the strong components of the subgraph on the live
    vertices, those whose `index` entry is None, in reverse topological
    order of its condensation, with a walk started from each vertex of
    `roots` in turn, which must hold every live vertex.  Every other entry
    must be len(index): such a vertex counts as removed, and its edges are
    never followed.

    A removed or finished vertex has index n, above every live index, so it
    never lowers a low link and no on-stack flag is needed.  Each frame
    keeps its vertex's place on the stack, and a finished component leaves
    the stack as one slice.  The work is the live vertices' out-degrees,
    plus a list of n low links.
    """
    n = len(index)
    low = [0] * n
    stack = []
    comps = []
    counter = 0
    for root in roots:
        if index[root] is not None:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(out[root]), 0)]
        while work:
            v, it, at = work[-1]
            for w in it:
                seen = index[w]
                if seen is None:
                    index[w] = low[w] = counter
                    counter += 1
                    work.append((w, iter(out[w]), len(stack)))
                    stack.append(w)
                    break
                if seen < low[v]:
                    low[v] = seen
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    comp = stack[at:]
                    del stack[at:]
                    for w in comp:
                        index[w] = n
                    comps.append(frozenset(comp))
    return comps


def round_trips(d, sources, removed=()):
    """The vertices of d minus `removed` that a source reaches and that reach
    a source, for sources that miss `removed`: a forward walk from the
    sources, then a backward walk kept inside the forward reach, which loses
    nothing, since a vertex on a path back to a source is reached from one.
    """
    reach = set(sources)
    stack = list(reach)
    while stack:
        for w in d.out_neighbours(stack.pop()):
            if w not in reach and w not in removed:
                reach.add(w)
                stack.append(w)
    back = set(sources)
    stack = list(back)
    while stack:
        for w in d.in_neighbours(stack.pop()):
            if w in reach and w not in back:
                back.add(w)
                stack.append(w)
    return back


def strong_component_of(d, v, removed=()):
    """The strong component of d minus `removed` holding v, which is not
    removed: the `round_trips` of v alone."""
    return frozenset(round_trips(d, (v,), removed))


def is_strongly_connected(d):
    if d.n <= 1:
        return True
    return len(strong_components(d)) == 1


def dense_digraph(out):
    """The digraph an adjacency mapping of sets describes, `out[v]` the
    heads of v's edges, with its vertices numbered densely: returns
    (digraph, labels), where labels is the sorted tuple of the mapping's
    keys and vertex i of the digraph stands for labels[i].  Every head must
    be a key other than its tail.  The recogniser's pieces and the replay
    state keep such mappings and become `Digraph`s only here.
    """
    labels = tuple(sorted(out))
    index = {v: i for i, v in enumerate(labels)}
    es = frozenset((index[a], index[b]) for a in labels for b in out[a])
    return Digraph(len(labels), es), labels


def merge_into(out, inn, keep, gone):
    """Merge vertex `gone` into `keep` in an adjacency kept as mappings of
    sets, `out[v]` the heads and `inn[v]` the tails of v's edges: gone's
    edges move to keep, an edge between the two is dropped, and gone leaves
    both mappings.  The work is gone's degree."""
    for w in out.pop(gone):
        inn[w].discard(gone)
        if w != keep:
            inn[w].add(keep)
            out[keep].add(w)
    for w in inn.pop(gone):
        out[w].discard(gone)
        if w != keep:
            out[w].add(keep)
            inn[keep].add(w)


@dataclass(frozen=True)
class TightSeparation:
    """A directed separation of order one.

    shoreA and shoreB cover all vertices, meet in exactly the cut vertex, and
    no edge runs from shoreB-only to shoreA-only (edges cross A -> B).
    """

    shoreA: frozenset
    shoreB: frozenset

    @cached_property
    def cut_vertex(self):
        (c,) = self.shoreA & self.shoreB
        return c

    def sort_key(self):
        return (tuple(sorted(self.shoreA)), tuple(sorted(self.shoreB)))


def is_directed_separation(d, shore_a, shore_b):
    """True if (shore_a, shore_b) covers V and no edge runs from B-only to A-only."""
    shore_a = frozenset(shore_a)
    shore_b = frozenset(shore_b)
    if shore_a | shore_b != d.vertex_set:
        return False
    a_only = shore_a - shore_b
    return a_only.isdisjoint(
        itertools.chain.from_iterable(map(d._out.__getitem__, shore_b - shore_a))
    )


def cut_vertex_shores(out, inn, v, comps):
    """The strong components of d - v, each with its X-shore and orientation.

    The X-shore X of a component K is K alone when no other component has an
    edge into K, and otherwise every vertex reachable from K in d - v.  With Y
    the rest of d - v, the orientation x_first says which of (X+v, Y+v) and
    (Y+v, X+v) is a directed separation, and the condensation decides it:

    - K is entered by another component: X is everything K reaches, so no
      edge leaves X, and the entering edge runs from Y into X.  Only
      (Y+v, X+v) is valid; x_first is False.
    - K is not entered and no edge leaves it: both are valid; x_first is None.
    - K is not entered and an edge leaves it: only (X+v, Y+v) is valid;
      x_first is True.

    Each entry is (K, X, x_first).  d is given as two mappings from each
    vertex to its out-neighbours and its in-neighbours: a `Digraph`'s `_out`
    and `_in`, or the adjacency of a piece the recogniser edits in place.
    `comps` is the list of strong components of d - v in any reverse
    topological order of the condensation (no edge runs from an earlier
    component to a later one), such as `strong_components` gives.  Entries
    come in that order; the list is empty when d - v has at most one
    component, that is when v is no cut vertex.  The condensation's edges
    come from the out-lists and in-lists of every component but the
    largest: an edge of the largest component's leaves it into another
    component, whose in-lists show it.  So the work is the degrees of d - v
    outside its largest component, one pass over the component list, and
    the set unions that build the X-shores.
    """
    if len(comps) <= 1:
        return []
    big = max(range(len(comps)), key=lambda ci: len(comps[ci]))
    comp_of = {u: ci for ci, comp in enumerate(comps) if ci != big for u in comp}
    succ = [set() for _ in comps]
    for ci, comp in enumerate(comps):
        if ci == big:
            continue
        heads = succ[ci]
        heads.update(comp_of.get(b, big) for a in comp for b in out[a] if b != v)
        heads.discard(ci)
        if any(b != v and b not in comp_of for a in comp for b in inn[a]):
            succ[big].add(ci)
    entered = set().union(*succ)
    # Reverse topological order: every successor of a component comes before
    # it and is entered, so its shore is already everything it reaches.
    shores = []
    for ci, comp in enumerate(comps):
        if ci in entered:
            shores.append((comp, comp.union(*(shores[cj][1] for cj in succ[ci])), False))
        else:
            shores.append((comp, comp, True if succ[ci] else None))
    return shores


def orient_cut_separation(p, q, v, x, x_first):
    """The shores p = Y+v and q = X+v of a `cut_vertex_shores` entry in their
    valid orientation, edges crossing from the first to the second, with the
    pair of vertices whose comparison chose it.

    x_first decides when it is not None, and the pair is then empty.  When
    it is None both orientations are valid, and the shore whose sorted tuple
    is smaller goes first.  The shores meet in v alone, so their sorted
    tuples differ at the first element, or at the second when both start
    with v; the pair is the two elements compared there.
    """
    if x_first is None:
        least_p, least_q = min(p), min(q)
        if least_p == least_q:
            least_p, least_q = min(p - {v}), min(x)
        first, second = (p, q) if least_p < least_q else (q, p)
        return first, second, (least_p, least_q)
    if x_first:
        return q, p, ()
    return p, q, ()


def tight_separations(d):
    """All tight separations of a strongly connected digraph arising from single
    cut vertices.

    For each vertex v whose removal leaves several strong components and each
    component K of d - v, the shore X is the X-shore `cut_vertex_shores`
    pairs with K.  The rest of d - v is Y, and the separation pairs Y+v against
    X+v with separator {v}.  Results are deduplicated by unordered shore pair
    and sorted.  Each is stored in its valid orientation, edges crossing from
    the first shore to the second, which the condensation of d - v decides
    (see `cut_vertex_shores` and `orient_cut_separation`): X+v second when K
    is entered by another component, X+v first when K is not entered but has
    an edge leaving it, and the lexicographically smaller shore first when K
    has neither, since then both orientations are valid.  The picked
    orientation is asserted to be a directed separation.  Both shores must
    have >= 2 vertices, which here just excludes the Y = empty case.  The
    recogniser does not call this: its s-decomposition keeps the entries
    of each piece and carries them from piece to piece.
    """
    found = {}
    for v in range(d.n):
        for _, x, x_first in cut_vertex_shores(d._out, d._in, v, strong_components(d, (v,))):
            p = d.vertex_set - x
            if len(p) < 2:
                continue
            q = x | {v}
            key = frozenset((p, q))
            if key in found:
                continue
            first, second, _ = orient_cut_separation(p, q, v, x, x_first)
            assert is_directed_separation(d, first, second), (
                "constructed shores admit no valid orientation"
            )
            found[key] = TightSeparation(first, second)
    return sorted(found.values(), key=TightSeparation.sort_key)


def immediate_dominators(d, root, reverse=False):
    """The immediate dominator of every vertex from root, in d or, with
    `reverse`, in d with every edge reversed: a list by vertex, with the
    root its own entry and None for every vertex the root does not reach.

    x dominates v when every path from the root to v passes through x.
    Lengauer and Tarjan's algorithm (*A fast algorithm for finding
    dominators in a flowgraph*, TOPLAS 1(1), 1979) with path compression:
    vertices are numbered in the preorder of an iterative depth-first
    walk, and every array below is indexed by that number.
    """
    succ, pred = (d._in, d._out) if reverse else (d._out, d._in)
    num = [-1] * d.n
    num[root] = 0
    order = [root]
    parent = [0]
    work = [(0, iter(succ[root]))]
    while work:
        i, it = work[-1]
        for w in it:
            if num[w] < 0:
                num[w] = len(order)
                order.append(w)
                parent.append(i)
                work.append((num[w], iter(succ[w])))
                break
        else:
            work.pop()
    count = len(order)
    semi = list(range(count))
    label = list(range(count))
    ancestor = [-1] * count
    idom = [0] * count
    bucket = [[] for _ in range(count)]

    def least(v):
        """The vertex of least semi-dominator on the forest path from the
        linked vertex v, below its tree's root; compresses the path."""
        path = []
        u = v
        while ancestor[ancestor[u]] >= 0:
            path.append(u)
            u = ancestor[u]
        for u in reversed(path):
            a = ancestor[u]
            if semi[label[a]] < semi[label[u]]:
                label[u] = label[a]
            ancestor[u] = ancestor[a]
        return label[v]

    for i in range(count - 1, 0, -1):
        s = i
        for v in pred[order[i]]:
            j = num[v]
            if j > i:  # already linked; a j below i is its own semi
                j = semi[label[j] if ancestor[ancestor[j]] < 0 else least(j)]
            if 0 <= j < s:
                s = j
        semi[i] = s
        bucket[s].append(i)
        p = ancestor[i] = parent[i]
        for v in bucket[p]:
            u = least(v)
            idom[v] = u if semi[u] < semi[v] else p
        bucket[p] = []
    for i in range(1, count):
        if idom[i] != semi[i]:
            idom[i] = idom[idom[i]]
    result = [None] * d.n
    for i, v in enumerate(order):
        result[v] = order[idom[i]]
    return result


def is_strongly_2_connected(d):
    """True if d stays strongly connected after deleting any single vertex.

    Digraphs on at most two vertices count as strongly 2-connected; one
    that is not strongly connected does not.  Otherwise, with n >= 3, a
    vertex v of in- or out-degree at most one settles it: if v's only
    out-neighbour is w, v reaches nothing in d - w.  Past that filter, in
    a strongly connected d, a vertex x other than 0 is a strong
    articulation point exactly when it dominates some vertex from 0 in d
    or in its reverse (Italiano, Laura,
    Santaroni, *Finding strong bridges and strong articulation points in
    linear time*, TCS 447, 2012).  So d is strongly 2-connected exactly
    when every immediate dominator from 0 is 0 in both, which also says
    that d is strongly connected, and d - 0 is strongly connected: the
    two dominator trees of `Digraph.dominators` and one Tarjan pass.
    """
    if d.n <= 2:
        return True
    out, into = d._out, d._in
    if any(len(out[v]) < 2 or len(into[v]) < 2 for v in range(d.n)):
        return False
    forward, backward = d.dominators
    return (
        all(x == 0 for x in forward)
        and all(x == 0 for x in backward)
        and len(strong_components(d, (0,))) == 1
    )


def strong_components_minus_each(d):
    """The strong components of d - v for every vertex v of a strongly
    connected d on two or more vertices, a list by v: each the components
    `strong_components(d, (v,))` gives, in a reverse topological order of
    the condensation that may differ from that call's.

    Vertex 0 takes one Tarjan pass.  For v other than 0, let F and R be the
    vertices v dominates from 0 in d and in d reversed (`Digraph.dominators`,
    as in `is_strongly_2_connected`).  A vertex of d - v is reached from 0
    there exactly when it is not in F, and reaches 0 exactly when it is not
    in R, so 0's component is V - v - F - R.  Every other component lies in
    F | R, and is a strong component of the subgraph d induces there, since
    a cycle of d - v through a vertex outside F | R lies in 0's component.
    So v takes one Tarjan pass of F | R alone, and a v that dominates
    nothing takes none: its list is [V - v].

    The components come in four groups: those in R - F (reached from 0 and
    not reaching it), those in F & R (neither), 0's (both), and those in
    F - R (reaching 0 and not reached), each group in the pass's order.  No
    edge runs from an earlier group to a later one: an edge into a vertex
    that reaches 0 makes its tail reach 0, and an edge out of a vertex
    reached from 0 makes its head reached, so the tail of such an edge
    would be in a later group than it is, or its head in an earlier one.
    F and R are slices of the trees' preorders, so beyond the passes the
    work is the sizes of F and R, which add up to the trees' depth sums,
    and for each v a few list and set operations on n elements.
    """
    n = d.n
    forward, backward = (_dominated(tree) for tree in d.dominators)
    minus = [strong_components(d, (0,))]
    for v in range(1, n):
        f, r = forward[v], backward[v]
        if not f and not r:
            minus.append([d.vertex_set - {v}])
            continue
        region = set(f).union(r)
        index = [n] * n
        for u in region:
            index[u] = None
        f, r = set(f), set(r)
        reached, neither, reaching = [], [], []
        for k in _tarjan(d._out, region, index):
            u = next(iter(k))
            (reaching if u not in r else neither if u in f else reached).append(k)
        minus.append(reached + neither + [d.vertex_set - region - {v}] + reaching)
    return minus


def _dominated(idom):
    """For each vertex, the list of the vertices it properly dominates, from
    the immediate dominators of a dominator tree rooted at 0 that reaches
    every vertex: its proper descendants in the tree, a slice of the tree's
    preorder."""
    n = len(idom)
    children = [[] for _ in range(n)]
    for v in range(1, n):
        children[idom[v]].append(v)
    order = []
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    size = [1] * n
    for v in reversed(order[1:]):
        size[idom[v]] += size[v]
    at = [0] * n
    for i, v in enumerate(order):
        at[v] = i
    return [order[at[v] + 1:at[v] + size[v]] for v in range(n)]


def _bfs_arcs(root, neighbours):
    """A breadth-first walk from root that enters each node's unseen
    neighbours in the order `neighbours(node)` lists them.  Returns the
    visiting order and the (parent, child) arcs of the walk's tree."""
    order = [root]
    seen = {root}
    arcs = []
    for t in order:  # the list grows while it is walked
        for u in neighbours(t):
            if u not in seen:
                seen.add(u)
                arcs.append((t, u))
                order.append(u)
    return order, arcs


def all_subsets(items, max_size):
    """Subsets of `items` by increasing size, lexicographic within each size."""
    ordered = sorted(items)
    for size in range(max_size + 1):
        for combo in itertools.combinations(ordered, size):
            yield frozenset(combo)
