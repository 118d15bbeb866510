"""Directed cycles of a digraph (Johnson's algorithm, on the digraph's own
out-lists), the cycle hypergraph, cuts and hitting sets, and chains of
cycles."""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, all_subsets, round_trips
from .errors import CapExceeded
from .hypergraph import Hypergraph, _vertex_components, line_graph

DEFAULT_CYCLE_CAP = 100_000


@dataclass(frozen=True)
class DirectedCycle:
    """A simple directed cycle, stored in canonical rotation: the vertex
    sequence begins at its minimum member, with an implicit closing edge."""

    sequence: tuple

    def __post_init__(self):
        seq = tuple(self.sequence)
        object.__setattr__(self, "sequence", seq)
        assert len(seq) >= 2, "cycles have length at least two"
        assert len(set(seq)) == len(seq), "cycle vertices repeat"
        assert seq[0] == min(seq), "canonical rotation starts at the minimum vertex"

    @property
    def length(self):
        return len(self.sequence)

    @property
    def vertex_set(self):
        return frozenset(self.sequence)


def enumerate_cycles(d: Digraph, cap: int = DEFAULT_CYCLE_CAP):
    """All simple directed cycles of d, each starting at its least vertex,
    sorted lexicographically on their sequences.

    Johnson's algorithm (SIAM J. Comput. 4(1), 1975): for each start s in
    increasing order, a depth-first search from s inside s's strong
    component of d minus the vertices below s finds the cycles whose least
    vertex is s, each once.  A vertex on the path, or one that closed no
    cycle since it last left the path, is blocked; `waiting[w]` holds the
    blocked vertices to unblock once w is.  Raises CapExceeded as soon as
    more than `cap` cycles have been found.
    """
    assert cap >= 1, "cap must be positive"
    found = []
    for s in range(d.n):
        comp = round_trips(d, (s,), range(s))
        if len(comp) < 2:
            continue
        blocked = {s}
        waiting = {v: set() for v in comp}
        path, walks, closed = [s], [iter(d.out_neighbours(s))], [False]
        while walks:
            for w in walks[-1]:
                if w == s:
                    found.append(tuple(path))
                    if len(found) > cap:
                        raise CapExceeded(cap, len(found))
                    closed[-1] = True
                elif w in comp and w not in blocked:
                    blocked.add(w)
                    path.append(w)
                    walks.append(iter(d.out_neighbours(w)))
                    closed.append(False)
                    break
            else:
                v = path.pop()
                walks.pop()
                if closed.pop():
                    unblock = [v]
                    while unblock:
                        u = unblock.pop()
                        if u in blocked:
                            blocked.remove(u)
                            unblock.extend(waiting[u])
                            waiting[u].clear()
                    if closed:
                        closed[-1] = True
                else:
                    for w in d.out_neighbours(v):
                        if w in comp:
                            waiting[w].add(v)
    return [DirectedCycle(c) for c in sorted(found)]


@dataclass(frozen=True)
class CycleHypergraph:
    """The cycle hypergraph of a digraph: one hyperedge per directed cycle.

    Hyperedges with identical vertex sets stay distinct entries — parallel
    cycles are different hyperedges.  Vertices lying on no cycle are excluded
    from the hypergraph's vertex set but remembered in `isolated`.
    """

    host: Digraph
    cycles: tuple
    hyperedges: tuple

    @property
    def vertices(self):
        on_cycles = set().union(*self.hyperedges) if self.hyperedges else set()
        return tuple(sorted(on_cycles))

    @property
    def isolated(self):
        on_cycles = set(self.vertices)
        return tuple(v for v in range(self.host.n) if v not in on_cycles)

    def as_hypergraph(self):
        """The same hypergraph as a plain Hypergraph value."""
        return Hypergraph(self.vertices, self.hyperedges)


def cycle_hypergraph(d: Digraph, cap: int = DEFAULT_CYCLE_CAP) -> CycleHypergraph:
    """The cycle hypergraph C(D), built from the enumerated cycles."""
    cycles = tuple(enumerate_cycles(d, cap))
    return CycleHypergraph(
        host=d, cycles=cycles, hyperedges=tuple(c.vertex_set for c in cycles)
    )


def cut(ch: CycleHypergraph, x) -> frozenset:
    """Indices of the hyperedges meeting both x and its complement."""
    x = frozenset(x)
    rest = frozenset(range(ch.host.n)) - x
    return frozenset(
        i for i, e in enumerate(ch.hyperedges) if e & x and e & rest
    )


def min_hitting_set(ch: CycleHypergraph, targets) -> frozenset:
    """A minimum-cardinality vertex set meeting every target hyperedge.

    Search is exhaustive by increasing size, lexicographic within a size, so
    the result is deterministic.
    """
    sets = [ch.hyperedges[i] for i in sorted(targets)]
    if not sets:
        return frozenset()
    useful = sorted(set().union(*sets))
    for s in all_subsets(useful, len(useful)):
        if all(e & s for e in sets):
            return frozenset(s)
    raise AssertionError("the union of the targets hits every target")


@dataclass(frozen=True)
class CycleChain:
    """A chain of cycles by hyperedge index; closed chains wrap around."""

    cycles: tuple
    closed: bool

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(self.cycles))
        if self.closed:
            assert len(self.cycles) >= 3, "closed chains have length at least 3"


def _induced_cycle_of_length(adj, m, target):
    """A chordless cycle of exactly `target` >= 4 vertices in an intersection
    graph given as an adjacency matrix, canonical (starts at its minimum
    member, second member smaller than last) and lexicographically first."""

    def extend(path):
        tail = path[-1]
        for v in range(path[0] + 1, m):
            if v in path or not adj[tail][v]:
                continue
            if any(adj[v][p] for p in path[1:-1]):
                continue
            closes = adj[v][path[0]]
            if len(path) + 1 == target:
                if closes and path[1] < v:
                    return path + [v]
                continue
            if closes:
                continue
            result = extend(path + [v])
            if result is not None:
                return result
        return None

    for start in range(m):
        for second in range(start + 1, m):
            if not adj[start][second]:
                continue
            result = extend([start, second])
            if result is not None:
                return result
    return None


def find_closed_chain(ch: CycleHypergraph):
    """A closed chain of ℓ >= 3 cycles, if one exists.

    Closed chains of three cycles are pairwise intersecting triples whose
    three pairwise intersections have no common vertex; longer closed chains
    are chordless cycles in the intersection graph of the hyperedges.  The
    search proceeds by ascending length, lexicographically within a length.
    """
    es = ch.hyperedges
    m = len(es)
    for i in range(m):
        for j in range(i + 1, m):
            if not es[i] & es[j]:
                continue
            for k in range(j + 1, m):
                if es[i] & es[k] and es[j] & es[k] and not (es[i] & es[j] & es[k]):
                    return CycleChain((i, j, k), True)
    adj = [[i != j and bool(es[i] & es[j]) for j in range(m)] for i in range(m)]
    for target in range(4, m + 1):
        cycle = _induced_cycle_of_length(adj, m, target)
        if cycle is not None:
            return CycleChain(tuple(cycle), True)
    return None


def strongly_connected_via_chains(d: Digraph, cap: int = DEFAULT_CYCLE_CAP) -> bool:
    """Strong connectivity read off the cycle structure.

    A single vertex is trivially strongly connected.  Otherwise the digraph is
    strongly connected iff every vertex lies on a directed cycle and every
    pair of cycles is joined by a chain of cycles; the latter holds exactly
    when the intersection graph of the cycles is connected, since a shortest
    path in that graph is a chain.
    """
    if d.n <= 1:
        return True
    ch = cycle_hypergraph(d, cap)
    if len(ch.vertices) != d.n:
        return False
    lines = line_graph(ch.as_hypergraph())
    return len(_vertex_components(lines.adjacency, lines.vertices)) == 1
