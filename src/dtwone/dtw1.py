"""Recognising directed treewidth one, with checkable certificates.

The positive route splits the digraph along a maximal laminar family of
one-vertex separations, each kept once as a tree edge and its cut vertex;
when every resulting piece is a digon the width-one decomposition can be
read off.  A strongly 2-connected digraph is one piece, found by two
dominator trees and one Tarjan pass.  Any other whole
digraph reads the strong components of d - v for every v off the same two
trees, with one Tarjan pass of d - 0 and one of the region each strong
articulation point dominates: a split piece carries its parent's
candidate separations over, and recomputes only its new cut vertex and
the vertices where the split drops a strong component.  A
split edits its piece in place, contracting the dropped vertices into the
cut and touching only the entries it drops or gives anew, and a heap per
piece keeps its least candidate; only a split that leaves two pieces of
three or more vertices copies one.  The
negative route shrinks the digraph to a bidirected cycle or the
four-vertex digraph A4 by one rule: contract the far shores of the least
piece with three or more vertices, stop if that piece is a pattern, and
otherwise delete the first edge whose deletion leaves a digraph whose
s-decomposition still has such a piece, then collapse again.  A collapsed
piece is strongly 2-connected, so no edge of it is butterfly-contractible,
every deletion keeps it strongly connected, and a trial that stays
strongly 2-connected costs its s-decomposition no per-vertex pass.  The
loop works in one label space, the replay state's class representatives:
shores are scripted on the state's own adjacency, a deletion's trial is the
next round's digraph as it stands, and the state is checked against the
collapsed piece the s-decomposition built and kept, then numbered densely
by `dense_digraph` only after a round that contracted a far shore.  Every
step is recorded by the replay state, which keeps a root for each class,
so the embedding can be replayed (`verify_witness`, the oracle of the
tests and of `dtwone suite`); no cycle of the digraph is enumerated.  The
NO certificate is three rooted sets read off that state, the branch sets
of the pattern's vertices 0, 1 and 2 with their roots: the order-3 haven
they give is what `check.verify_certificate` checks, and it is never
built.  The certificate types and their checker are in `check`.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .check import (
    DirectedTreeDecomposition,
    Dtw1Certificate,
    Report,
    RootedSets,
    _outside,
    _pattern_problem,
    _place,
    validate_dtd,
    verify_certificate,
)
from .cycles import DEFAULT_CYCLE_CAP, cycle_hypergraph
from .digraph import (
    Digraph,
    _bfs_arcs,
    a4_digraph,
    bicycle,
    cut_vertex_shores,
    dense_digraph,
    is_strongly_2_connected,
    is_strongly_connected,
    merge_into,
    orient_cut_separation,
    strong_components_minus_each,
)
from .games import verify_haven  # noqa: F401  (bench/tracer.py wraps this binding)
from .hypergraph import JoinTreeWitness, hypertree_witness


# ---------------------------------------------------------------------------
# contraction scripts and their replay


@dataclass(frozen=True)
class MinorWitness:
    """A butterfly-minor embedding of a bidirected cycle or A4.

    The script lists deletions and contractions over the labels of the
    original digraph; replaying it yields the pattern, and branch_sets maps
    each pattern vertex to the class of original vertices merged into it.
    """

    kind: str
    length: int | None
    script: tuple
    branch_sets: dict


class _ReplayState:
    """Tracks a digraph being shrunk by deletions and butterfly contractions.

    Vertices never disappear: contractions merge them into classes, and every
    script step may name any member of a class.  The representative of a class
    is its smallest label, and `members` maps it to the class, a set that
    later merges change in place.  A contraction moves the members of the
    smaller class into the larger one's set and slot, and only the slot
    notes the least label, so each vertex moves O(log n) times and `rep()`
    reads two lists.  The current digraph lives on the representatives
    as an adjacency index: `out[r]` and `inn[r]` hold the representatives
    joined to r by an edge leaving or entering r.  A contraction moves only
    the edges of the class that stops being represented, so a step costs
    that class's degree, not the size of the digraph; `dense_digraph(out)`
    numbers the current digraph densely, by sorted representative.

    Each class keeps a root `root[r]`, reached inside the class from every
    vertex with a surviving edge entering it and reaching every vertex with
    one leaving it; so root(P) reaches root(Q) inside P ∪ Q for each edge P -> Q.
    """

    def __init__(self, d: Digraph):
        self.base = d
        self.slot = list(range(d.n))
        self.least = list(range(d.n))
        self.members = {v: {v} for v in range(d.n)}
        self.out = {v: set(d.out_neighbours(v)) for v in range(d.n)}
        self.inn = {v: set(d.in_neighbours(v)) for v in range(d.n)}
        self.root = list(range(d.n))
        self.steps: list = []

    @property
    def edges(self) -> frozenset:
        """The current edges, as pairs of representatives."""
        return frozenset((a, b) for a, heads in self.out.items() for b in heads)

    def rep(self, v: int) -> int:
        return self.least[self.slot[v]]

    def apply(self, steps) -> None:
        n = self.base.n
        try:
            steps = iter(steps)
        except TypeError:
            raise ValueError(f"script {steps!r} is not a sequence of steps") from None
        for step in steps:
            try:
                kind, a, b = step
            except (TypeError, ValueError):
                raise ValueError(f"step {step!r} is not a (kind, tail, head) triple") from None
            if not (isinstance(a, int) and isinstance(b, int) and 0 <= a < n and 0 <= b < n):
                raise ValueError(f"step {step} names an unknown vertex")
            ra, rb = self.rep(a), self.rep(b)
            if ra == rb:
                raise ValueError(f"step {step} joins a vertex with itself")
            if rb not in self.out[ra]:
                raise ValueError(f"step {step} needs the missing edge ({ra}, {rb})")
            if kind == "del":
                self.out[ra].discard(rb)
                self.inn[rb].discard(ra)
            elif kind == "contract":
                tail_only_out = len(self.out[ra]) == 1
                if not tail_only_out and len(self.inn[rb]) != 1:
                    raise ValueError(
                        f"step {step}: edge ({ra}, {rb}) is not butterfly contractible"
                    )
                root = self.root[rb] if tail_only_out else self.root[ra]
                self._merge(min(ra, rb), max(ra, rb))
                self.root[min(ra, rb)] = root
            else:
                raise ValueError(f"unknown step kind {kind!r}")
            self.steps.append(step)

    def _merge(self, keep: int, gone: int) -> None:
        into, moved = self.members[keep], self.members.pop(gone)
        slot = self.slot[keep]
        if len(into) < len(moved):
            into, moved = moved, into
            slot = self.slot[gone]
        for v in moved:
            self.slot[v] = slot
        into |= moved
        self.members[keep] = into
        self.least[slot] = keep
        merge_into(self.out, self.inn, keep, gone)


def replay_script(d: Digraph, script) -> _ReplayState:
    """Replay a witness script from scratch; ValueError on any illegal step."""
    state = _ReplayState(d)
    state.apply(script)
    return state


def replay_script(d: Digraph, script) -> _ReplayState:
    """Replay a witness script from scratch; ValueError on any illegal step."""
    state = _ReplayState(d)
    state.apply(script)
    return state


def verify_witness(d: Digraph, witness: MinorWitness) -> Report:
    """Replay a minor witness against its digraph and check every claim:
    the oracle that the tests and `dtwone suite` hold the recogniser's
    minor to.  A certificate carries only three rooted sets of it."""
    problem = _pattern_problem(d, witness)
    if problem:
        return Report(False, 0, (problem,))
    pattern = bicycle(witness.length) if witness.kind == "bicycle" else a4_digraph()
    if set(witness.branch_sets) != set(range(pattern.n)):
        return Report(False, 0, ("branch sets must cover the pattern's vertices",))
    try:
        state = replay_script(d, witness.script)
    except ValueError as err:
        return Report(False, 0, (str(err),))
    violations = []
    reps = {}
    for p in range(pattern.n):
        try:
            cls = frozenset(witness.branch_sets[p])
        except TypeError:
            violations.append(f"branch set {p} is not a set of vertices")
            continue
        if not cls:
            violations.append(f"branch set {p} is empty")
            continue
        if not all(isinstance(v, int) and 0 <= v < d.n for v in cls):
            violations.append(f"branch set {p} names an unknown vertex")
            continue
        r = state.rep(min(cls))
        if state.members.get(r) != cls:
            violations.append(f"branch set {p} does not match a merged class")
        reps[p] = r
    if not violations:
        if len(set(reps.values())) != pattern.n or len(state.members) != pattern.n:
            violations.append("branch sets must partition the remaining classes")
    if not violations:
        image = frozenset((reps[a], reps[b]) for (a, b) in pattern.edges)
        if image != state.edges:
            violations.append("replayed digraph is not the claimed pattern")
    return Report(not violations, 0, tuple(violations))


def shore_contraction_script(state: _ReplayState, shore, cut: int) -> list:
    """Steps that butterfly-contract a tight-separation shore onto its cut vertex.

    The shore, its cut and the steps are in the state's representatives,
    and the shore is read off the state's adjacency (`out` / `inn`).  A
    spanning branching of the shore rooted at the cut is kept, every other
    edge inside the shore is deleted, and the branching is contracted leaf by
    leaf.  Whether the branching points at or away from the cut depends on
    which way the shore leaks edges past its boundary.  A failed check
    names the state's input digraph by `_edge_list`.
    """
    shore = frozenset(shore)
    assert cut in shore, f"cut vertex must lie on its shore: {_edge_list(state.base)}"
    inner = shore - {cut}
    if not inner:
        return []
    sends = any(not shore.issuperset(state.out[a]) for a in inner)
    receives = any(not shore.issuperset(state.inn[b]) for b in inner)
    assert not (sends and receives), f"shore leaks in both directions: {_edge_list(state.base)}"
    toward_cut = not sends

    parent = {}
    depth = {cut: 0}
    stack = [cut]
    adjacent = state.inn if toward_cut else state.out
    while stack:
        cur = stack.pop()
        nbrs = [u for u in adjacent[cur] if u in inner and u not in depth]
        for u in sorted(nbrs, reverse=True):
            parent[u] = cur
            depth[u] = depth[cur] + 1
            stack.append(u)
    assert set(parent) == set(inner), (
        f"shore is not connected through its cut: {_edge_list(state.base)}"
    )

    if toward_cut:
        branching = {(u, parent[u]) for u in inner}
    else:
        branching = {(parent[u], u) for u in inner}
    steps = []
    for a in sorted(shore):
        for b in sorted(shore.intersection(state.out[a])):
            if (a, b) not in branching:
                steps.append(("del", a, b))

    # Deepest first, least label among equals: a vertex's children are
    # deeper, so each vertex is a leaf of what is left when its turn comes.
    for u in sorted(inner, key=lambda w: (-depth[w], w)):
        if toward_cut:
            steps.append(("contract", u, parent[u]))
        else:
            steps.append(("contract", parent[u], u))
    return steps


# ---------------------------------------------------------------------------
# patterns and the NO loop


def _bicycle_walk(d: Digraph):
    """Vertices of d in cyclic order when d is a bidirected cycle, else None."""
    if d.n < 3:
        return None
    for (a, b) in d.edges:
        if (b, a) not in d.edges:
            return None
    partners = {v: d.out_neighbours(v) for v in range(d.n)}
    if any(len(p) != 2 for p in partners.values()):
        return None
    walk = [0, min(partners[0])]
    while True:
        nxt = [u for u in partners[walk[-1]] if u != walk[-2]]
        if len(nxt) != 1:
            return None
        if nxt[0] == 0:
            break
        walk.append(nxt[0])
    if len(walk) != d.n:
        return None
    return tuple(walk)


def _pattern(d: Digraph):
    """(kind, length, embedding) when d is a bidirected cycle or A4, else None.

    The embedding lists the vertices of d standing for the pattern's 0, 1, ...;
    for A4 it is the first permutation of range(4) that maps A4 onto d.
    """
    walk = _bicycle_walk(d)
    if walk is not None:
        return "bicycle", d.n, walk
    if d.n == 4:
        target = a4_digraph().edges
        for emb in itertools.permutations(range(4)):
            if {(emb[a], emb[b]) for (a, b) in target} == d.edges:
                return "a4", None, emb
    return None


def extract_minor_witness(d: Digraph) -> MinorWitness:
    """Shrink a strongly connected NO digraph to a bidirected cycle or A4,
    keeping the script.  A digraph `s_decomposition` refuses raises its
    ValueError, and so does one of directed treewidth one."""
    sdec = s_decomposition(d)
    if all(len(t) == 2 for t in sdec.territories):
        raise ValueError("a digraph of directed treewidth one has no such minor")
    return _minor_witness(d, sdec)[0]


def _minor_witness(d: Digraph, sdec: SDecomposition):
    """The witness for d, given its s-decomposition, which has a piece of
    three or more vertices, and the replay state that recorded its script.

    The loop holds a strongly connected NO digraph, with the state's
    representative for each of its vertices, and an s-decomposition of it.
    It contracts every far shore of the least piece with three or more
    vertices (`_collapse`), stops if what is left is a pattern, and
    otherwise takes `_no_step`'s deletion.  A deletion merges no classes,
    so the trial it was tried on, under the same labels, is the digraph
    the loop collapses next, with the trial's s-decomposition.  Every step
    shrinks the digraph, so the loop ends.
    """
    state = _ReplayState(d)
    dense, labels = d, tuple(range(d.n))
    while True:
        dense, labels = _collapse(state, sdec, dense, labels)
        found = _pattern(dense)
        if found is not None:
            break
        (a, b), dense, sdec = _no_step(dense)
        state.apply([("del", labels[a], labels[b])])
        assert _holds(state, dense, labels), (
            f"a step must leave the digraph it was tried on: {_edge_list(state.base)}"
        )
    kind, length, embedding = found
    branch = {p: frozenset(state.members[labels[v]]) for p, v in enumerate(embedding)}
    witness = MinorWitness(
        kind=kind,
        length=length,
        script=tuple(state.steps),
        branch_sets=branch,
    )
    return witness, state


def _rooted_sets(witness: MinorWitness, state: _ReplayState) -> RootedSets:
    """The rooted sets of a witness: the branch sets of its pattern's
    vertices 0, 1 and 2, each with the root of its class in the state that
    replayed the witness's script."""
    sets = {p: witness.branch_sets[p] for p in range(3)}
    roots = {p: state.root[state.rep(min(members))] for p, members in sets.items()}
    return RootedSets(witness.kind, witness.length, sets, roots)


def _collapse(state: _ReplayState, sdec: SDecomposition, whole: Digraph, labels: tuple):
    """Contract every far shore of sdec's least piece with three or more
    vertices, applying the steps to the state, and return that collapsed
    piece with the representative of each of its vertices.

    whole is the state's current digraph, its vertex i standing for the
    representative labels[i], and sdec is an s-decomposition of it.  Each
    far shore must meet the piece only in its cut and no other far shore
    beyond it, and together with the piece they must cover whole.  Each is
    mapped to representatives and scripted on the state itself, in order of
    cut vertex and sorted far shore; only this order reaches the output.
    When a far shore was contracted, the state must then hold the
    collapsed piece sdec kept for the node (`SDecomposition.collapsed`),
    and it is numbered by `dense_digraph`.  Otherwise the node is sdec's
    only one, whose collapsed piece is whole itself, and whole is returned
    unchecked: the state held whole before the call, as `_minor_witness`
    asserts after each step, and nothing was applied to it.
    """
    node = min(t for t, territory in enumerate(sdec.territories) if len(territory) >= 3)
    territory = sdec.territories[node]
    attachments = sorted(_attachments(sdec, node), key=lambda t: (t[0], tuple(sorted(t[1]))))
    far_cut = {}
    for (cut, far, _, _) in attachments:
        assert far & territory == {cut}, (
            f"far shore must meet the piece in its cut: {_edge_list(state.base)}"
        )
        for u in far - {cut}:
            assert far_cut.setdefault(u, cut) == cut, (
                f"far shores overlap beyond their cuts: {_edge_list(state.base)}"
            )
        shore = frozenset(state.rep(labels[u]) for u in far)
        state.apply(shore_contraction_script(state, shore, state.rep(labels[cut])))
    assert len(territory) + len(far_cut) == whole.n, (
        f"piece and far shores must cover the digraph: {_edge_list(state.base)}"
    )
    if not attachments:
        return whole, labels
    rep = [state.rep(labels[v]) for v in sorted(territory)]
    assert _holds(state, sdec.collapsed[node], rep), (
        f"collapsing the far shores must reproduce the collapsed piece: {_edge_list(state.base)}"
    )
    return dense_digraph(state.out)


def _holds(state: _ReplayState, d: Digraph, labels) -> bool:
    """True if the state's current digraph is d, its vertex i standing for
    the representative labels[i]: the state's classes are the labels, one
    for each vertex of d, and each labels[i]'s out-set is i's
    out-neighbours in d, relabelled.  The state's adjacency is compared in
    place, one out-set at a time, and no set of its edges is built."""
    out = state.out
    return len(labels) == d.n and out.keys() == set(labels) and all(
        out[label] == set(map(labels.__getitem__, d.out_neighbours(i)))
        for i, label in enumerate(labels)
    )


def _no_step(d: Digraph):
    """(edge, the digraph its deletion leaves, that digraph's
    s-decomposition) for the first edge of d, in sorted order, whose
    deletion leaves a NO digraph: one whose s-decomposition has a piece of
    three or more vertices.

    d is a collapsed piece, so it is strongly 2-connected on three or more
    vertices, and deletions are the only steps worth trying.  No edge a->b
    is butterfly-contractible: as a's only out-edge it would leave a with
    none in d - b, and as b's only in-edge it would leave b with none in
    d - a.  Every deletion keeps d strongly connected: a has another
    out-neighbour c, and c reaches b in d - a.  When no deletion
    qualifies, the assertion names d by an edge list that
    `digraph_from_edges` reads back.
    """
    for (a, b) in d.sorted_edges():
        trial = Digraph(d.n, d.edges - {(a, b)})
        sdec = s_decomposition(trial)
        if any(len(t) >= 3 for t in sdec.territories):
            return (a, b), trial, sdec
    raise AssertionError(f"no deletion leaves a strongly connected NO digraph: {_edge_list(d)}")


def _edge_list(d: Digraph) -> str:
    """d's edges as "a b" pairs joined by commas, in sorted order: the list
    an assertion names a digraph by, which `digraph_from_edges` reads back."""
    return ", ".join(f"{a} {b}" for (a, b) in d.sorted_edges())


# ---------------------------------------------------------------------------
# the laminar-family decomposition


@dataclass(frozen=True)
class SDecomposition:
    """A tree of one-cut-vertex splits and the territory each node keeps.

    Nodes are numbered by sorted territory.  A tree edge (A-side node,
    B-side node, cut vertex) is a separation whose shores are the unions
    of the territories on its two sides, the A-shore on its A-side node's
    side; a node's far shores are `_attachments`.  `collapsed` stores each
    node's collapsed piece, every far shore contracted onto its cut
    vertex, as the `s_decomposition` built it: a `Digraph` whose vertex i
    stands for the i-th territory vertex in sorted order, d itself when d
    is one strongly 2-connected piece, and None for a node of two
    vertices, whose piece is a digon and never built.
    """

    territories: tuple
    tree_edges: tuple
    collapsed: tuple

    @property
    def edges(self) -> tuple:
        """The tree edges as sorted node pairs, in sorted order."""
        return tuple(sorted(tuple(sorted((a, b))) for (a, b, _) in self.tree_edges))


def _attachments(sdec: SDecomposition, p) -> list:
    """The far shores of node p as (cut vertex, far shore, far is an
    A-shore, tree-edge index), one per tree edge at p, in the order of the
    edges; a far shore is the union of the territories beyond its edge."""
    nbrs = [[] for _ in sdec.territories]
    for (ai, bi, _) in sdec.tree_edges:
        nbrs[ai].append(bi)
        nbrs[bi].append(ai)
    out = []
    for e, (ai, bi, cut) in enumerate(sdec.tree_edges):
        if p in (ai, bi):
            beyond, _ = _bfs_arcs(ai if bi == p else bi, lambda t: (u for u in nbrs[t] if u != p))
            far = frozenset().union(*map(sdec.territories.__getitem__, beyond))
            out.append((cut, far, bi == p, e))
    return out


def _lifts_onto_a(attachment, first, v) -> bool:
    """True if a separation (first, second) at v of the attachment's piece,
    given as label sets, lifts the attachment's far shore onto its A-shore.

    A far shore re-enters on the side its cut vertex lies on; one at v,
    which lies on both, goes to the side matching its role in its own
    separation, which keeps the family laminar.  first and second meet in
    v alone, so a cut in first lies in second only when it is v.
    """
    cut, _, far_is_a, _ = attachment
    return cut in first and (far_is_a or cut != v)


def _lifted_a_shore(attachments, first, v) -> frozenset:
    """The A-shore of a separation (first, second) at v of a collapsed
    piece, expanded back to the whole digraph: first and the far shores
    `_lifts_onto_a` sends there.  A far shore meets the territory only in
    its cut, so the lifted B-shore is the rest of V and v."""
    return frozenset(first).union(*(a[1] for a in attachments if _lifts_onto_a(a, first, v)))


class _Entry(NamedTuple):
    """One `cut_vertex_shores` entry of a piece at a vertex v, with its key.

    The X-shore is x's trace on the piece's territory: x may still hold
    vertices an ancestor piece dropped.  key is the entry's separation,
    oriented by `orient_cut_separation`, as its A-shore lifted to d by
    `_lifted_a_shore` and sorted; it is None when the other shore is v
    alone, which makes no candidate.  The lifted B-shore is not built: the
    shores cover V and meet in v alone, so it is the rest of V and v, and
    with the A-shore fixed it sorts as v does.  So the heap, which breaks
    ties by v next (`_Piece`), orders the candidates as their pairs of
    sorted shores would.  pivots is the pair of vertices whose comparison
    chose the orientation when x_first is None, and () otherwise.
    """

    x: frozenset
    x_first: Optional[bool]
    key: Optional[tuple]
    pivots: tuple


@dataclass
class _Piece:
    """A live piece of the s-decomposition, which each split edits in place.

    `out[v]` and `inn[v]`, for each territory vertex v, are the adjacency
    of the collapsed piece, every far shore contracted onto its cut vertex,
    in d's own vertex names.  `entries[v]` lists v's `_Entry`s, one per
    strong component of the collapsed piece minus v, in a reverse
    topological order of the condensation; a list is replaced, never
    edited, so a copy of the mapping keeps what the piece held.  `heap`
    holds (key, v, stamp, i) for every candidate `entries[v][i]`; an item is
    live while `stamps[v]` is stamp, and a dead one is popped when it
    reaches the top.  `pivoted[u]` holds every vertex that was given an
    entry with u among its pivots, and may hold vertices that no longer
    have one.  `attachments` are its far shores, as `_attachments` reads
    them off the tree being built.  A split builds a piece only when its
    territory has three or more vertices: a two-vertex piece is final.
    """

    territory: frozenset
    out: dict
    inn: dict
    attachments: list
    entries: dict = field(default_factory=dict)
    heap: list = field(default_factory=list)
    stamps: dict = field(default_factory=dict)
    pivoted: defaultdict = field(default_factory=lambda: defaultdict(set))

    def copy(self) -> _Piece:
        """A piece that a split can edit without touching this one."""
        return _Piece(
            self.territory,
            {v: set(heads) for v, heads in self.out.items()},
            {v: set(tails) for v, tails in self.inn.items()},
            self.attachments,
            dict(self.entries),
            self.heap.copy(),
            dict(self.stamps),
            defaultdict(set, {u: set(vs) for u, vs in self.pivoted.items()}),
        )


def _entry(piece: _Piece, v, x, x_first) -> _Entry:
    """v's entry in the piece for the X-shore x, a set of territory vertices."""
    p = piece.territory - x
    if len(p) < 2:
        return _Entry(x, x_first, None, ())
    first, _, pivots = orient_cut_separation(p, x | {v}, v, x, x_first)
    return _Entry(x, x_first, tuple(sorted(_lifted_a_shore(piece.attachments, first, v))), pivots)


def _fresh_entries(piece: _Piece, v, comps) -> list:
    """v's entries computed afresh from `comps`, the strong components of the
    collapsed piece minus v, in a reverse topological order."""
    return [
        _entry(piece, v, x, x_first)
        for _, x, x_first in cut_vertex_shores(piece.out, piece.inn, v, comps)
    ]


def _set_entries(piece: _Piece, v, entries) -> None:
    """Give v these entries in place of its old ones, whose heap items die,
    and push a heap item for each candidate."""
    piece.entries[v] = entries
    stamp = piece.stamps[v] = piece.stamps.get(v, 0) + 1
    for i, entry in enumerate(entries):
        for u in entry.pivots:
            piece.pivoted[u].add(v)
        if entry.key is not None:
            heapq.heappush(piece.heap, (entry.key, v, stamp, i))


def _least_entry(piece: _Piece):
    """(v, entry) for an entry of the piece with the least key, the least
    (v, position) of equals, or None when no entry is a candidate.  Dead
    heap items on top are popped; the winner stays."""
    heap, stamps = piece.heap, piece.stamps
    while heap:
        _, v, stamp, i = heap[0]
        if stamps.get(v) == stamp:
            return v, piece.entries[v][i]
        heapq.heappop(heap)
    return None


def _split_off(piece: _Piece, territory, cut, attachments, minus, where) -> _Piece:
    """Edit `piece` into its child that keeps `territory` after a split at
    `cut`, and return it, its entries carried over, re-keyed or recomputed
    (see `s_decomposition`).  Beyond one set difference of territories
    and a scan of the `where` column of each dropped vertex, the work is
    the degrees and entries of the dropped vertices and the entries it
    gives anew, not a walk over the piece.

    The recomputed vertices are the cut and every v at which some dropped
    u lies in another root component of d - v than the cut does: the
    positions where the columns where[u] and where[cut] differ.  The
    re-keyed ones are read off `pivoted` at the dropped vertices.
    """
    dropped = piece.territory - territory
    home = where[cut]
    fresh = {cut}
    rekeyed = set()
    for u in dropped:
        merge_into(piece.out, piece.inn, cut, u)
        fresh.update(itertools.compress(itertools.count(), map(operator.ne, where[u], home)))
        rekeyed |= piece.pivoted.pop(u, set())
        del piece.entries[u], piece.stamps[u]
    piece.territory = territory
    piece.attachments = attachments
    for v in fresh & territory:
        comps = [part for k in minus[v] if (part := k & territory)]
        _set_entries(piece, v, _fresh_entries(piece, v, comps))
    for v in (rekeyed & territory) - fresh:
        entries = piece.entries[v]
        if not all(dropped.isdisjoint(entry.pivots) for entry in entries):
            _set_entries(piece, v, [
                entry if dropped.isdisjoint(entry.pivots)
                else _entry(piece, v, entry.x & territory, entry.x_first)
                for entry in entries
            ])
    return piece


def _laminar(d, territories, tree_edges) -> bool:
    """True if a split tree's separations (see `SDecomposition`) are
    directed separations of d and no two of them cross, in time linear in
    the sizes of d and of the tree.  Oriented separations (A, B) and (C, D)
    cross when A & C, B & D, (A & D) - (B & C) and (B & C) - (A & D) are all
    non-empty.  `territories` lists each node's territory, every one of two
    or more vertices.  Four things are checked:

    1. for each cut vertex u, the tree edges with cut u form a directed
       path, an edge pointing from its A-side node to its B-side node: no
       node has two of them pointing at it or two pointing away from it;
    2. each tree edge's cut lies in both its end territories;
    3. the tree edges form a tree, and in a depth-first preorder of it the
       bags, each node's territory less the cut of the edge to its parent,
       partition V (`_place`, as for `validate_dtd`);
    4. by one `_outside` pass each way: the edges leaving the bags below
       each tree edge (its B side below) or entering them (its A side
       below) meet nothing outside them but its cut.

    Count.  Write N(v) for the nodes whose territories hold v and E(v) for
    the tree edges with cut v; by 2, E(v) is a forest on N(v), of at most
    |N(v)| - 1 edges.  By 2 a vertex of a territory is in the bag of the
    first node that holds it, and every bag but the root's is its
    territory less one vertex, so by 3 the territories cover V, lie in it,
    and hold n + E vertices for E tree edges.  So every bound is met: each
    N(v) is a subtree whose tree edges are E(v), and v lies on both sides
    of a tree edge exactly when it is the edge's cut.  Each edge's shores,
    the unions of the territories on its two sides, cover V and meet in
    exactly its cut.

    Interval.  The bags below the i-th node of the preorder are an interval
    I of the placement.  Only the cut c of the edge into it lies on both
    sides of that edge, and c is placed above, so the shore below is
    I | {c} and the shore above V - I: the separation is directed when no
    edge runs from I to V - I - {c} (B side below) or from there into I
    (A side below), which is 4.

    Crossing.  Given this, 1 holds exactly when no two separations cross.
    Take tree edges e and f.  Without them the tree falls into the part P
    beyond e, the part M between them and the part Q beyond f; write U(X)
    for the union of the territories in X.  So e's shores are U(P) and
    U(M | Q), and f's are U(Q) and U(P | M).  A vertex of U(P) & U(Q) lies
    on both shores of e and of f, so it is the cut of both; and if e and f
    both have cut u, u lies in U(P) and in U(Q).  So U(P) & U(Q) is empty,
    or it is {u} when e and f share the cut u.  With (A, B) the shores of e
    and (C, D) those of f:

    - e points at f and f away from e: A = U(P), D = U(Q), so A & D is
      U(P) & U(Q), which lies in B & C; they do not cross.  The same holds
      with both reversed, with B & C inside A & D.
    - e and f point at each other: A & C = U(P) & U(Q), B & D holds U(M),
      A & D = U(P) and B & C = U(Q).  Each of U(P) and U(Q) holds a
      territory, of two or more vertices, so neither lies in the other, and
      e and f cross exactly when they share a cut.  When they point away
      from each other, the same holds with the roles of A & C and B & D
      swapped.

    So e and f cross exactly when they share a cut and point at or away
    from each other.  The edges with cut u form a subtree.  If that
    subtree is a directed path, any two of its edges point the same way
    along it, and none cross.  Otherwise some node meets two of them that
    point at it or away from it, and those two cross; a subtree in which no
    node has two is a path, and a directed one.
    """
    nodes = len(territories)
    nbrs = [[] for _ in range(nodes)]  # the tree edges at each node
    for edge in tree_edges:
        ai, bi, c = edge
        if c not in territories[ai] or c not in territories[bi]:
            return False
        nbrs[ai].append(edge)
        nbrs[bi].append(edge)
    # The preorder: the i-th node's parent is the up[i]-th, the edge between
    # them has cut cuts[i], and a_below[i] if the i-th node is its A side.
    bags, up, cuts, a_below = [], [], [], []
    stack, seen = [(0, None, None, None)], {0}
    while stack:
        t, p, c, is_a = stack.pop()
        if len({(cut, bi == t) for (_, bi, cut) in nbrs[t]}) < len(nbrs[t]):
            return False  # two edges with one cut point at t, or away from it
        for (ai, bi, cut) in nbrs[t]:
            u = bi if ai == t else ai
            if u not in seen:
                seen.add(u)
                stack.append((u, len(bags), cut, u == ai))
        bags.append(territories[t] - {c})
        up.append(p)
        cuts.append(c)
        a_below.append(is_a)
    if len(tree_edges) != nodes - 1 or len(bags) != nodes:
        return False
    _, start, span, pos = _place(d, bags, up)
    if pos is None:
        return False
    heads = _outside(bags, up, start, span, pos, d.out_neighbours)
    tails = _outside(bags, up, start, span, pos, d.in_neighbours)
    for i in range(1, nodes):
        ends = tails[i] if a_below[i] else heads[i]
        if len(ends) > 1 or not {pos[cuts[i]]}.issuperset(ends):
            return False
    return True


def s_decomposition(d: Digraph) -> SDecomposition:
    """Split d along a maximal laminar family of one-cut-vertex separations.

    A strongly 2-connected d on three or more vertices is one piece, and its
    test (`is_strongly_2_connected`: a degree filter, two dominator trees
    and one Tarjan pass) comes first, before any other work.  It is the
    result the search below would reach, since no vertex of d would have a
    second component and so no entry a candidate.  It also says that d is
    strongly connected; a d that fails it is strongly connected exactly when
    vertex 0 reaches every vertex in d and in d reversed, which the same two
    dominator trees (`Digraph.dominators`) tell without a Tarjan pass.  That
    test holds on every two-vertex digraph, so it is not asked there: a
    strongly connected one is a digon, one piece, and the search only ever
    starts on three or more vertices.  A root with a cut vertex always has a
    candidate (the X-shore of the sink component of d - v is that component
    alone), so the root is never a finished piece.

    Pieces are taken from a worklist: each is searched once, and split in two
    along its lexicographically least lifted separation if it has one.  The
    order of the splits does not matter.  A piece's least candidate depends
    only on its territory and its attachments, and a split of another piece
    changes neither: a tree edge it rewires keeps its cut, its end at this
    piece and the union of the territories beyond it.  So every order makes
    the same splits as the greedy one that always splits the least
    candidate of all pieces, and numbering the nodes by sorted territory
    gives the same result.  The result keeps only each node's territory and
    the oriented tree edges with their cuts, sorted by node pair.
    Each finished piece of three or more vertices is checked to be strongly
    2-connected when its search comes up empty, which is final because its
    attachments never change afterwards, and is kept; the family is checked
    by `_laminar`, one walk of the tree and the checker's subtree-boundary
    passes, before it is returned.  No split checks its own separation:
    its lifted shores are the union shores of its tree edge, which later
    splits do not change (see above), so `_laminar` asks of the same
    separations whether each is a directed separation, and its count
    argument says that the two shores of each meet in exactly its cut.
    These assertions, and the key check of each split, name d by
    `_edge_list`.

    A piece with two vertices is final as it stands, and is neither built
    nor searched.  Its collapsed piece is a contraction of a strongly
    connected digraph, so a digon: every entry's other shore would be v
    alone, which makes no candidate, and `is_strongly_2_connected` holds on
    two vertices by definition.  A split at v along (first, second) gives
    its A child the territory first and its B child second.  It hands the
    attachments whose far shore `_lifts_onto_a` sends to the A-shore to
    its A child and the rest to its B child, and rewires only the latter's
    tree edges.

    A split builds its children by editing the split piece (`_split_off`):
    the piece becomes its last child of three or more vertices, and when
    both children have three or more the first is built from a copy taken
    before any edit.  The split asks each piece for its least entry from
    its heap (`_Piece`), and no `Digraph` is built for a piece until it is
    finished: a finished piece of three or more vertices becomes one by
    `dense_digraph`, once, which its assertion checks and the result keeps
    as the node's `collapsed` piece for the NO loop.

    A piece's candidates are its entries (see `_Piece`): every X-shore of a
    strong component of the collapsed piece minus a vertex, keyed by its
    lifted A-shore (see `_Entry`).  The split lifts the winner's A-shore
    once more and asserts that it is the key; the B-shore, the far shore
    its A child keeps at the cut, is the rest of V and the cut.  The root
    piece, which is searched only when d fails the test above, computes its
    entries from the strong components of d - v for every v, which
    `strong_components_minus_each` reads off the test's two dominator trees:
    one Tarjan pass of d - 0, one pass for each strong articulation point
    over the vertices it dominates, and none for any other vertex, whose d -
    v is one component.  A split piece takes most of its entries over from
    its parent, unchanged.  Let Q be the parent's collapsed piece, split
    along (A, B) at c, and take the A side, with territory T' = T_A, which
    drops D, the B-only vertices; the B side is the same with every edge
    reversed.  Q is strongly connected and no edge runs from B-only to
    A-only, so every vertex of D reaches c inside B.

    - Components.  For every v in T', the strong components of the child's
      collapsed piece minus v are the non-empty K & T' over the components
      K of Q - v, in the same reverse topological order.  For v other than
      c, a path of Q - v between vertices of T' that enters D leaves it
      through c, and an edge into D continues to c without meeting v; so
      reachability within T' is unchanged, and each edge into c that the
      child gains stands for a path of Q - v.  No component of Q - c meets
      both D and the rest, since a path from D to A-only passes through c,
      and the child minus c is Q - c without D.  So the root's components,
      restricted to T', give every piece's components.
    - Carry-over.  For v in T' other than c, every component of Q - v that
      meets D and is not inside it holds c, since a path out of D leaves it
      through c.  When no component of Q - v lies inside D, D lies in c's
      component, and merging D into c changes no edge of the condensation:
      an edge into or out of D becomes one into or out of c, in the same
      component.  So v's entries carry over with each X-shore restricted to
      T' and the same x_first, in the same order.  Their candidates are the
      same too: if c's component lies in X, the other shore keeps every
      vertex, and otherwise it keeps c and v.  A carried list is left where
      it is, with its heap items: the split edits only the adjacency of D
      and c, moving every edge of D onto c, and drops the entries, heap
      stamps and pivot index of D.  The copy a two-child split takes of
      the piece shares the lists, which are never edited.
    - Keys.  A carried entry's lift in the child is its lift in the parent.
      c is not on the separator, so in the parent D, the far shores
      attached in D and every far shore at c go to c's side.  In the child
      the B side's part of them is the new far shore at c, and goes to c's
      side too; every other far shore keeps its cut vertex and its side.
      So the key carries over, unless x_first is None and a pivot lies in
      D, the one case where the orientation may flip; such an entry is
      re-keyed.  The piece's pivot index names the vertices that may hold
      one, so no other vertex's entries are read.
    - Recomputed.  c, and every v with a component of Q - v inside D, take
      their entries afresh: `cut_vertex_shores` on the child's collapsed
      piece, read off its edited adjacency, with the root's components
      restricted to T'.  `where[u][v]`, the index of u's root component of
      d - v, tells which: a component of Q - v lies inside D exactly when
      a vertex u of D is not in c's, that is where[u][v] != where[c][v].
      The table is written only for the components other than the largest
      of each d - v, and reads -1 elsewhere, which compares the same way.
      A vertex whose entries are recomputed or re-keyed gets a new stamp,
      which kills its old heap items, and pushes one item per candidate;
      the heap drops dead items only when they reach its top.
    """
    if d.n < 2:
        raise ValueError("need at least two vertices")
    one_piece = d.n >= 3 and is_strongly_2_connected(d)
    if not one_piece and None in itertools.chain(*d.dominators):
        raise ValueError("need a strongly connected digraph")
    if one_piece or d.n == 2:
        return SDecomposition((d.vertex_set,), (), (d if one_piece else None,))

    minus = strong_components_minus_each(d)
    where = [[-1] * d.n for _ in range(d.n)]
    for v, comps in enumerate(minus):
        big = max(comps, key=len)
        for i, k in enumerate(comps):
            if k is not big:
                for u in k:
                    where[u][v] = i
    root = _Piece(
        d.vertex_set,
        {v: set(d.out_neighbours(v)) for v in range(d.n)},
        {v: set(d.in_neighbours(v)) for v in range(d.n)},
        [],
    )
    for v in range(d.n):
        _set_entries(root, v, _fresh_entries(root, v, minus[v]))

    pieces = [root.territory]  # the territory of each piece, by index
    collapsed = {}  # the collapsed piece of each finished piece of 3+ vertices
    tree_edges = []  # (piece index on A side, piece index on B side, cut vertex)
    work = [(0, root)]

    while work:
        pi, piece = work.pop()
        best = _least_entry(piece)
        if best is None:
            collapsed[pi], _ = dense_digraph(piece.out)
            assert is_strongly_2_connected(collapsed[pi]), (
                f"a finished piece must be strongly 2-connected: {_edge_list(d)}"
            )
            continue
        v, (x, x_first, key, _) = best
        x = x & piece.territory
        first, second, _ = orient_cut_separation(piece.territory - x, x | {v}, v, x, x_first)
        shore_a = _lifted_a_shore(piece.attachments, first, v)
        assert tuple(sorted(shore_a)) == key, (
            f"an entry's key must be its lifted separation: {_edge_list(d)}"
        )
        pieces[pi] = first
        new_index = len(pieces)
        pieces.append(second)
        e = len(tree_edges)
        tree_edges.append((pi, new_index, v))
        kept, moved = [(v, (d.vertex_set - shore_a) | {v}, False, e)], [(v, shore_a, True, e)]
        for attachment in piece.attachments:
            if _lifts_onto_a(attachment, first, v):
                kept.append(attachment)
            else:
                moved.append(attachment)
                f = attachment[3]
                ai, bi, c = tree_edges[f]
                tree_edges[f] = (new_index, bi, c) if ai == pi else (ai, new_index, c)
        built = [(i, at) for (i, at) in ((pi, kept), (new_index, moved)) if len(pieces[i]) > 2]
        for i, attachments in built:
            source = piece if i == built[-1][0] else piece.copy()
            work.append((i, _split_off(source, pieces[i], v, attachments, minus, where)))

    assert _laminar(d, pieces, tree_edges), f"family must be pairwise laminar: {_edge_list(d)}"
    order = sorted(range(len(pieces)), key=lambda i: tuple(sorted(pieces[i])))
    rank = {old: new for new, old in enumerate(order)}
    ranked = [(rank[ai], rank[bi], c) for (ai, bi, c) in tree_edges]
    return SDecomposition(
        territories=tuple(pieces[i] for i in order),
        tree_edges=tuple(sorted(ranked, key=lambda e: sorted(e[:2]))),
        collapsed=tuple(collapsed.get(i) for i in order),
    )


# ---------------------------------------------------------------------------
# certificates


def width1_dtd_from_sdec(d: Digraph, sdec: SDecomposition) -> DirectedTreeDecomposition:
    """Read the width-one decomposition off an all-digon split tree.

    The root is the least leaf node, which has the least territory of all
    leaves; walking away from it, nodes in index order, each node's bag keeps
    the territory vertices not yet placed, and each tree arc is guarded by
    the cut vertex of its tree edge.
    """
    assert all(len(t) == 2 for t in sdec.territories), (
        "every piece must have exactly two vertices"
    )
    adj = {t: [] for t in range(len(sdec.territories))}
    cut = {}
    for (a, b, c) in sdec.tree_edges:
        adj[a].append(b)
        adj[b].append(a)
        cut[(a, b)] = cut[(b, a)] = frozenset({c})
    root = min(t for t in adj if len(adj[t]) <= 1)
    order, arcs = _bfs_arcs(root, lambda t: sorted(adj[t]))
    bags = {}
    placed = set()
    for t in order:
        bags[t] = sdec.territories[t] - placed
        placed |= sdec.territories[t]
    guards = {arc: cut[arc] for arc in arcs}
    dec = DirectedTreeDecomposition(
        nodes=tuple(order),
        arcs=tuple(arcs),
        bags=bags,
        guards=guards,
    )
    report = validate_dtd(d, dec)
    assert report.valid, f"constructed decomposition failed validation: {report.violations}"
    assert report.width <= 1, "constructed decomposition must have width one"
    return dec


def recognize_dtw1(d: Digraph) -> Dtw1Certificate:
    """Decide directed treewidth one, emitting a checkable certificate: a
    width-one decomposition for YES, three rooted sets of a butterfly minor
    for NO, read off the replay state that recorded the minor and checked
    by `verify_certificate`.  A digraph `s_decomposition` refuses raises
    its ValueError."""
    sdec = s_decomposition(d)
    if all(len(t) == 2 for t in sdec.territories):
        dec = width1_dtd_from_sdec(d, sdec)
        return Dtw1Certificate("YES", dec, None)

    cert = Dtw1Certificate("NO", None, _rooted_sets(*_minor_witness(d, sdec)))
    check = verify_certificate(d, cert)
    assert check.valid, (
        f"constructed rooted sets failed their check: {check.violations}: {_edge_list(d)}"
    )
    return cert


# ---------------------------------------------------------------------------
# the hypergraph route


@dataclass(frozen=True)
class HypertreeRoute:
    is_hypertree: bool
    witness: Optional[JoinTreeWitness]
    decomposition: Optional[DirectedTreeDecomposition]


def hypertree_route(d: Digraph, cap: int = DEFAULT_CYCLE_CAP) -> HypertreeRoute:
    """Decide width one through the cycle hypergraph's host tree.

    When every cycle induces a subtree of some host tree on the vertices, the
    host tree itself becomes a width-one decomposition: one vertex per bag,
    each arc guarded by the parent vertex.
    """
    if not is_strongly_connected(d):
        raise ValueError("need a strongly connected digraph")
    ch = cycle_hypergraph(d, cap)
    witness = hypertree_witness(ch.as_hypergraph())
    if witness is None:
        return HypertreeRoute(False, None, None)
    vs = sorted(witness.tree.vertices)
    off_cycle = sorted(set(range(d.n)) - set(vs))
    assert not off_cycle or d.n == 1, (
        "strongly connected digraphs keep every vertex on a cycle"
    )
    if not vs:
        dec = DirectedTreeDecomposition(
            nodes=(0,), arcs=(), bags={0: frozenset(range(d.n))}, guards={}
        )
        report = validate_dtd(d, dec)
        assert report.valid
        return HypertreeRoute(True, witness, dec)
    degree = {v: len(witness.tree.neighbours(v)) for v in vs}
    root = min(v for v in vs if degree[v] <= 1)
    order, arcs = _bfs_arcs(root, witness.tree.neighbours)
    dec = DirectedTreeDecomposition(
        nodes=tuple(order),
        arcs=tuple(arcs),
        bags={v: frozenset({v}) for v in order},
        guards={(p, c): frozenset({p}) for (p, c) in arcs},
    )
    report = validate_dtd(d, dec)
    assert report.valid, f"host tree gave an invalid decomposition: {report.violations}"
    assert report.width <= 1, "host tree decompositions have width at most one"
    return HypertreeRoute(True, witness, dec)
