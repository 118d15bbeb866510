"""Recognising directed treewidth one, with checkable certificates.

The positive route splits the digraph along a maximal laminar family of
one-vertex separations; when every resulting piece is a digon the width-one
decomposition can be read off.  The negative route contracts a large piece
down to a bidirected cycle or the four-vertex digraph A4, recording every
deletion and butterfly contraction so the embedding can be replayed; no
cycle of the digraph is enumerated.  The embedding is the whole NO
certificate: the order-3 haven it implies, lifted from the pattern through
the roots of the branch sets, is derived by the checker (`verify_certificate`,
one walk per cop set) or by `minor_haven`, never stored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .cycles import DEFAULT_CYCLE_CAP, cycle_hypergraph
from .decomp import DirectedTreeDecomposition, Report, validate_dtd
from .digraph import (
    Digraph,
    TightSeparation,
    a4_digraph,
    bicycle,
    butterfly_dominating_vertices,
    cut_vertex_shores,
    is_directed_separation,
    is_strongly_2_connected,
    is_strongly_connected,
    quotient,
    separations_cross,
    strong_components,
    tight_separations,
)
from .games import Haven, haven_from_minor, haven_is_monotone
from .games import verify_haven  # noqa: F401  (bench/tracer.py wraps this binding)
from .hypergraph import JoinTreeWitness, _bfs_arcs, hypertree_witness


# ---------------------------------------------------------------------------
# contraction scripts and their replay


class _ReplayState:
    """Tracks a digraph being shrunk by deletions and butterfly contractions.

    Vertices never disappear: contractions merge them into classes, and every
    script step may name any member of a class.  The representative of a class
    is its smallest label.  The current digraph lives on the representatives
    as an adjacency index: `out[r]` and `inn[r]` hold the representatives
    joined to r by an edge leaving or entering r.  A contraction moves only
    the edges of the class that stops being represented, so a step costs
    that class's degree, not the size of the digraph.

    Each class keeps a root `root[r]`, reached inside the class from every
    vertex with a surviving edge entering it and reaching every vertex with
    one leaving it; so root(P) reaches root(Q) inside P ∪ Q for each edge P -> Q.
    """

    def __init__(self, d: Digraph):
        self.base = d
        self.rep_of = list(range(d.n))
        self.members = {v: frozenset({v}) for v in range(d.n)}
        self.out = {v: set(d.out_neighbours(v)) for v in range(d.n)}
        self.inn = {v: set(d.in_neighbours(v)) for v in range(d.n)}
        self.root = list(range(d.n))
        self.steps: list = []

    @property
    def edges(self) -> frozenset:
        """The current edges, as pairs of representatives."""
        return frozenset((a, b) for a, heads in self.out.items() for b in heads)

    def rep(self, v: int) -> int:
        return self.rep_of[v]

    def apply(self, steps) -> None:
        for step in steps:
            kind, a, b = step
            if not (0 <= a < self.base.n and 0 <= b < self.base.n):
                raise ValueError(f"step {step} names an unknown vertex")
            ra, rb = self.rep_of[a], self.rep_of[b]
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
        merged = self.members.pop(gone) | self.members[keep]
        self.members[keep] = merged
        for v in merged:
            self.rep_of[v] = keep
        for w in self.out.pop(gone):
            self.inn[w].discard(gone)
            if w != keep:
                self.inn[w].add(keep)
                self.out[keep].add(w)
        for w in self.inn.pop(gone):
            self.out[w].discard(gone)
            if w != keep:
                self.out[w].add(keep)
                self.inn[keep].add(w)

    def dense(self) -> tuple[Digraph, tuple]:
        """The current digraph over 0..k-1 plus the label of each new id."""
        return quotient(Digraph(self.base.n, self.edges), self.rep_of)


def replay_script(d: Digraph, script) -> _ReplayState:
    """Replay a witness script from scratch; ValueError on any illegal step."""
    state = _ReplayState(d)
    state.apply(script)
    return state


def shore_contraction_script(d: Digraph, shore, cut: int) -> list:
    """Steps that butterfly-contract a tight-separation shore onto its cut vertex.

    A spanning branching of the shore rooted at the cut is kept, every other
    edge inside the shore is deleted, and the branching is contracted leaf by
    leaf.  Whether the branching points at or away from the cut depends on
    which way the shore leaks edges past its boundary.
    """
    shore = frozenset(shore)
    assert cut in shore, "cut vertex must lie on its shore"
    inner = shore - {cut}
    if not inner:
        return []
    outside = frozenset(range(d.n)) - shore
    sends = any(a in inner and b in outside for (a, b) in d.edges)
    receives = any(a in outside and b in inner for (a, b) in d.edges)
    assert not (sends and receives), "shore leaks in both directions"
    toward_cut = not sends

    parent = {}
    depth = {cut: 0}
    stack = [cut]
    while stack:
        cur = stack.pop()
        if toward_cut:
            nbrs = [u for u in d.in_neighbours(cur) if u in inner and u not in depth]
        else:
            nbrs = [u for u in d.out_neighbours(cur) if u in inner and u not in depth]
        for u in sorted(nbrs, reverse=True):
            parent[u] = cur
            depth[u] = depth[cur] + 1
            stack.append(u)
    assert set(parent) == set(inner), "shore is not connected through its cut"

    if toward_cut:
        branching = {(u, parent[u]) for u in inner}
    else:
        branching = {(parent[u], u) for u in inner}
    steps = []
    for (a, b) in d.sorted_edges():
        if a in shore and b in shore and (a, b) not in branching:
            steps.append(("del", a, b))

    children = {u: set() for u in shore}
    for u in inner:
        children[parent[u]].add(u)
    remaining = set(inner)
    while remaining:
        leaves = [u for u in remaining if not (children[u] & remaining)]
        u = max(leaves, key=lambda w: (depth[w], -w))
        if toward_cut:
            steps.append(("contract", u, parent[u]))
        else:
            steps.append(("contract", parent[u], u))
        remaining.discard(u)
    return steps


# ---------------------------------------------------------------------------
# pattern matching for the case analysis

_DIGON = frozenset({(0, 1), (1, 0)})
_K3 = frozenset({(0, 1), (1, 2), (0, 2)})
_K3_PLUS = frozenset({(0, 1), (1, 2), (0, 2), (2, 0)})
_K3_OUT = frozenset({(0, 1), (1, 0), (0, 2), (1, 2)})
_K3_IN = frozenset({(0, 1), (1, 0), (2, 0), (2, 1)})
_K3_PLUS_PLUS = frozenset({(0, 1), (1, 0), (0, 2), (2, 0), (1, 2)})
_K22_UP = frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})

_SMALL_CYCLE_PATTERNS = {
    2: (_DIGON,),
    3: (_K3, _K3_PLUS, _K3_OUT, _K3_IN, _K3_PLUS_PLUS),
    4: (_K22_UP,),
}


def _induced_edge_set(d: Digraph, tup) -> frozenset:
    return frozenset(
        (i, j)
        for i, u in enumerate(tup)
        for j, v in enumerate(tup)
        if (u, v) in d.edges
    )


def _find_induced(d: Digraph, size: int, template, canonical=None):
    """Lexicographically first ordered vertex tuple inducing exactly `template`.

    Positions are filled in order by a backtracking search.  A position that a
    template edge joins to an earlier one draws its candidates from the
    out- or in-neighbours of that earlier vertex (intersected over every such
    edge); any match must take one of these values there, so the candidate
    set is complete.  Only a position joined to no earlier one tries every
    vertex.  Each candidate is checked against the earlier positions at once,
    and candidates go in ascending order, so the first full tuple found is the
    lexicographically first match.
    """
    tup = []

    def candidates(i):
        pools = [d.out_neighbours(u) for j, u in enumerate(tup) if (j, i) in template]
        pools += [d.in_neighbours(u) for j, u in enumerate(tup) if (i, j) in template]
        if not pools:
            return range(d.n)
        return sorted(set(pools[0]).intersection(*pools[1:]))

    def fits(i, v):
        return v not in tup and all(
            ((u, v) in d.edges) == ((j, i) in template)
            and ((v, u) in d.edges) == ((i, j) in template)
            for j, u in enumerate(tup)
        )

    def extend(i):
        if i == size:
            return canonical is None or canonical(tuple(tup))
        for v in candidates(i):
            if fits(i, v):
                tup.append(v)
                if extend(i + 1):
                    return True
                tup.pop()
        return False

    return tuple(tup) if extend(0) else None


def _edge_in_small_cycle(d: Digraph, edge) -> bool:
    """Whether `edge` lies in an induced copy of a `_SMALL_CYCLE_PATTERNS` entry.

    The extra vertices come from the in- and out-neighbours of the edge's
    ends only.  That set is complete: every pattern is weakly connected, and
    in each one every vertex is adjacent to an end of any edge it contains.
    """
    a, b = edge
    near = set()
    for v in (a, b):
        near.update(d.out_neighbours(v), d.in_neighbours(v))
    others = sorted(near - {a, b})
    for size in (2, 3, 4):
        for extra in itertools.combinations(others, size - 2):
            base = sorted((a, b) + extra)
            for tup in itertools.permutations(base):
                if _induced_edge_set(d, tup) in _SMALL_CYCLE_PATTERNS[size]:
                    return True
    return False


def _edge_missing_small_cycle(d: Digraph):
    for e in d.sorted_edges():
        if not _edge_in_small_cycle(d, e):
            return e
    return None


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


# ---------------------------------------------------------------------------
# minor extraction (the case analysis)


@dataclass(frozen=True)
class MinorWitness:
    """A butterfly-minor embedding of a bidirected cycle or A4.

    The script lists deletions and contractions over the labels of the
    original digraph; replaying it yields the pattern, and branch_sets maps
    each pattern vertex to the class of original vertices merged into it.
    """

    kind: str
    length: Optional[int]
    script: tuple
    branch_sets: dict


def _case_one_steps(d: Digraph) -> Optional[list]:
    """Contract a tight-separation shore when d is not strongly 2-connected.

    The shore is the X-shore of a strong component of d minus a cut vertex,
    preferring components that hold a butterfly-dominating vertex; a candidate
    only counts when the contracted digraph keeps at least three vertices and
    still has a dominating vertex, so the shrinking argument can continue.
    Returns None when no vertex is a cut vertex.
    """
    dom = butterfly_dominating_vertices(d)
    saw_cut = False
    for v in range(d.n):
        shores = cut_vertex_shores(d, v)
        if not shores:
            continue
        saw_cut = True
        shores.sort(key=lambda pair: (not (pair[0] & dom), min(pair[0])))
        for _, x_side, _ in shores:
            y_side = frozenset(range(d.n)) - x_side - {v}
            if len(y_side) < 2:
                continue
            shore = x_side | {v}
            collapsed, _ = quotient(d, [v if u in shore else u for u in range(d.n)])
            if not butterfly_dominating_vertices(collapsed):
                continue
            return shore_contraction_script(d, shore, v)
    if not saw_cut:
        return None
    raise AssertionError("no cut vertex admits a usable shore contraction")


def _case_analysis_steps(d: Digraph):
    """One round of the shrink-or-finish analysis.

    Returns ("done", (kind, length), embedding) on a terminal digraph or
    ("steps", step list, rule name) when the digraph can be shrunk further.
    A digraph that fits no case fails an assertion.
    """
    n = d.n
    assert n >= 3, "the analysis never goes below three vertices"
    if n == 3:
        walk = _bicycle_walk(d)
        assert walk is not None, (
            "a three-vertex digraph left to the analysis must be a bidirected triangle"
        )
        return ("done", ("bicycle", 3), walk)

    steps = _case_one_steps(d)
    if steps is not None:
        return ("steps", steps, "case one")

    heavy_out = [u for u in range(n) if len(d.out_neighbours(u)) >= 3]
    heavy_in = [u for u in range(n) if len(d.in_neighbours(u)) >= 3]
    if heavy_out:
        u = heavy_out[0]
        return ("steps", [("del", u, min(d.out_neighbours(u)))], "heavy out")
    if heavy_in:
        u = heavy_in[0]
        return ("steps", [("del", min(d.in_neighbours(u)), u)], "heavy in")
    assert all(
        len(d.out_neighbours(v)) == 2 and len(d.in_neighbours(v)) == 2
        for v in range(n)
    ), "every vertex must have in- and out-degree two now"

    missing = _edge_missing_small_cycle(d)
    if missing is not None:
        x, y = missing
        (z,) = [w for w in d.out_neighbours(x) if w != y]
        return ("steps", [("del", x, z), ("contract", x, y)], "missing small cycle")

    hit = _find_induced(d, 3, _K3)
    if hit is not None:
        # The round is 2-in/2-out and, with no cut vertex, strongly
        # 2-connected, so out(x) = {y, z} and in(z) = {x, y}.  Deleting x->y
        # keeps it strongly connected: x->z, and z reaches y inside D - x.
        # It also leaves x->z as x's only out-edge, so that edge contracts.
        # Afterwards no degree has dropped but y's, whose in-edges are now
        # {u->y} for its other in-neighbour u: u->y is the only contractible
        # edge, and y dominates it.
        x, y, z = hit
        return ("steps", [("del", x, y), ("contract", x, z)], "K3")

    hit = _find_induced(d, 3, _K3_PLUS)
    if hit is not None:
        x, y, z = hit
        if n == 4:
            emb = _find_induced(d, 4, a4_digraph().edges)
            assert emb is not None, "a four-vertex digraph with an induced K3+ must be A4 here"
            return ("done", ("a4", None), emb)
        return (
            "steps",
            [("del", x, z), ("del", z, x), ("contract", x, y), ("contract", y, z)],
            "K3+",
        )

    assert _find_induced(d, 3, _K3_OUT, lambda t: t[0] < t[1]) is None, (
        "a one-way fan out contradicts strong 2-connectivity"
    )
    assert _find_induced(d, 3, _K3_IN, lambda t: t[0] < t[1]) is None, (
        "a one-way fan in contradicts strong 2-connectivity"
    )
    assert _find_induced(d, 3, _K3_PLUS_PLUS) is None, (
        "a pendant one-way edge contradicts strong 2-connectivity"
    )

    hit = _find_induced(d, 4, _K22_UP, lambda t: t[0] < t[1] and t[2] < t[3])
    if hit is not None:
        w, x, y, z = hit
        return ("steps", [("del", w, y), ("contract", w, z)], "K22")

    walk = _bicycle_walk(d)
    assert walk is not None, "a digraph with no applicable step must be a bidirected cycle"
    return ("done", ("bicycle", n), walk)


def extract_minor_witness(d: Digraph) -> MinorWitness:
    """Shrink a suitable digraph to a bidirected cycle or A4, keeping the script.

    The input must be strongly connected on at least three vertices and have
    a vertex meeting every butterfly-contractible edge; strongly 2-connected
    digraphs on three or more vertices always qualify.
    """
    if d.n < 3:
        raise ValueError("need at least three vertices")
    if not is_strongly_connected(d):
        raise ValueError("need a strongly connected digraph")
    if not butterfly_dominating_vertices(d):
        raise ValueError("need a vertex dominating all butterfly-contractible edges")
    return _shrink(_ReplayState(d))


def _shrink(state: _ReplayState) -> MinorWitness:
    """Run the case analysis on the state's current digraph until it is a
    pattern, applying every round's steps to the state.

    Every round must leave what `extract_minor_witness` asks of its input:
    at least three vertices, strong connectivity and a butterfly-dominating
    vertex.  A round that breaks it fails an assertion naming its rule.
    """
    dense, labels = state.dense()
    while True:
        verdict, info, detail = _case_analysis_steps(dense)
        if verdict == "done":
            break
        before = (dense.n, len(dense.edges))
        state.apply([(kind, labels[a], labels[b]) for (kind, a, b) in info])
        dense, labels = state.dense()
        assert (dense.n, len(dense.edges)) < before, "every round must shrink the digraph"
        assert (
            dense.n >= 3
            and is_strongly_connected(dense)
            and butterfly_dominating_vertices(dense)
        ), f"the {detail} step left a digraph the case analysis cannot shrink"
    kind, length = info
    branch = {p: state.members[labels[v]] for p, v in enumerate(detail)}
    return MinorWitness(
        kind=kind,
        length=length,
        script=tuple(state.steps),
        branch_sets=branch,
    )


# ---------------------------------------------------------------------------
# the laminar-family decomposition


@dataclass(frozen=True)
class SDecomposition:
    """A tree of one-cut-vertex splits and the territory each node keeps.

    Nodes are numbered by sorted territory.  Each tree edge is a triple
    (A-side node, B-side node, separation): the node on the separation's
    A side keeps its territory inside shoreA, the other inside shoreB.  A
    node's collapsed piece, every far shore contracted onto its cut vertex,
    is derived on demand: `_collapse_piece(d, territories[node],
    _attachments(tree_edges, node))`.
    """

    territories: tuple
    tree_edges: tuple

    @property
    def edges(self) -> tuple:
        """The tree edges as sorted node pairs, in sorted order."""
        return tuple(sorted(tuple(sorted((a, b))) for (a, b, _) in self.tree_edges))


def _attachments(tree_edges, p) -> list:
    """The far shores of piece p as (cut vertex, far shore, far is an
    A-shore), one per tree edge (A-side piece, B-side piece, separation) at
    p, sorted by cut vertex and far shore."""
    out = []
    for (ai, bi, sep) in tree_edges:
        if ai == p:
            out.append((sep.cut_vertex, sep.shoreB, False))
        elif bi == p:
            out.append((sep.cut_vertex, sep.shoreA, True))
    return sorted(out, key=lambda t: (t[0], tuple(sorted(t[1]))))


def _collapse_piece(d: Digraph, territory, attachments) -> tuple[Digraph, tuple]:
    label_of = {v: v for v in territory}
    for (cut, far, _) in attachments:
        assert far & territory == {cut}, "far shore must meet the piece in its cut"
        for u in far - {cut}:
            assert label_of.get(u, cut) == cut, "far shores overlap beyond their cuts"
            label_of[u] = cut
    assert len(label_of) == d.n, "piece and far shores must cover the digraph"
    return quotient(d, label_of)


def _lift_separation(d, attachments, local_sep, labels) -> TightSeparation:
    """Expand a separation of the collapsed piece back to the whole digraph.

    Collapsed far shores re-enter on the side their cut vertex lies on; a cut
    vertex on the separator sends its shore to the side matching the shore's
    role in its own separation, which keeps the family laminar.  A far shore
    meets the territory only in its cut, so adding it to a side never moves
    another cut vertex.
    """
    shore_a = {labels[i] for i in local_sep.shoreA}
    shore_b = {labels[i] for i in local_sep.shoreB}
    for (cut, far, far_is_a) in attachments:
        if cut in shore_a and (far_is_a or cut not in shore_b):
            shore_a |= far
        else:
            shore_b |= far
    lifted = TightSeparation(frozenset(shore_a), frozenset(shore_b))
    assert is_directed_separation(d, lifted.shoreA, lifted.shoreB), (
        "lifted shores stopped being a directed separation"
    )
    return lifted


def _least_candidate(d: Digraph, territory, attachments, inherited):
    """The piece's lexicographically least lifted separation as (sort key,
    separation), the first of equals, or None when the piece has none;
    returned with the piece's table of strong components.

    The table maps each vertex v of the territory to the strong components
    of the collapsed piece minus v, as sets of labels, in a reverse
    topological order of their condensation.  `inherited` holds the entries
    a split piece takes over from its parent, each parent component
    restricted to the territory: the collapsed piece minus v has exactly
    those components whenever v is not the piece's new cut vertex, since
    merging the far side of a one-vertex separation into its cut changes no
    reachability among the vertices that stay (see `s_decomposition`).  The
    missing entries, every vertex of the root piece and the cut vertex of a
    split piece, take one Tarjan pass each.  The piece is collapsed once and
    `tight_separations` reads the table instead of recomputing it.
    """
    collapsed, labels = _collapse_piece(d, territory, attachments)
    index = {label: i for i, label in enumerate(labels)}
    table = {}
    minus = []
    for i, label in enumerate(labels):
        if label in inherited:
            comps = inherited[label]
            minus.append([frozenset(map(index.__getitem__, k)) for k in comps])
        else:
            local = strong_components(collapsed, (i,))
            minus.append(local)
            comps = [frozenset(map(labels.__getitem__, k)) for k in local]
        table[label] = comps
    best = None
    for local in tight_separations(collapsed, minus):
        lifted = _lift_separation(d, attachments, local, labels)
        key = lifted.sort_key()
        if best is None or key < best[0]:
            best = (key, lifted)
    return best, table


def _inherit(table, territory, cut) -> dict:
    """The entries of a split piece's table that it takes over from its
    parent's: every territory vertex but the cut, each parent component
    restricted to the territory, empty ones dropped, order kept."""
    return {
        v: [part for k in table[v] if (part := k & territory)]
        for v in territory
        if v != cut
    }


def s_decomposition(d: Digraph) -> SDecomposition:
    """Split d along a maximal laminar family of one-cut-vertex separations.

    The family grows greedily: every round adds the lexicographically least
    lifted separation of any piece, splitting its piece in two.  A piece's
    least candidate depends only on its territory and attachments, which a
    split of another piece leaves alone, so it is searched for once per piece.
    The result keeps only each node's territory and the oriented tree edges,
    sorted by node pair; every finished piece is checked to be strongly
    2-connected and the family to be laminar before it is returned.

    The search of a piece needs the strong components of its collapsed
    piece minus each vertex.  A split piece inherits them from its parent
    for every vertex but the new cut c, which is exact.  Let Q be the
    parent's collapsed piece, split along (A, B) with A and B meeting in c.
    Q is strongly connected and no edge runs from B-only to A-only, so every
    B-only vertex reaches c inside B, and every A-only vertex is reached
    from c inside A.  For v in A - {c}, a path of Q - v between vertices of
    A that enters B-only leaves it through c, and an edge a -> b into B-only
    continues to c without meeting v.  So reachability among A's vertices is
    the same in Q - v as in Q_A - v, where Q_A is Q with B merged into c:
    the A side's collapsed piece.  Its strong components are the non-empty
    K & T_A over the components K of Q - v, T_A the A side's territory, and
    the parent's order stays a reverse topological order, because every
    edge a -> c that Q_A - v gains stands for a path a -> b ~> c of Q - v.
    The B side is the same argument with every edge reversed.  Only c takes
    a fresh Tarjan pass in each child.
    """
    if d.n < 2:
        raise ValueError("need at least two vertices")
    if not is_strongly_connected(d):
        raise ValueError("need a strongly connected digraph")

    pieces = [frozenset(range(d.n))]  # the territory of each piece, by index
    searched = [_least_candidate(d, pieces[0], [], {})]  # (candidate, table)
    tree_edges = []  # (piece index on A side, piece index on B side, separation)

    while True:
        best = None
        for pi, (cand, _) in enumerate(searched):
            if cand is not None and (best is None or cand[0] < best[0]):
                best = (cand[0], pi, cand[1])
        if best is None:
            break
        _, pi, sep = best
        old = pieces[pi]
        pieces[pi] = old & sep.shoreA
        new_index = len(pieces)
        pieces.append(old & sep.shoreB)
        rewired = []
        for (ai, bi, s) in tree_edges:
            if pi in (ai, bi):
                far = s.shoreB if ai == pi else s.shoreA
                inner = far - {s.cut_vertex}
                if not inner - (sep.shoreA - sep.shoreB):
                    keep = pi
                else:
                    assert not inner - (sep.shoreB - sep.shoreA), (
                        "an old tree edge straddles the new separation"
                    )
                    keep = new_index
                if ai == pi:
                    ai = keep
                else:
                    bi = keep
            rewired.append((ai, bi, s))
        tree_edges = rewired
        tree_edges.append((pi, new_index, sep))
        table = searched[pi][1]
        searched[pi], searched_new = [
            _least_candidate(
                d, pieces[i], _attachments(tree_edges, i),
                _inherit(table, pieces[i], sep.cut_vertex),
            )
            for i in (pi, new_index)
        ]
        searched.append(searched_new)

    for pi, territory in enumerate(pieces):
        collapsed, _ = _collapse_piece(d, territory, _attachments(tree_edges, pi))
        assert is_strongly_2_connected(collapsed), (
            "a finished piece must be strongly 2-connected"
        )
    for (_, _, s), (_, _, t) in itertools.combinations(tree_edges, 2):
        assert not separations_cross(s, t), "family must be pairwise laminar"
    order = sorted(range(len(pieces)), key=lambda i: tuple(sorted(pieces[i])))
    rank = {old: new for new, old in enumerate(order)}
    ranked = [(rank[ai], rank[bi], sep) for (ai, bi, sep) in tree_edges]
    return SDecomposition(
        territories=tuple(pieces[i] for i in order),
        tree_edges=tuple(sorted(ranked, key=lambda e: sorted(e[:2]))),
    )


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Dtw1Certificate:
    """The recogniser's answer with its proof.

    YES carries a width-one decomposition; NO carries a minor embedding whose
    script replays from the input digraph, which implies an order-3 haven
    (`minor_haven`).
    """

    verdict: str
    decomposition: Optional[DirectedTreeDecomposition]
    witness: Optional[MinorWitness]


def width1_dtd_from_sdec(d: Digraph, sdec: SDecomposition) -> DirectedTreeDecomposition:
    """Read the width-one decomposition off an all-digon split tree.

    The root is the least leaf node, which has the least territory of all
    leaves; walking away from it, nodes in index order, each node's bag keeps
    the territory vertices not yet placed, and each tree arc is guarded by
    the cut vertex of its tree edge's separation.
    """
    assert all(len(t) == 2 for t in sdec.territories), (
        "every piece must have exactly two vertices"
    )
    adj = {t: [] for t in range(len(sdec.territories))}
    cut = {}
    for (a, b, sep) in sdec.tree_edges:
        adj[a].append(b)
        adj[b].append(a)
        cut[(a, b)] = cut[(b, a)] = frozenset({sep.cut_vertex})
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
    width-one decomposition for YES, a replayable minor witness for NO."""
    if d.n < 2:
        raise ValueError("need at least two vertices")
    if not is_strongly_connected(d):
        raise ValueError("need a strongly connected digraph")
    sdec = s_decomposition(d)
    if all(len(t) == 2 for t in sdec.territories):
        dec = width1_dtd_from_sdec(d, sdec)
        return Dtw1Certificate("YES", dec, None)

    node = min(t for t, territory in enumerate(sdec.territories) if len(territory) >= 3)
    attachments = _attachments(sdec.tree_edges, node)
    expected, expect_labels = _collapse_piece(d, sdec.territories[node], attachments)
    state = _ReplayState(d)
    for (cut, far, _) in attachments:
        dense, labels = state.dense()
        back = {v: i for i, v in enumerate(labels)}
        shore = frozenset(back[state.rep(u)] for u in far)
        local_cut = back[state.rep(cut)]
        steps = shore_contraction_script(dense, shore, local_cut)
        state.apply([(kind, labels[a], labels[b]) for (kind, a, b) in steps])
    projected = frozenset(
        (state.rep(expect_labels[a]), state.rep(expect_labels[b]))
        for (a, b) in expected.edges
    )
    assert projected == state.edges and len(state.members) == expected.n, (
        "collapsing the far shores must reproduce the collapsed piece"
    )

    witness = _shrink(state)
    check = verify_witness(d, witness)
    assert check.valid, f"constructed witness failed replay: {check.violations}"
    return Dtw1Certificate("NO", None, witness)


def _roots(state: _ReplayState, branch_sets) -> dict:
    """The root of each branch set's class in a replayed state."""
    return {p: state.root[state.rep(min(cls))] for p, cls in branch_sets.items()}


def minor_haven(d: Digraph, witness: MinorWitness) -> Haven:
    """The order-3 haven a minor witness implies, by `haven_from_minor`
    through the roots of a fresh replay of its script.

    The roots depend only on the script, so this is the haven the recogniser
    would have built.  The witness must pass `verify_witness`; the result is
    not checked here.
    """
    state = replay_script(d, witness.script)
    return haven_from_minor(d, witness.branch_sets, _roots(state, witness.branch_sets))


def verify_witness(d: Digraph, witness: MinorWitness) -> Report:
    """Replay a minor witness against its digraph and check every claim."""
    return _replay_witness(d, witness)[0]


def _replay_witness(d: Digraph, witness: MinorWitness):
    """`verify_witness`'s report, with the replay state when the script
    replays (None otherwise)."""
    violations = []
    pattern = None
    if witness.kind == "bicycle":
        if witness.length is None or witness.length < 3:
            return Report(False, 0, ("bicycle witnesses need a length of at least three",)), None
        pattern = bicycle(witness.length)
    elif witness.kind == "a4":
        pattern = a4_digraph()
    else:
        return Report(False, 0, (f"unknown pattern kind {witness.kind!r}",)), None
    if sorted(witness.branch_sets) != list(range(pattern.n)):
        return Report(False, 0, ("branch sets must cover the pattern's vertices",)), None
    try:
        state = replay_script(d, witness.script)
    except ValueError as err:
        return Report(False, 0, (str(err),)), None
    reps = {}
    for p in range(pattern.n):
        cls = frozenset(witness.branch_sets[p])
        if not cls:
            violations.append(f"branch set {p} is empty")
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
    return Report(not violations, 0, tuple(violations)), state


def verify_certificate(d: Digraph, cert: Dtw1Certificate) -> Report:
    """Check a recogniser certificate end to end.

    YES certificates are validated as width-one decompositions.  A NO
    certificate's script is replayed once, for the witness checks and for
    the roots of its branch sets; the order-3 haven is then derived with
    `haven_from_minor`, one walk per cop set, and checked to be monotone.
    Each entry is by construction the strong component of d - X holding a
    root outside X, so walking it again would only test the walk against
    itself: every haven condition is checked.
    """
    if cert.verdict == "YES":
        if cert.decomposition is None:
            return Report(False, 0, ("a YES certificate needs a decomposition",))
        report = validate_dtd(d, cert.decomposition)
        if report.valid and report.width > 1:
            return Report(False, report.width, ("decomposition is wider than one",))
        return report
    if cert.verdict != "NO":
        return Report(False, 0, (f"unknown verdict {cert.verdict!r}",))
    if cert.witness is None:
        return Report(False, 0, ("a NO certificate needs a minor witness",))
    report, state = _replay_witness(d, cert.witness)
    if not report.valid:
        return report
    branch_sets = cert.witness.branch_sets
    roots = _roots(state, branch_sets)
    if any(roots[p] not in cls for p, cls in branch_sets.items()):
        return Report(False, 0, ("a branch set's root lies outside it",))
    if not haven_is_monotone(d, haven_from_minor(d, branch_sets, roots)):
        return Report(False, 0, ("haven verification failed",))
    return Report(True, 0, ())


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
