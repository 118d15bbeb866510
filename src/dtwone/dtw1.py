"""Recognising directed treewidth one, with checkable certificates.

The positive route splits the digraph along a maximal laminar family of
one-vertex separations; when every resulting piece is a digon the width-one
decomposition can be read off.  The negative route contracts a large piece
down to a bidirected cycle or the four-vertex digraph A4, recording every
deletion and butterfly contraction so the embedding can be replayed, and
pairs the embedding with an order-3 haven.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .cycles import DEFAULT_CYCLE_CAP, cycle_hypergraph, find_closed_chain
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
    tight_separations,
)
from .games import Haven, haven_from_closed_chain, verify_haven
from .hypergraph import JoinTreeWitness, hypertree_witness


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
    """

    def __init__(self, d: Digraph):
        self.base = d
        self.rep_of = list(range(d.n))
        self.members = {v: frozenset({v}) for v in range(d.n)}
        self.out = {v: set(d.out_neighbours(v)) for v in range(d.n)}
        self.inn = {v: set(d.in_neighbours(v)) for v in range(d.n)}
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
                if len(self.out[ra]) != 1 and len(self.inn[rb]) != 1:
                    raise ValueError(
                        f"step {step}: edge ({ra}, {rb}) is not butterfly contractible"
                    )
                self._merge(min(ra, rb), max(ra, rb))
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


def _a4_embedding(d: Digraph):
    """Lexicographically least map pattern-vertex -> vertex of d, or None."""
    target = a4_digraph()
    if d.n != 4 or len(d.edges) != len(target.edges):
        return None
    for perm in itertools.permutations(range(4)):
        if all((perm[a], perm[b]) in d.edges for (a, b) in target.edges):
            return perm
    return None


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


def witness_pattern(witness: MinorWitness) -> Digraph:
    """The canonical digraph the witness claims to reach."""
    if witness.kind == "bicycle":
        return bicycle(witness.length)
    assert witness.kind == "a4"
    return a4_digraph()


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
        for _, x_side in shores:
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

    Returns ("done", kind, embedding) on a terminal digraph or
    ("steps", step list) when the digraph can be shrunk further.  A digraph
    that fits no case fails an assertion.
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
        return ("steps", steps, None)

    heavy_out = [u for u in range(n) if len(d.out_neighbours(u)) >= 3]
    heavy_in = [u for u in range(n) if len(d.in_neighbours(u)) >= 3]
    if heavy_out:
        u = heavy_out[0]
        return ("steps", [("del", u, min(d.out_neighbours(u)))], None)
    if heavy_in:
        u = heavy_in[0]
        return ("steps", [("del", min(d.in_neighbours(u)), u)], None)
    assert all(
        len(d.out_neighbours(v)) == 2 and len(d.in_neighbours(v)) == 2
        for v in range(n)
    ), "every vertex must have in- and out-degree two now"

    missing = _edge_missing_small_cycle(d)
    if missing is not None:
        x, y = missing
        (z,) = [w for w in d.out_neighbours(x) if w != y]
        return ("steps", [("del", x, z), ("contract", x, y)], None)

    hit = _find_induced(d, 3, _K3)
    if hit is not None:
        x, y, z = hit
        return ("steps", [("del", x, z), ("contract", y, z)], None)

    hit = _find_induced(d, 3, _K3_PLUS)
    if hit is not None:
        x, y, z = hit
        if n == 4:
            emb = _a4_embedding(d)
            assert emb is not None, "a four-vertex digraph with an induced K3+ must be A4 here"
            return ("done", ("a4", None), emb)
        return (
            "steps",
            [("del", x, z), ("del", z, x), ("contract", x, y), ("contract", y, z)],
            None,
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
        return ("steps", [("del", w, y), ("contract", w, z)], None)

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

    state = _ReplayState(d)
    while True:
        dense, labels = state.dense()
        verdict, info, embedding = _case_analysis_steps(dense)
        if verdict == "steps":
            before = (dense.n, len(dense.edges))
            state.apply(
                [(kind, labels[a], labels[b]) for (kind, a, b) in info]
            )
            after = (len(state.members), len(state.edges))
            assert after < before, "every round must shrink the digraph"
            continue
        kind, length = info
        branch = {
            p: state.members[labels[embedding[p]]]
            for p in range(len(embedding))
        }
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
    """A tree of one-cut-vertex splits with the piece each node keeps.

    Each tree edge carries one separation of the family; shore_toward gives,
    per (node, edge), the shore on that node's side.  A node's territory is
    the intersection of its shores, and its collapsed piece (every far shore
    contracted onto its cut vertex) is stored as a dense digraph whose vertex
    i stands for piece_labels[node][i].
    """

    nodes: tuple
    edges: tuple
    separations: dict
    shore_toward: dict
    territories: dict
    pieces: dict
    piece_labels: dict

    def degree(self, t: int) -> int:
        return sum(1 for e in self.edges if t in e)


class _PieceState:
    def __init__(self, territory, attachments):
        self.territory = frozenset(territory)
        self.attachments = list(attachments)  # (cut, far shore, far is an A-shore)


def _collapse_piece(d: Digraph, piece: _PieceState) -> tuple[Digraph, tuple]:
    label_of = {v: v for v in piece.territory}
    for (cut, far, _) in piece.attachments:
        assert far & piece.territory == {cut}, "far shore must meet the piece in its cut"
        for u in far - {cut}:
            assert label_of.get(u, cut) == cut, "far shores overlap beyond their cuts"
            label_of[u] = cut
    assert len(label_of) == d.n, "piece and far shores must cover the digraph"
    return quotient(d, label_of)


def _lift_separation(d, piece, local_sep, labels) -> TightSeparation:
    """Expand a separation of the collapsed piece back to the whole digraph.

    Collapsed far shores re-enter on the side their cut vertex lies on; a cut
    vertex on the separator sends its shore to the side matching the shore's
    role in its own separation, which keeps the family laminar.
    """
    blob = {}
    for (cut, far, far_is_a) in piece.attachments:
        blob.setdefault(cut, []).append((far - {cut}, far_is_a))
    shore_a = set()
    shore_b = set()
    local_a = {labels[i] for i in local_sep.shoreA}
    local_b = {labels[i] for i in local_sep.shoreB}
    for v in labels:
        in_a = v in local_a
        in_b = v in local_b
        if in_a:
            shore_a.add(v)
        if in_b:
            shore_b.add(v)
        for inner, far_is_a in blob.get(v, ()):
            if in_a and in_b:
                target = shore_a if far_is_a else shore_b
            elif in_a:
                target = shore_a
            else:
                target = shore_b
            target |= inner
    lifted = TightSeparation(frozenset(shore_a), frozenset(shore_b))
    assert is_directed_separation(d, lifted.shoreA, lifted.shoreB), (
        "lifted shores stopped being a directed separation"
    )
    return lifted


def _least_candidate(d: Digraph, piece: _PieceState):
    """The piece's lexicographically least lifted separation as (sort key,
    separation), the first of equals; None when the piece has none."""
    collapsed, labels = _collapse_piece(d, piece)
    best = None
    for local in tight_separations(collapsed):
        lifted = _lift_separation(d, piece, local, labels)
        key = lifted.sort_key()
        if best is None or key < best[0]:
            best = (key, lifted)
    return best


def s_decomposition(d: Digraph) -> SDecomposition:
    """Split d along a maximal laminar family of one-cut-vertex separations.

    The family grows greedily: every round adds the lexicographically least
    lifted separation of any piece, splitting its piece in two.  A piece's
    least candidate depends only on its territory and attachments, which a
    split of another piece leaves alone, so it is searched for once per piece.
    """
    if d.n < 2:
        raise ValueError("need at least two vertices")
    if not is_strongly_connected(d):
        raise ValueError("need a strongly connected digraph")

    pieces = [_PieceState(range(d.n), [])]
    candidates = [_least_candidate(d, pieces[0])]  # per piece, by index
    tree_edges = []  # (piece index on A side, piece index on B side, separation)

    while True:
        best = None
        for pi, cand in enumerate(candidates):
            if cand is not None and (best is None or cand[0] < best[0]):
                best = (cand[0], pi, cand[1])
        if best is None:
            break
        _, pi, sep = best
        old = pieces[pi]
        v = sep.cut_vertex
        side_a = _PieceState(old.territory & sep.shoreA, [])
        side_b = _PieceState(old.territory & sep.shoreB, [])
        for (cut, far, far_is_a) in old.attachments:
            inner = far - {cut}
            if not inner - (sep.shoreA - sep.shoreB):
                side_a.attachments.append((cut, far, far_is_a))
            else:
                assert not inner - (sep.shoreB - sep.shoreA), (
                    "an old far shore straddles the new separation"
                )
                side_b.attachments.append((cut, far, far_is_a))
        side_a.attachments.append((v, sep.shoreB, False))
        side_b.attachments.append((v, sep.shoreA, True))
        for piece_state in (side_a, side_b):
            piece_state.attachments.sort(key=lambda t: (t[0], tuple(sorted(t[1]))))
        pieces[pi] = side_a
        candidates[pi] = _least_candidate(d, side_a)
        new_index = len(pieces)
        pieces.append(side_b)
        candidates.append(_least_candidate(d, side_b))
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

    order = sorted(range(len(pieces)), key=lambda i: tuple(sorted(pieces[i].territory)))
    rank = {old: new for new, old in enumerate(order)}
    nodes = tuple(range(len(pieces)))
    edges = []
    separations = {}
    shore_toward = {}
    for (ai, bi, sep) in tree_edges:
        e = tuple(sorted((rank[ai], rank[bi])))
        edges.append(e)
        separations[e] = sep
        shore_toward[(rank[ai], e)] = sep.shoreA
        shore_toward[(rank[bi], e)] = sep.shoreB
    edges = tuple(sorted(edges))
    territories = {}
    piece_digraphs = {}
    piece_labels = {}
    for old_index, piece in enumerate(pieces):
        t = rank[old_index]
        territories[t] = piece.territory
        collapsed, labels = _collapse_piece(d, piece)
        assert is_strongly_2_connected(collapsed), (
            "a finished piece must be strongly 2-connected"
        )
        piece_digraphs[t] = collapsed
        piece_labels[t] = labels
    family = list(separations.values())
    for s, t in itertools.combinations(family, 2):
        assert not separations_cross(s, t), "family must be pairwise laminar"
    return SDecomposition(
        nodes=nodes,
        edges=edges,
        separations=separations,
        shore_toward=shore_toward,
        territories=territories,
        pieces=piece_digraphs,
        piece_labels=piece_labels,
    )


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Dtw1Certificate:
    """The recogniser's answer with its proof.

    YES carries a width-one decomposition; NO carries a minor embedding whose
    script replays from the input digraph, plus an order-3 haven.
    """

    verdict: str
    decomposition: Optional[DirectedTreeDecomposition]
    witness: Optional[MinorWitness]
    haven: Optional[Haven]


def width1_dtd_from_sdec(d: Digraph, sdec: SDecomposition) -> DirectedTreeDecomposition:
    """Read the width-one decomposition off an all-digon split tree.

    The root is a leaf piece; walking away from it, each node's bag keeps the
    territory vertices not yet placed, and each tree arc is guarded by the
    cut vertex of its separation.
    """
    assert all(len(t) == 2 for t in sdec.territories.values()), (
        "every piece must have exactly two vertices"
    )
    leaf_nodes = [t for t in sdec.nodes if sdec.degree(t) <= 1]
    root = min(leaf_nodes, key=lambda t: tuple(sorted(sdec.territories[t])))
    adj = {t: [] for t in sdec.nodes}
    for (a, b) in sdec.edges:
        adj[a].append(b)
        adj[b].append(a)
    for t in adj:
        adj[t].sort(key=lambda u: tuple(sorted(sdec.territories[u])))
    arcs = []
    guards = {}
    bags = {}
    placed = set()
    order = [root]
    seen = {root}
    head = 0
    while head < len(order):
        t = order[head]
        head += 1
        bags[t] = frozenset(sdec.territories[t]) - frozenset(placed)
        placed |= sdec.territories[t]
        for u in adj[t]:
            if u not in seen:
                seen.add(u)
                e = tuple(sorted((t, u)))
                arcs.append((t, u))
                guards[(t, u)] = frozenset({sdec.separations[e].cut_vertex})
                order.append(u)
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


def recognize_dtw1(d: Digraph, cap: int = DEFAULT_CYCLE_CAP) -> Dtw1Certificate:
    """Decide directed treewidth one, emitting a checkable certificate."""
    if d.n < 2:
        raise ValueError("need at least two vertices")
    if not is_strongly_connected(d):
        raise ValueError("need a strongly connected digraph")
    sdec = s_decomposition(d)
    if all(len(t) == 2 for t in sdec.territories.values()):
        dec = width1_dtd_from_sdec(d, sdec)
        return Dtw1Certificate("YES", dec, None, None)

    node = min(
        (t for t in sdec.nodes if len(sdec.territories[t]) >= 3),
        key=lambda t: tuple(sorted(sdec.territories[t])),
    )
    state = _ReplayState(d)
    incident = [e for e in sdec.edges if node in e]
    attachments = sorted(
        (
            (
                sdec.separations[e].cut_vertex,
                sdec.shore_toward[(next(u for u in e if u != node), e)],
            )
            for e in incident
        ),
        key=lambda t: (t[0], tuple(sorted(t[1]))),
    )
    for (cut, far) in attachments:
        dense, labels = state.dense()
        back = {v: i for i, v in enumerate(labels)}
        shore = frozenset(back[state.rep(u)] for u in far)
        local_cut = back[state.rep(cut)]
        steps = shore_contraction_script(dense, shore, local_cut)
        state.apply([(kind, labels[a], labels[b]) for (kind, a, b) in steps])
    dense, labels = state.dense()
    expected = sdec.pieces[node]
    expect_labels = sdec.piece_labels[node]
    projected = frozenset(
        (state.rep(expect_labels[a]), state.rep(expect_labels[b]))
        for (a, b) in expected.edges
    )
    assert projected == state.edges and dense.n == expected.n, (
        "collapsing the far shores must reproduce the stored piece"
    )

    inner = extract_minor_witness(dense)
    state.apply(
        [(kind, labels[a], labels[b]) for (kind, a, b) in inner.script]
    )
    branch = {}
    for p, local_class in inner.branch_sets.items():
        merged = frozenset()
        for i in local_class:
            merged |= state.members[state.rep(labels[i])]
        branch[p] = merged
    witness = MinorWitness(
        kind=inner.kind,
        length=inner.length,
        script=tuple(state.steps),
        branch_sets=branch,
    )
    check = verify_witness(d, witness)
    assert check.valid, f"constructed witness failed replay: {check.violations}"

    ch = cycle_hypergraph(d, cap)
    chain = find_closed_chain(ch)
    assert chain is not None, "a digraph with the minor must contain a closed chain"
    haven = haven_from_closed_chain(ch, chain)
    return Dtw1Certificate("NO", None, witness, haven)


def verify_witness(d: Digraph, witness: MinorWitness) -> Report:
    """Replay a minor witness against its digraph and check every claim."""
    violations = []
    pattern = None
    if witness.kind == "bicycle":
        if witness.length is None or witness.length < 3:
            return Report(False, 0, ("bicycle witnesses need a length of at least three",))
        pattern = bicycle(witness.length)
    elif witness.kind == "a4":
        pattern = a4_digraph()
    else:
        return Report(False, 0, (f"unknown pattern kind {witness.kind!r}",))
    if sorted(witness.branch_sets) != list(range(pattern.n)):
        return Report(False, 0, ("branch sets must cover the pattern's vertices",))
    try:
        state = replay_script(d, witness.script)
    except ValueError as err:
        return Report(False, 0, (str(err),))
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
    return Report(not violations, 0, tuple(violations))


def verify_certificate(d: Digraph, cert: Dtw1Certificate) -> Report:
    """Check a recogniser certificate end to end.

    YES certificates are validated as width-one decompositions; NO
    certificates get their script replayed and their haven verified.
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
    report = verify_witness(d, cert.witness)
    if not report.valid:
        return report
    if cert.haven is None:
        return Report(False, 0, ("a NO certificate needs a haven",))
    if cert.haven.order != 3:
        return Report(False, 0, ("the haven must have order three",))
    if not verify_haven(d, cert.haven):
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
    arcs = []
    order = [root]
    seen = {root}
    head = 0
    while head < len(order):
        t = order[head]
        head += 1
        for u in sorted(witness.tree.neighbours(t)):
            if u not in seen:
                seen.add(u)
                arcs.append((t, u))
                order.append(u)
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
