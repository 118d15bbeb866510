"""Cops-and-robber game on digraphs, havens, and linkedness checks.

The game is played on a digraph D with k cops.  A position is a pair
(cop set X, robber component R) where R is a strong component of D - X.
When the cops announce a new set X', the robber may move to any strong
component of D - X' inside the strong component of D - (X ∩ X') that
contains their current component.  The robber is caught when no such
component exists.  The havens here are the reference: a NO certificate's
haven is checked without its table, in six linear sweeps, by
`check.minor_haven_is_monotone`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Optional

from .cycles import CycleChain, CycleHypergraph
from .cycles import cycle_hypergraph  # noqa: F401  (bench/tracer.py wraps this binding)
from .decomp import validate_dbd
from .digraph import (
    Digraph,
    _bfs_arcs,
    all_subsets,
    is_strongly_connected,
    strong_component_of,
    strong_components,
)
from .errors import InstanceTooLarge
from .hypergraph import _vertex_components, two_section

GAME_SIZE_LIMIT = 20_000_000


def _components_avoiding(d: Digraph, removed) -> tuple[frozenset, ...]:
    """Strong components of d minus the removed vertices, sorted by least vertex."""
    return tuple(sorted(strong_components(d, removed), key=min))


def _robber_options(d: Digraph, old_cops, old_robber, new_cops, comps) -> tuple[frozenset, ...]:
    """Components the robber may occupy after the cops move from old_cops to new_cops.

    The robber runs while only the cops in old_cops ∩ new_cops are on the
    ground, so the reachable region is the strong component of
    d - (old_cops ∩ new_cops) containing the current component.  `comps` is
    `_components_avoiding` or a memo of it; a play hands in one memo for all
    its moves.
    """
    ground = old_cops & new_cops
    region = None
    for comp in comps(d, ground):
        if old_robber <= comp:
            region = comp
            break
    assert region is not None, "robber component must survive removal of fewer cops"
    return tuple(c for c in comps(d, new_cops) if c <= region)


@dataclass(frozen=True)
class CopStrategy:
    """A positional cop strategy: where to start and, per position, where to go next.

    Positions missing from the table are losing for the cops (or unreachable
    when the strategy is sound).  Every prescribed cop set respects `budget`.
    """

    budget: int
    initial: frozenset
    table: dict = field(default_factory=dict)

    def next_cops(self, cops: frozenset, robber: frozenset) -> Optional[frozenset]:
        return self.table.get((cops, robber))


@dataclass(frozen=True)
class GameResult:
    cops_win: bool
    strategy: Optional[CopStrategy]


def _check_game_size(d: Digraph, k: int) -> None:
    n_copsets = sum(math.comb(d.n, s) for s in range(min(k, d.n) + 1))
    cost = n_copsets * n_copsets * (d.n + 1)
    if cost > GAME_SIZE_LIMIT:
        raise InstanceTooLarge(
            f"game with {d.n} vertices and {k} cops needs ~{cost} steps, over the {GAME_SIZE_LIMIT} limit"
        )


def solve_game(d: Digraph, k: int) -> GameResult:
    """Decide whether k cops catch the robber on d, with a winning strategy if so.

    Backward induction over the finite position space: a position is winning
    when some cop move leaves the robber only winning replies (none at all
    means immediate capture).  Cop moves are scanned smallest set first, so
    the recorded strategy is deterministic.
    """
    _check_game_size(d, k)
    cop_sets = list(all_subsets(range(d.n), min(k, d.n)))
    comps = cache(_components_avoiding)

    positions = []
    for x in cop_sets:
        for r in comps(d, x):
            positions.append((x, r))

    win: dict = {}
    changed = True
    while changed:
        changed = False
        for pos in positions:
            if pos in win:
                continue
            x, r = pos
            for x2 in cop_sets:
                replies = _robber_options(d, x, r, x2, comps)
                if all((x2, r2) in win for r2 in replies):
                    win[pos] = x2
                    changed = True
                    break

    for x0 in cop_sets:
        if all((x0, r0) in win for r0 in comps(d, x0)):
            table = {}
            stack = [(x0, r0) for r0 in comps(d, x0)]
            while stack:
                pos = stack.pop()
                if pos in table:
                    continue
                x2 = win[pos]
                table[pos] = x2
                for r2 in _robber_options(d, pos[0], pos[1], x2, comps):
                    stack.append((x2, r2))
            return GameResult(True, CopStrategy(budget=k, initial=x0, table=table))
    return GameResult(False, None)


def dcn_exact(d: Digraph, k_max: int) -> Optional[int]:
    """Least number of cops that catch the robber on d, or None beyond k_max."""
    for k in range(k_max + 1):
        if solve_game(d, k).cops_win:
            return k
    return None


def strategy_beats_all_robbers(d: Digraph, strategy: CopStrategy) -> bool:
    """Simulate the strategy against every robber choice; True iff always a capture.

    A play that revisits a position loops forever, so any repeat counts as a
    robber escape, as does a position the table does not cover or a cop set
    over budget.
    """
    if len(strategy.initial) > strategy.budget:
        return False
    start = strategy.initial
    status: dict = {}
    comps = cache(_components_avoiding)

    def chase(x, r, trail) -> bool:
        pos = (x, r)
        if pos in status:
            return status[pos] is True
        if pos in trail:
            return False
        x2 = strategy.next_cops(x, r)
        if x2 is None or len(x2) > strategy.budget:
            status[pos] = False
            return False
        trail.add(pos)
        ok = all(chase(x2, r2, trail) for r2 in _robber_options(d, x, r, x2, comps))
        trail.discard(pos)
        status[pos] = ok
        return ok

    return all(chase(start, r0, set()) for r0 in comps(d, start))


def play_transcript(d: Digraph, strategy: CopStrategy) -> list:
    """One complete play of the strategy, as (cops, robber) rounds ending in
    the capture (robber = ∅).

    The robber deterministically enters the available component with the
    lexicographically least vertex list.  A table hole or a repeated
    position raises, since a sound strategy admits neither.
    """
    cops = strategy.initial
    comps = cache(_components_avoiding)
    first = comps(d, cops)
    robber = min(first, key=sorted) if first else frozenset()
    moves = [(cops, robber)]
    seen = {(cops, robber)}
    while robber:
        nxt = strategy.next_cops(cops, robber)
        if nxt is None:
            raise ValueError("strategy table has no move for a reachable position")
        options = _robber_options(d, cops, robber, nxt, comps)
        cops = nxt
        robber = min(options, key=sorted) if options else frozenset()
        if (cops, robber) in seen:
            raise ValueError("strategy loops on a reachable position")
        seen.add((cops, robber))
        moves.append((cops, robber))
    return moves


def strategy_from_dbd(d: Digraph, dec) -> CopStrategy:
    """Turn a branch decomposition of width k into a 3k-cop strategy.

    The cops walk the decomposition tree from a leaf, always standing on the
    hitting sets of the tree edges around the current node; the robber is
    confined to one subtree because no strong component survives across a
    hit edge, and shrinking subtrees end the chase at a leaf.
    """
    if not is_strongly_connected(d):
        raise ValueError("the tree-walking strategy needs a strongly connected digraph")
    report = validate_dbd(d, dec)
    if not report.valid:
        raise ValueError("invalid branch decomposition: " + "; ".join(report.violations))

    if len(dec.nodes) == 1:
        only = dec.nodes[0]
        return CopStrategy(budget=1, initial=frozenset({dec.leaf_label[only]}), table={})

    # validate_dbd accepted each edge set as a minimum hitting set of the
    # cycles crossing its edge, which is all the walk needs.
    hits = dec.edge_sets
    budget = max(3 * dec.width(), 1)

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


@dataclass(frozen=True)
class Haven:
    """An order-k haven: a large-side assignment h(X) for every cop set |X| < k.

    h(X) is a strong component of d - X, and Y ⊆ X implies h(X) ⊆ h(Y).
    """

    order: int
    assignment: dict


def verify_haven(d: Digraph, hav: Haven) -> bool:
    """Exhaustively check the haven conditions for every X with |X| < order.

    h(X) is a strong component of d - X exactly when it is a non-empty vertex
    set missing X that equals the strong component of d - X holding its least
    vertex, so each entry costs one walk, not a condensation of d - X.
    """
    for x in all_subsets(range(d.n), min(hav.order - 1, d.n)):
        if x not in hav.assignment:
            return False
        h = hav.assignment[x]
        if not h or not h <= d.vertex_set or not h.isdisjoint(x):
            return False
        if strong_component_of(d, min(h), x) != h:
            return False
    return haven_is_monotone(d, hav)


def haven_is_monotone(d: Digraph, hav: Haven) -> bool:
    """Whether Y ⊆ X implies h(X) ⊆ h(Y) for every cop set |X| < order.

    Every such X must have an entry; `verify_haven` checks that first.
    """
    h = hav.assignment
    return all(
        h[x] <= h[y]
        for x in all_subsets(range(d.n), min(hav.order - 1, d.n))
        for y in all_subsets(sorted(x), len(x))
    )


def _within_cyclic_window(indices, ell: int) -> bool:
    """True when the index set fits inside two cyclically consecutive slots."""
    if not indices:
        return True
    pool = set(indices)
    return any(pool <= {start, (start + 1) % ell} for start in range(ell))


def haven_from_closed_chain(ch: CycleHypergraph, chain: CycleChain) -> Haven:
    """Build an order-3 haven on ch.host from a closed chain of at least three
    of ch's cycles.

    Two cops touch at most two consecutive chain cycles each.  If the touched
    cycles fit one window of two consecutive positions, the untouched cycles
    stay cyclically consecutive and strongly connected, and the haven points
    there.  Otherwise some junction vertex between two consecutive cycles is
    missed by every single cop, and the haven follows that junction.
    """
    d = ch.host
    if not chain.closed or len(chain.cycles) < 3:
        raise ValueError("need a closed chain of at least three cycles")
    if any(i < 0 or i >= len(ch.hyperedges) for i in chain.cycles):
        raise ValueError("chain refers to cycles the digraph does not have")
    sets = [ch.hyperedges[i] for i in chain.cycles]
    ell = len(sets)
    for a in range(ell):
        for b in range(a + 1, ell):
            touching = b == a + 1 or (a == 0 and b == ell - 1)
            if touching and not sets[a] & sets[b]:
                raise ValueError("consecutive chain cycles must intersect")
            if not touching and sets[a] & sets[b]:
                raise ValueError("non-consecutive chain cycles must be disjoint")
    if ell == 3 and sets[0] & sets[1] & sets[2]:
        raise ValueError("a three-cycle chain may not have a common vertex")

    junctions = [min(sets[i - 1] & sets[i]) for i in range(ell)]

    assignment = {}
    for s in all_subsets(range(d.n), 2):
        comps = _components_avoiding(d, s)
        covered = [i for i in range(ell) if sets[i] & s]
        if _within_cyclic_window(covered, ell):
            uncovered = [i for i in range(ell) if not sets[i] & s]
            target = next(c for c in comps if sets[uncovered[0]] <= c)
            assert all(sets[i] <= target for i in uncovered), "untouched chain cycles split apart"
            assignment[s] = target
        else:
            good = None
            for h in range(ell):
                if all(not (v in sets[h - 1] and v in sets[h]) for v in s):
                    good = h
                    break
            assert good is not None, "two cops block every junction"
            junction = junctions[good]
            assignment[s] = next(c for c in comps if junction in c)
    hav = Haven(3, assignment)
    assert verify_haven(d, hav), "closed chain produced a defective haven"
    return hav


def haven_from_minor(d: Digraph, branch_sets: dict, roots: dict) -> Haven:
    """Lift the order-3 haven of Bicycle(k) or A4 to d through a minor of it.

    roots[p] lies in branch_sets[p], and root(P) reaches root(Q) inside P ∪ Q
    for every pattern edge P -> Q.  h(X) is the strong component of d - X
    holding roots[p] for the least p whose branch set misses X, found by one
    walk from that root, so the table costs one walk per cop set.  The
    pattern stays strongly connected without any one vertex, so for |Y| ≤ 1
    the roots of the sets missing Y share a strong component of d - Y: h is
    monotone.

    Nothing is checked here: each entry is a strong component of d - X by
    construction, and `haven_is_monotone` or `verify_haven` checks the rest.
    `check.minor_haven_is_monotone` gives `haven_is_monotone`'s verdict on
    this table without building it, in six linear sweeps of d where this
    takes one walk per cop set.
    """
    order = sorted(branch_sets)
    assignment = {}
    for x in all_subsets(range(d.n), 2):
        p = next(p for p in order if branch_sets[p].isdisjoint(x))
        assignment[x] = strong_component_of(d, roots[p], x)
    return Haven(3, assignment)


def is_k_linked(d: Digraph, w, k: int) -> bool:
    """True when every vertex set of size at most k leaves a strong component
    holding a strict majority of w."""
    w = frozenset(w)
    for s in all_subsets(range(d.n), min(k, d.n)):
        comps = _components_avoiding(d, s)
        if not any(2 * len(c & w) > len(w) for c in comps):
            return False
    return True


def hyper_components(h, removed) -> tuple[frozenset, ...]:
    """Connected components of the hypergraph after deleting the removed vertices."""
    alive = [v for v in h.vertices if v not in removed]
    return tuple(_vertex_components(two_section(h).adjacency, alive))


def is_k_hyperlinked(h, w, k: int) -> bool:
    """True when every set of fewer than k hyperedges leaves a component
    meeting a strict majority of the hyperedges in w."""
    w = tuple(sorted(set(w)))
    if k <= 0:
        return True
    for s in all_subsets(range(len(h.edges)), min(k - 1, len(h.edges))):
        removed = frozenset()
        for i in s:
            removed |= h.edges[i]
        comps = hyper_components(h, removed)
        if not any(2 * sum(1 for i in w if h.edges[i] & c) > len(w) for c in comps):
            return False
    return True
