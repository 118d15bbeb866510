"""The certificate checker, which imports nothing but `digraph`.

YES is a width-one directed tree decomposition (`validate_dtd`).  NO is
three rooted sets, the three least branch sets of a butterfly minor
`Bicycle(k)` or A4 with their roots, which give an order-3 haven
(`verify_certificate`, `minor_haven_is_monotone`); the checker replays no
script.  A check costs O(n + m), plus a walk for each YES arc that fails
the one-way test:
- A YES guard g of an arc with the vertices s below it holds when the edges
  leaving s all end in one vertex of g, since a walk that leaves s then
  steps onto g first; or when the edges entering s all start in one vertex
  of g, since a walk that comes back to s then comes from g.  One
  bottom-up pass tests every arc so; an arc that fails takes a
  `round_trips` walk.
- The NO sets are read once each, and the haven takes six `on_every_path`
  sweeps.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from .digraph import Digraph, round_trips


@dataclass(frozen=True)
class Report:
    """Outcome of a validation.  width is the width of a valid
    decomposition, and None on every invalid report and on a valid NO
    certificate or minor witness, which has no width."""

    valid: bool
    width: int | None
    violations: tuple = ()


@dataclass(frozen=True)
class DirectedTreeDecomposition:
    """An arborescence with a vertex bag per node and a guard set per arc.

    Arcs run (parent, child), away from the root.  Bags partition the host's
    vertex set; empty bags are allowed.  The guard of an arc must hit every
    directed walk that starts and ends in the union of the bags below the arc
    and leaves that union in between.
    """

    nodes: tuple
    arcs: tuple
    bags: dict
    guards: dict

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "arcs", tuple(tuple(a) for a in self.arcs))
        object.__setattr__(
            self, "bags", {t: frozenset(b) for t, b in self.bags.items()}
        )
        object.__setattr__(
            self,
            "guards",
            {tuple(a): frozenset(g) for a, g in self.guards.items()},
        )

    @cached_property
    def _children(self):
        kids = {}
        for (p, c) in self.arcs:
            kids.setdefault(p, []).append(c)
        return {t: tuple(cs) for t, cs in kids.items()}

    def children(self, t):
        return self._children.get(t, ())

    @cached_property
    def _gammas(self):
        gammas = {t: set(self.bags[t]) for t in self.nodes}
        for a in self.arcs:
            for t in a:
                gammas[t] |= self.guards[a]
        return {t: frozenset(g) for t, g in gammas.items()}

    def gamma_at(self, t):
        """The bag together with all guards of arcs incident to t."""
        return self._gammas[t]

    def width(self):
        """max |Γ(t)|−1 over the nodes, clamped to be non-negative."""
        return max(max((len(g) - 1 for g in self._gammas.values()), default=0), 0)


def validate_dtd(d: Digraph, dec: DirectedTreeDecomposition) -> Report:
    """Check a directed tree decomposition: the arcs must form an
    arborescence, the bags must partition the vertex set, and every arc's
    guard must block all walks returning to the bags below it: with s the
    vertices below the arc and g its guard, `round_trips(d, s - g, g)` may
    not leave s.

    Most arcs pass a one-way test, O(n + m) for all arcs together:
    - if the edges leaving s all end in one vertex, and it lies in g, a
      walk that leaves s steps onto g first;
    - if the edges entering s all start in one vertex, and it lies in g, a
      walk that comes back to s comes from g.
    Either way no walk from s - g that avoids g leaves s and returns, so
    the guard holds.  An arc that fails the test, and every arc when the
    bags do not partition the vertices, gets the `round_trips` walk, which
    starts only from the vertices of s that d has: a bag may name one it
    lacks, and the partition check reports that.  The test passes only
    arcs that the walk passes, so it changes no report, only its cost.
    `_place` numbers the bags in preorder, and `_outside` finds those edges
    for every subtree at once; the edges entering are found only once an
    arc needs them.
    """
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
    # Every node has one parent at most, so a depth-first walk from the
    # root meets each node it reaches once; a node it misses lies on a
    # cycle of arcs.  up[i] is the place in `order` of order[i]'s parent.
    order, up = [], []
    stack = [(roots[0], None)]
    while stack:
        t, p = stack.pop()
        stack.extend((c, len(order)) for c in reversed(dec.children(t)))
        order.append(t)
        up.append(p)
    if len(order) != len(nodes):
        violations.append("not every node is reachable from the root")
        return Report(False, None, tuple(violations))
    bags = [dec.bags[t] for t in order]
    placed, start, span, pos = _place(d, bags, up)
    partition = pos is not None
    if partition:
        heads = _outside(bags, up, start, span, pos, d.out_neighbours)
        tails = None  # built when an arc first needs it
    else:
        violations.append("bags must partition the vertex set of the digraph")

    place = dict(zip(order, range(len(order))))
    for a in dec.arcs:
        g = dec.guards[a]
        if not g <= d.vertex_set:
            violations.append(f"guard of arc {a!r} mentions unknown vertices")
            continue
        c = place[a[1]]
        if partition:
            at = {pos[v] for v in g}
            if len(heads[c]) <= 1 and at.issuperset(heads[c]):
                continue
            if tails is None:
                tails = _outside(bags, up, start, span, pos, d.in_neighbours)
            if len(tails[c]) <= 1 and at.issuperset(tails[c]):
                continue
        s = frozenset(placed[start[c]:start[c] + span[c]])
        bad = round_trips(d, (s - g) & d.vertex_set, g) - s
        if bad:
            violations.append(
                f"guard {sorted(g)} of arc {a!r} misses a walk returning to "
                f"{sorted(s)} through vertex {min(bad)}"
            )
    if violations:
        return Report(False, None, tuple(violations))
    return Report(True, dec.width(), ())


def _place(d: Digraph, bags, up) -> tuple:
    """The bags of a depth-first preorder of a tree, up[i] the place of the
    i-th node's parent, laid out one after another: (placed, start, span,
    pos), where the vertices below the i-th node are placed[start[i]:start[i]
    + span[i]] and pos[v] is v's place in placed.  pos is None unless the
    bags partition the vertex set of d.  `validate_dtd` places its bags so,
    and `dtw1._laminar` the territories of a split tree."""
    start, placed = [], []
    for bag in bags:
        start.append(len(placed))
        placed.extend(bag)
    span = list(map(len, bags))
    for i in range(len(bags) - 1, 0, -1):
        span[up[i]] += span[i]
    pos = dict(zip(placed, range(len(placed))))
    partition = len(placed) == d.n == len(pos) and pos.keys() <= d.vertex_set
    return placed, start, span, pos if partition else None


def _outside(bags, up, start, span, pos, neighbours) -> list:
    """For the i-th node of a preorder, with bag bags[i] and parent
    up[i], the positions of the vertices outside its subtree that
    `neighbours` gives for a vertex inside it: all of them when there is at
    most one, else two or more of them.  The vertices are placed bag by bag
    in that preorder, so those of the i-th subtree hold the positions
    [start[i], start[i] + span[i]).

    Bottom-up, each node keeps the two least positions below its interval
    and the two greatest above it, and hands them to its parent.  A
    parent's interval holds its children's, so a child's least positions
    below its own interval are the ones that can still lie below the
    parent's, and likewise above.  Each vertex's neighbours are read once,
    and each node hands up at most four positions, so the pass is O(n + m).
    """
    ends = [[pos[w] for u in bag for w in neighbours(u)] for bag in bags]
    for i in range(len(bags) - 1, -1, -1):
        lo = start[i]
        hi = lo + span[i]
        low = {p for p in ends[i] if p < lo}
        if len(low) > 2:
            low = heapq.nsmallest(2, low)
        high = {p for p in ends[i] if p >= hi}
        if len(high) > 2:
            high = heapq.nlargest(2, high)
        ends[i] = [*low, *high]
        if i:
            ends[up[i]] += ends[i]
    return ends


@dataclass(frozen=True)
class RootedSets:
    """The NO half of a certificate: the pattern of a butterfly minor of the
    digraph, `Bicycle(length)` or A4, and three of the minor's branch sets,
    each with a root in it: `sets[p]` and `roots[p]` for p = 0, 1 and 2.

    The recogniser gives the branch sets of the pattern's vertices 0, 1 and
    2, each rooted at a vertex that, inside the set, every vertex with an
    edge entering the set reaches and that reaches every vertex with an
    edge leaving it.  The pattern only names what was found; the proof is
    the order-3 haven the rooted sets give (`verify_certificate`).
    """

    kind: str
    length: int | None
    sets: dict
    roots: dict


@dataclass(frozen=True)
class Dtw1Certificate:
    """The recogniser's answer with its proof: a width-one decomposition for
    YES, three rooted sets for NO."""

    verdict: str
    decomposition: DirectedTreeDecomposition | None
    rooted_sets: RootedSets | None


def on_every_path(d: Digraph, r: int, s: int):
    """The vertices other than r and s that lie on every r -> s path of d,
    or None when r does not reach s: one walk and one growing search, each
    vertex and edge read at most once by each.

    The walk finds a path P = P[0..k] from r to s.  A vertex off P is not on
    every path, so only P[c] with 0 < c < k can be.  Let R_c be the set r
    reaches without entering any of P[c..k].  P[0..c-1] is such a walk, so
    it lies in R_c; and R_c grows with c, since it avoids fewer vertices.
    P[c] lies on every r -> s path exactly when no edge leaves R_c for some
    P[j] with j > c:
    - such an edge u -> P[j] gives the path r ~> u -> P[j..k], which avoids
      P[c];
    - conversely, an r -> s path Q that avoids P[c] enters P[c+1..k] at some
      first vertex P[j]; Q before it avoids P[c..k], so it stays in R_c, and
      its edge into P[j] leaves R_c.
    So the search grows R_c into R_{c+1} by entering P[c], and keeps `far`,
    the largest j of a P[j] that an edge out of the search's set enters.
    A growing search that avoids only P[c] gets this wrong: on
    r -> a -> b -> s plus r -> b, were P = r a b s, it would enter b through
    the edge r -> b while deciding a, and so miss that b is on every path.
    """
    parent = {r: None}
    stack = [r]
    while stack and s not in parent:
        u = stack.pop()
        for w in d.out_neighbours(u):
            if w not in parent:
                parent[w] = u
                stack.append(w)
    if s not in parent:
        return None
    path = [s]
    while path[-1] != r:
        path.append(parent[path[-1]])
    path.reverse()
    pos = {v: j for j, v in enumerate(path)}
    cut = set()
    reach = {r}
    stack = [r]
    far = 0
    for c in range(1, len(path) - 1):
        while stack:
            for w in d.out_neighbours(stack.pop()):
                j = pos.get(w)
                if j is not None and j >= c:
                    far = max(far, j)
                elif w not in reach:
                    reach.add(w)
                    stack.append(w)
        if far <= c:
            cut.add(path[c])
        reach.add(path[c])
        stack.append(path[c])
    return cut


def minor_haven_is_monotone(d: Digraph, branch_sets: dict, roots: dict) -> bool:
    """Whether the order-3 haven lifted through the roots of a minor's
    branch sets (`games.haven_from_minor`) is monotone, by six
    `on_every_path` sweeps of d, O(n + m) in all, with no table.

    Precondition: the branch sets are disjoint and non-empty, at least three
    of them, with roots[p] in branch_sets[p].  `verify_certificate` checks
    it first, and its docstring proves what follows.  With r0, r1 and r2
    the roots of the three least sets, the haven is monotone exactly when
    each vertex y leaves a pair of them, fixed by y's set, in one strong
    component of d - y:
    - y in the least set: r1 and r2;
    - y in the second: r0 and r2;
    - y in the third or in none: r0 and r1.
    No root of y's pair is y, since the sets are disjoint.  So y splits the
    pair r, s exactly when r does not reach s or s does not reach r in d,
    or y lies on every r -> s path or on every s -> r path: three pairs,
    two sweeps each.
    """
    least = sorted(branch_sets)[:3]
    slot = {v: i for i, p in enumerate(least) for v in branch_sets[p]}
    r0, r1, r2 = (roots[p] for p in least)
    for i, (r, s) in enumerate(((r1, r2), (r0, r2), (r0, r1))):
        there, back = on_every_path(d, r, s), on_every_path(d, s, r)
        if there is None or back is None:
            return False
        if any(slot.get(y, 2) == i for y in there | back):
            return False
    return True


def verify_certificate(d: Digraph, cert: Dtw1Certificate) -> Report:
    """Check a recogniser certificate end to end, in O(n + m) either way.

    YES certificates are validated as width-one decompositions, and a
    valid one reports its width; a NO report, and every invalid one,
    carries None.  The recogniser runs this check on its own answer.  A NO
    certificate is three rooted sets, and its check replays nothing and
    builds no pattern.  The pattern must be well formed: a bicycle of
    length three or more, or A4, with no more vertices than d.  It names
    the minor the recogniser found and proves nothing.  Four things are
    checked:
    - there are exactly three sets, numbered 0, 1 and 2;
    - they are non-empty and pairwise disjoint sets of vertices of d;
    - each root lies in its own set;
    - `minor_haven_is_monotone`'s six sweeps pass.

    Sound.  Take sets that are disjoint and non-empty, at least three of
    them, each holding its root; the check reads the three least.  For
    |X| ≤ 2, let r(X) be the root of the least set that misses X, one of
    the three least, and h(X) the strong component of d - X holding r(X),
    which is not in X.  Each h(X) is a non-empty strong component of d - X,
    so h is a haven of order 3 exactly when it is monotone, and a haven of
    order 3 gives dtw(d) ≥ 2 (Johnson, Robertson, Seymour and Thomas,
    *Directed tree-width*, JCTB 82(1), 2001).  For Y ⊆ X, h(X) ⊆ h(Y)
    exactly when r(X) ∈ h(Y): h(X) is strongly connected in d - Y and holds
    r(X).  By transitivity only Y = X minus one vertex needs checking, for
    |X| ≤ 2.  Let r0, r1, r2 be the roots of the three least sets.  If y
    lies in the i-th of those sets (or in none), r({y, z}) is the least of
    the three other than the i-th and z's, and each of those sets has a
    vertex z; where z's set is y's or none of the three, r({y, z}) =
    r({y}), which h({y}) holds.  So h({y, z}) ⊆ h({y}) for every z exactly
    when the pair of roots that `minor_haven_is_monotone` fixes by y's set
    lies in one strong component of d - y.  That r({y}), which is r0 or r1,
    lies in h(∅) follows: the third set has a vertex, so r0 and r1 lie in
    one strong component of d minus it, and so of d.

    Complete.  The recogniser roots the branch sets of a butterfly minor
    Bicycle(k) or A4 so that root(P) reaches root(Q) inside P ∪ Q for every
    pattern edge P -> Q, and `games.haven_from_minor` shows that the haven
    such roots give is monotone.
    """
    if cert.verdict == "YES":
        if cert.decomposition is None:
            return Report(False, None, ("a YES certificate needs a decomposition",))
        report = validate_dtd(d, cert.decomposition)
        if report.valid and report.width > 1:
            return Report(False, None, ("decomposition is wider than one",))
        return report
    if cert.verdict != "NO":
        return Report(False, None, (f"unknown verdict {cert.verdict!r}",))
    rooted = cert.rooted_sets
    if rooted is None:
        return Report(False, None, ("a NO certificate needs three rooted sets",))
    problem = _pattern_problem(d, rooted) or _rooted_set_problem(d, rooted)
    if problem:
        return Report(False, None, (problem,))
    if not minor_haven_is_monotone(d, rooted.sets, rooted.roots):
        return Report(False, None, ("haven verification failed",))
    return Report(True, None, ())


def _pattern_problem(d: Digraph, claim):
    """What is wrong with the form of the pattern a NO certificate (or any
    claim with its `kind` and `length`) names, or None."""
    if claim.kind == "a4":
        size = 4
    elif claim.kind != "bicycle":
        return f"unknown pattern kind {claim.kind!r}"
    elif claim.length is not None and not isinstance(claim.length, int):
        return f"bicycle witness length {claim.length!r} is not an integer"
    elif claim.length is None or claim.length < 3:
        return "bicycle witnesses need a length of at least three"
    else:
        size = claim.length
    if size > d.n:
        return "the pattern has more vertices than the digraph"
    return None


def _rooted_set_problem(d: Digraph, rooted: RootedSets):
    """What keeps a NO certificate's rooted sets from meeting
    `minor_haven_is_monotone`'s precondition, or None, in time linear in
    the sizes of the sets."""
    if set(rooted.sets) != {0, 1, 2} or set(rooted.roots) != {0, 1, 2}:
        return "a NO certificate needs three rooted sets, numbered 0, 1 and 2"
    seen = set()
    for p in range(3):
        try:
            members = frozenset(rooted.sets[p])
        except TypeError:
            return f"rooted set {p} is not a set of vertices"
        if not members:
            return f"rooted set {p} is empty"
        if not all(isinstance(v, int) and 0 <= v < d.n for v in members):
            return f"rooted set {p} names an unknown vertex"
        root = rooted.roots[p]
        if not (isinstance(root, int) and root in members):
            return f"rooted set {p} does not hold its root"
        if not seen.isdisjoint(members):
            return "rooted sets must be pairwise disjoint"
        seen |= members
    return None
