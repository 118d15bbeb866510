"""The certificate checker, which imports nothing but `digraph`.

YES is a width-one directed tree decomposition (`validate_dtd`).  NO is a
butterfly minor `Bicycle(k)` or A4: its script is replayed once by
`_ReplayState`, which the recogniser also shrinks with, and the roots of its
branch sets give the order-3 haven (`minor_haven_is_monotone`).  A check
costs O(n + m), plus O(n log n) for the replay's class merges and a walk for
each YES arc that fails the one-way test:
- A YES guard g of an arc with the vertices s below it holds when the edges
  leaving s all end in one vertex of g, since a walk that leaves s then
  steps onto g first; or when the edges entering s all start in one vertex
  of g, since a walk that comes back to s then comes from g.  One
  bottom-up pass tests every arc so; an arc that fails takes a
  `round_trips` walk.
- The NO haven takes six `on_every_path` sweeps.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from .digraph import (
    Digraph,
    a4_digraph,
    bicycle,
    merge_into,
    round_trips,
)


@dataclass(frozen=True)
class Report:
    """Outcome of a validation: width is only reported for valid inputs."""

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


@dataclass(frozen=True)
class Dtw1Certificate:
    """The recogniser's answer with its proof.

    YES carries a width-one decomposition; NO carries a minor embedding whose
    script replays from the input digraph, which implies an order-3 haven.
    """

    verdict: str
    decomposition: DirectedTreeDecomposition | None
    witness: MinorWitness | None


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


def _roots(state: _ReplayState, branch_sets) -> dict:
    """The root of each branch set's class in a replayed state."""
    return {p: state.root[state.rep(min(cls))] for p, cls in branch_sets.items()}


def verify_witness(d: Digraph, witness: MinorWitness) -> Report:
    """Replay a minor witness against its digraph and check every claim."""
    return _replay_witness(d, witness)[0]


def _replay_witness(d: Digraph, witness: MinorWitness):
    """`verify_witness`'s report, with the replay state when the script
    replays (None otherwise)."""
    violations = []
    if witness.kind == "bicycle":
        size = witness.length
        if size is not None and not isinstance(size, int):
            return Report(False, 0, (f"bicycle witness length {size!r} is not an integer",)), None
        if size is None or size < 3:
            return Report(False, 0, ("bicycle witnesses need a length of at least three",)), None
    elif witness.kind == "a4":
        size = 4
    else:
        return Report(False, 0, (f"unknown pattern kind {witness.kind!r}",)), None
    if size > d.n:
        return Report(False, 0, ("the pattern has more vertices than the digraph",)), None
    pattern = bicycle(size) if witness.kind == "bicycle" else a4_digraph()
    if set(witness.branch_sets) != set(range(pattern.n)):
        return Report(False, 0, ("branch sets must cover the pattern's vertices",)), None
    try:
        state = replay_script(d, witness.script)
    except ValueError as err:
        return Report(False, 0, (str(err),)), None
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
    return Report(not violations, 0, tuple(violations)), state


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
    """Whether the order-3 haven lifted through the roots of a minor
    (`games.haven_from_minor`) is monotone, by six `on_every_path` sweeps of
    d, O(n + m) in all, with no table.

    Precondition: the branch sets are disjoint and nonempty, at least three
    of them, with roots[p] in branch_sets[p].  A replayed witness gives this,
    and `verify_certificate` checks the roots before it calls this.

    Write r(X) for the root of the least branch set missing X, so h(X) is
    the strong component of d - X holding r(X).  For Y ⊆ X, h(X) ⊆ h(Y)
    exactly when r(X) ∈ h(Y): h(X) is strongly connected in d - Y and holds
    r(X).  By transitivity only Y = X minus one vertex needs checking, for
    |X| ≤ 2.  Let r0, r1, r2 be the roots of the three least sets.  By the
    precondition r(X) for |X| ≤ 2 is one of them.  If y lies in the i-th of
    those sets (or in none), r({y, z}) is the least of the three other than
    the i-th and z's, and each of those sets has a vertex z; where z's set
    is y's or none of the three, r({y, z}) = r({y}), which h({y}) holds.  So
    h({y, z}) ⊆ h({y}) for every z exactly when a pair of roots fixed by y's
    slot lies in one strong component of d - y:
    - y in the least set: r1 and r2;
    - y in the second: r0 and r2;
    - y in the third or in none: r0 and r1.
    That r({y}), which is r0 or r1, lies in h(∅) follows: the third set has
    a vertex, so r0 and r1 lie in one strong component of d minus it, and so
    of d.

    No root of y's pair is y, since the sets are disjoint.  So y splits the
    pair r, s exactly when r does not reach s or s does not reach r in d, or
    y lies on every r -> s path or on every s -> r path: three pairs, two
    sweeps each.
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
    """Check a recogniser certificate end to end.

    YES certificates are validated as width-one decompositions.  A NO
    certificate's script is replayed once, for the witness checks and for
    the roots of its branch sets.  The replay makes the branch sets
    disjoint, and each root is checked to lie in its own set, which is
    `minor_haven_is_monotone`'s precondition.  The order-3 haven those
    roots give is then checked to be monotone by it: six sweeps of d, O(n +
    m) in all, with no table.  Each entry is by construction the strong
    component of d - X holding a root outside X, so monotonicity is the
    only haven condition left to check.
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
    if not minor_haven_is_monotone(d, branch_sets, roots):
        return Report(False, 0, ("haven verification failed",))
    return Report(True, 0, ())
