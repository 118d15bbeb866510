"""The certificate checker, which imports nothing but `digraph`.

YES is a width-one directed tree decomposition (`validate_dtd`).  NO is a
butterfly minor `Bicycle(k)` or A4: its script is replayed once by
`_ReplayState`, which the recogniser also shrinks with, and the roots of its
branch sets give the order-3 haven (`minor_haven_is_monotone`).  One walk,
`round_trips`, serves the YES guards and the NO haven.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .digraph import (
    Digraph,
    _bfs_arcs,
    a4_digraph,
    bicycle,
    merge_into,
    round_trips,
    strong_component_of,
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

    def subtree_nodes(self, t):
        return tuple(_bfs_arcs(t, self.children)[0])

    def subtree_vertices(self, t):
        return frozenset().union(*(self.bags[s] for s in self.subtree_nodes(t)))

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
    not leave s."""
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
    order = dec.subtree_nodes(roots[0])
    if len(order) != len(nodes):
        violations.append("not every node is reachable from the root")
        return Report(False, None, tuple(violations))
    # The arcs form an arborescence now, so each node's children come after
    # it in the walk's order, and every subtree's vertices build bottom-up.
    below = {}
    for t in reversed(order):
        below[t] = dec.bags[t].union(*map(below.__getitem__, dec.children(t)))

    placed = [v for t in nodes for v in dec.bags[t]]
    if len(placed) != d.n or set(placed) != d.vertex_set:
        violations.append("bags must partition the vertex set of the digraph")

    for a in dec.arcs:
        s = below[a[1]]
        g = dec.guards[a]
        if not g <= d.vertex_set:
            violations.append(f"guard of arc {a!r} mentions unknown vertices")
            continue
        bad = round_trips(d, s - g, g) - s
        if bad:
            violations.append(
                f"guard {sorted(g)} of arc {a!r} misses a walk returning to "
                f"{sorted(s)} through vertex {min(bad)}"
            )
    if violations:
        return Report(False, None, tuple(violations))
    return Report(True, dec.width(), ())


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
    is its smallest label.  The current digraph lives on the representatives
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


def minor_haven_is_monotone(d: Digraph, branch_sets: dict, roots: dict) -> bool:
    """Whether the order-3 haven lifted through the roots of a minor
    (`games.haven_from_minor`) is monotone, by one walk of d and one of
    d - y for each vertex y, with no table.

    Write r(X) for the root of the least branch set missing X, so h(X) is
    the strong component of d - X holding r(X).  For Y ⊆ X, h(X) ⊆ h(Y)
    exactly when r(X) ∈ h(Y): h(X) is strongly connected in d - Y and holds
    r(X).  By transitivity only Y = X minus one vertex needs checking.

    The branch sets must be disjoint and nonempty, at least three of them,
    with roots[p] in branch_sets[p], as a replayed witness guarantees.  Then
    r(X) for |X| ≤ 2 is the root of one of the three least sets.  If y lies
    in the i-th of them (or in none), r({y, z}) is the root of the least of
    the three other than the i-th and z's, and each of those sets has a
    vertex z; where z's set is y's or none of the three, r({y, z}) = r({y}),
    which h({y}) holds.
    """
    least = sorted(branch_sets)[:3]
    slot = {v: i for i, p in enumerate(least) for v in branch_sets[p]}

    def root_missing(*slots):
        return roots[least[min({0, 1, 2}.difference(slots))]]

    whole = strong_component_of(d, root_missing(), ())
    for y in range(d.n):
        i = slot.get(y)
        if root_missing(i) not in whole:
            return False
        h = strong_component_of(d, root_missing(i), {y})
        if any(root_missing(i, j) not in h for j in range(3)):
            return False
    return True


def verify_certificate(d: Digraph, cert: Dtw1Certificate) -> Report:
    """Check a recogniser certificate end to end.

    YES certificates are validated as width-one decompositions.  A NO
    certificate's script is replayed once, for the witness checks and for
    the roots of its branch sets.  The order-3 haven those roots give is
    then checked to be monotone by `minor_haven_is_monotone`: one walk of d
    and one of d - y for each vertex y, n + 1 walks in all, with no table.
    Each entry is by construction the strong component of d - X holding a
    root outside X, so monotonicity is the only haven condition left to
    check.
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
