"""Acceptance experiment drivers.

Each criterion runs a self-contained exhaustive or randomized study tying
together the recogniser, the hypergraph routes, the decomposition
conversions and the robber game, and reports counts plus any failures.
Instances over an enumeration cap count as skipped, never as failed.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from .check import validate_dtd, verify_certificate
from .cycles import (
    DEFAULT_CYCLE_CAP,
    cut,
    cycle_hypergraph,
    min_hitting_set,
    strongly_connected_via_chains,
)
from .decomp import (
    BranchDecomposition,
    dtd_to_dbd,
    dtd_to_ghd,
    exact_hbw,
    exact_hw,
    optimal_branch_decomposition,
    validate_dbd,
    validate_ghd,
)
from .digraph import (
    a4_digraph,
    bicycle,
    bidirect,
    digraph_from_edges,
    directed_cycle_digraph,
    is_strongly_connected,
    strong_components,
)
from .dtw1 import extract_minor_witness, hypertree_route, recognize_dtw1, verify_witness
from .errors import CapExceeded, InstanceTooLarge
from .games import (
    dcn_exact,
    haven_from_minor,
    hyper_components,
    is_k_hyperlinked,
    is_k_linked,
    solve_game,
    strategy_beats_all_robbers,
    strategy_from_dbd,
    verify_haven,
)
from .hypergraph import (
    dual,
    has_helly,
    hypergraph_from_edges,
    hypertree_witness,
    is_alpha_acyclic,
    is_chordal,
    is_conformal,
    line_graph,
    two_section,
)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    checked: int
    skipped: int
    seconds: float
    failures: tuple = ()


class _Tally:
    """Running counts while a criterion works through its instances."""

    def __init__(self):
        self.checked = 0
        self.skipped = 0
        self.failures = []

    def ok(self):
        self.checked += 1

    def skip(self):
        self.skipped += 1

    def fail(self, message):
        self.checked += 1
        self.failures.append(message)


def _result(index, name, tally, t0):
    return CriterionResult(
        index=index,
        name=name,
        passed=not tally.failures,
        checked=tally.checked,
        skipped=tally.skipped,
        seconds=time.perf_counter() - t0,
        failures=tuple(tally.failures),
    )


def _describe(d):
    return f"digraph n={d.n} edges={sorted(d.edges)}"


# ------------------------------------------------------- instance generators


def labeled_strongly_connected(n):
    """All labeled strongly connected digraphs on exactly n vertices."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
        d = digraph_from_edges(n, edges)
        if is_strongly_connected(d):
            yield d


def random_strongly_connected(rng, n, p):
    """A random Hamiltonian cycle plus density-p extra arcs, so the result
    is strongly connected by construction."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)}
    for u in range(n):
        for v in range(n):
            if u != v and (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return digraph_from_edges(n, edges)


def random_digraph(rng, n, p):
    edges = [
        (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
    ]
    return digraph_from_edges(n, edges)


def random_hypergraph(rng, max_vertices, max_edges):
    nv = rng.randint(1, max_vertices)
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        e = frozenset(v for v in range(nv) if rng.random() < 0.5)
        edges.append(e if e else frozenset({rng.randrange(nv)}))
    return hypergraph_from_edges(edges)


def bidirected_path(n):
    """The path 0 - 1 - ... - n-1, every edge a digon."""
    return bidirect(n, [(v - 1, v) for v in range(1, n)])


def bidirected_star(n):
    """The star with centre 0, every edge a digon."""
    return bidirect(n, [(0, v) for v in range(1, n)])


def bidirected_caterpillar(n):
    """A spine 0 - 1 - ... of (n + 1) // 2 vertices, and the other vertices
    each a leaf on its own spine vertex, every edge a digon."""
    spine = (n + 1) // 2
    legs = [(v - spine, v) for v in range(spine, n)]
    return bidirect(n, [(v - 1, v) for v in range(1, spine)] + legs)


def bidirected_spider(n):
    """Three legs from centre 0, vertex v joining v - 3 (or 0), every edge a
    digon."""
    return bidirect(n, [(max(v - 3, 0), v) for v in range(1, n)])


def plus_triangle(d):
    """d plus the digon between the two least neighbours of its least
    vertex with two: on a bidirected tree, NO by a bidirected triangle."""
    v = next(v for v in range(d.n) if len(d.out_neighbours(v)) >= 2)
    a, c = d.out_neighbours(v)[:2]
    return digraph_from_edges(d.n, d.edges | {(a, c), (c, a)})


def bicycle_with_chord(k):
    """`Bicycle(k)` plus the chord 0 -> k // 2, for k >= 4: NO."""
    return digraph_from_edges(k, bicycle(k).edges | {(0, k // 2)})


def tournament_with_back_path(n):
    """The transitive tournament i -> j for i < j, plus the back path
    i + 1 -> i: YES, with about n^2 / 2 edges."""
    edges = [(i, j) for j in range(n) for i in range(j)]
    return digraph_from_edges(n, edges + [(v, v - 1) for v in range(1, n)])


TREE_SHAPES = {
    "path": bidirected_path,
    "star": bidirected_star,
    "caterpillar": bidirected_caterpillar,
    "spider": bidirected_spider,
}


def shape_families(n):
    """The fixed shape families at n >= 4 vertices, as (label, digraph,
    verdict): each bidirected tree shape (YES) and the same plus a triangle
    (NO), `Bicycle(n)` with its chord (NO), and the transitive tournament
    plus its back path (YES)."""
    for shape, build in TREE_SHAPES.items():
        tree = build(n)
        yield shape, tree, "YES"
        yield f"{shape}+triangle", plus_triangle(tree), "NO"
    yield "bicycle+chord", bicycle_with_chord(n), "NO"
    yield "tournament+back-path", tournament_with_back_path(n), "YES"


_ISO_CLASS_COUNTS = {1: 1, 2: 1, 3: 5, 4: 83, 5: 5048}


def strongly_connected_up_to_iso(n):
    """The strongly connected digraphs on n vertices (n ≤ 5), one per
    isomorphism class, in increasing order of edge code.

    Bit k of a digraph's edge code is its k-th ordered pair. The codes are
    walked in increasing order, so the first one not yet seen is the least
    of its orbit, the class's canonical form (Read's orderly generation);
    its n! relabellings are then marked seen, and it is kept if strongly
    connected. That is one connectivity test per class, not per labelled
    digraph."""
    assert 1 <= n <= 5, "isomorphism-class enumeration is sized for n <= 5"
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    position = {p: k for k, p in enumerate(pairs)}
    relabellings = [
        [1 << position[(perm[i], perm[j])] for (i, j) in pairs]
        for perm in itertools.permutations(range(n))
    ]
    seen = bytearray(1 << len(pairs))
    out = []
    for code in range(1 << len(pairs)):
        if not seen[code]:
            bits = [k for k in range(len(pairs)) if code >> k & 1]
            for weights in relabellings:
                seen[sum(weights[k] for k in bits)] = 1
            d = digraph_from_edges(n, [pairs[k] for k in bits])
            if is_strongly_connected(d):
                out.append(d)
    assert len(out) == _ISO_CLASS_COUNTS[n], "unexpected isomorphism-class count"
    return out


def equivalence_corpus(seed):
    """Instances of the equivalence criteria: every labeled strongly
    connected digraph on 2-4 vertices, then the 300 random ones."""
    for n in (2, 3, 4):
        yield from labeled_strongly_connected(n)
    yield from random_equivalence_instances(seed)


def random_equivalence_instances(seed):
    """300 random strongly connected digraphs on 5-6 vertices, sweeping the
    extra-edge probability over 0.2, 0.4 and 0.6."""
    rng = random.Random(seed)
    for i in range(300):
        n = 5 + (i % 2)
        p = (0.2, 0.4, 0.6)[(i // 2) % 3]
        yield random_strongly_connected(rng, n, p)


def _recognized(shared, d):
    if shared is None:
        return recognize_dtw1(d)
    if d not in shared:
        shared[d] = recognize_dtw1(d)
    return shared[d]


# -------------------------------------------------- exhaustive branch width


def exhaustive_optimal_dbd(d, ch) -> BranchDecomposition:
    """An optimal directed branch decomposition: the exhaustive search
    `decomp.optimal_branch_decomposition` over d's vertices, where a tree
    edge's set is a minimum hitting set of the cycles crossing it."""
    return optimal_branch_decomposition(d.n, lambda side: min_hitting_set(ch, cut(ch, side)))


def exhaustive_dbw(d, ch) -> int:
    """Exact directed branch width over all subcubic tree shapes."""
    return exhaustive_optimal_dbd(d, ch).width()


# ---------------------------------------------------------------- criteria


def _haven_holds(d, cert) -> bool:
    """Whether the haven a NO certificate's rooted sets give passes the full
    `verify_haven`, one walk per entry on top of the walk building it."""
    rooted = cert.rooted_sets
    return verify_haven(d, haven_from_minor(d, rooted.sets, rooted.roots))


def _minor_replays(d, cert) -> bool:
    """Whether the recogniser's butterfly minor of a NO digraph replays
    (`verify_witness`), and its branch sets 0, 1 and 2 are the
    certificate's rooted sets: the certificate does not carry the minor,
    so it is checked here."""
    witness = extract_minor_witness(d)
    sets = {p: witness.branch_sets[p] for p in range(3)}
    return verify_witness(d, witness).valid and cert.rooted_sets.sets == sets


def _three_way_check(d, tally, cap, shared):
    """One equivalence instance: recogniser vs hypertree route, plus the
    certified dtd, the minor's replay and the full `verify_haven` check of
    the haven the rooted sets give, which `verify_certificate`'s check
    without a table must match; returns the certificate (or None when the
    instance was skipped)."""
    try:
        cert = _recognized(shared, d)
        route = hypertree_route(d, cap)
    except (CapExceeded, InstanceTooLarge):
        tally.skip()
        return None
    problems = []
    if (cert.verdict == "YES") != route.is_hypertree:
        problems.append("recogniser and hypertree route disagree")
    if cert.verdict == "YES":
        report = validate_dtd(d, cert.decomposition)
        if not (report.valid and report.width <= 1):
            problems.append("YES decomposition does not validate at width 1")
        if route.is_hypertree and route.decomposition is not None:
            back = validate_dtd(d, route.decomposition)
            if not (back.valid and back.width <= 1):
                problems.append("hypertree-route decomposition invalid")
    else:
        if cert.rooted_sets is None or not _minor_replays(d, cert):
            problems.append("NO witness fails replay")
        else:
            holds = _haven_holds(d, cert)
            if verify_certificate(d, cert).valid != holds:
                problems.append("verify_certificate and verify_haven disagree")
            if not holds:
                problems.append("NO haven fails verification")
    if problems:
        tally.fail(_describe(d) + ": " + "; ".join(problems))
    else:
        tally.ok()
    return cert


def criterion_1(seed=0, cycle_cap=DEFAULT_CYCLE_CAP, shared=None):
    """Recogniser, hypertree route and certificates agree on every labeled
    strongly connected digraph with 2-4 vertices."""
    t0 = time.perf_counter()
    tally = _Tally()
    for n in (2, 3, 4):
        for d in labeled_strongly_connected(n):
            _three_way_check(d, tally, cycle_cap, shared)
    if tally.checked + tally.skipped != 1625:
        tally.fail(f"expected 1625 instances, saw {tally.checked + tally.skipped}")
    return _result(1, "equivalence, exhaustive 2-4 vertices", tally, t0)


def criterion_2(seed=0, cycle_cap=DEFAULT_CYCLE_CAP, shared=None):
    """The same agreement on 300 random strongly connected digraphs with
    5-6 vertices across three edge probabilities."""
    t0 = time.perf_counter()
    tally = _Tally()
    for d in random_equivalence_instances(seed):
        _three_way_check(d, tally, cycle_cap, shared)
    return _result(2, "equivalence, randomized 5-6 vertices", tally, t0)


def criterion_3(seed=0, cycle_cap=DEFAULT_CYCLE_CAP, shared=None):
    """Two cops lose on every exhaustive NO instance, whose rooted sets give
    an order-3 haven."""
    t0 = time.perf_counter()
    tally = _Tally()
    for n in (2, 3, 4):
        for d in labeled_strongly_connected(n):
            cert = _recognized(shared, d)
            if cert.verdict != "NO":
                continue
            if not _haven_holds(d, cert):
                tally.fail(_describe(d) + ": NO haven fails verification")
            elif solve_game(d, 2).cops_win:
                tally.fail(_describe(d) + ": two cops win despite the haven")
            else:
                tally.ok()
    return _result(3, "two cops lose on every NO instance", tally, t0)


def criterion_4(seed=0, cycle_cap=DEFAULT_CYCLE_CAP, shared=None):
    """Exhaustive directed branch width equals exhaustive hyperbranch width
    of the dual cycle hypergraph on all strongly connected digraphs with at
    most 5 vertices and at most 12 cycles, one per isomorphism class."""
    t0 = time.perf_counter()
    tally = _Tally()
    for n in range(1, 6):
        for d in strongly_connected_up_to_iso(n):
            try:
                ch = cycle_hypergraph(d, 12)
            except CapExceeded:
                continue  # outside the stated corpus, not a skip
            if len(ch.cycles) > cycle_cap:
                tally.skip()
                continue
            dbw = exhaustive_dbw(d, ch)
            result = exact_hbw(dual(ch.as_hypergraph()), max(d.n, 1))
            if result is None or result[0] != dbw:
                got = None if result is None else result[0]
                tally.fail(_describe(d) + f": dbw={dbw} but dual hbw={got}")
            else:
                tally.ok()
    return _result(4, "exact dbw equals dual hbw (≤5 vertices, ≤12 cycles)", tally, t0)


def criterion_5(seed=0, cycle_cap=DEFAULT_CYCLE_CAP, shared=None):
    """Every width-1 decomposition from the equivalence corpus converts to a
    directed branch decomposition of validated width at most 2."""
    t0 = time.perf_counter()
    tally = _Tally()
    for d in equivalence_corpus(seed):
        cert = _recognized(shared, d)
        if cert.verdict != "YES":
            continue
        try:
            dbd = dtd_to_dbd(d, cert.decomposition, cycle_cap)
            report = validate_dbd(d, dbd, cap=cycle_cap)
        except (CapExceeded, InstanceTooLarge):
            tally.skip()
            continue
        if report.valid and report.width <= 2:
            tally.ok()
        else:
            tally.fail(
                _describe(d)
                + f": converted dbd invalid or too wide ({report.violations}, width={report.width})"
            )
    return _result(5, "width-1 dtd converts to dbd of width ≤ 2", tally, t0)


def criterion_6(seed=0, cycle_cap=DEFAULT_CYCLE_CAP, shared=None):
    """dtd_to_ghd output validates over the dual cycle hypergraph with width
    at most the decomposition width plus one, on every suite dtd."""
    t0 = time.perf_counter()
    tally = _Tally()
    for d in equivalence_corpus(seed):
        cert = _recognized(shared, d)
        if cert.verdict != "YES":
            continue
        try:
            width_in = validate_dtd(d, cert.decomposition).width
            ghd = dtd_to_ghd(d, cert.decomposition, cycle_cap)
            ground = dual(cycle_hypergraph(d, cycle_cap).as_hypergraph())
        except (CapExceeded, InstanceTooLarge):
            tally.skip()
            continue
        report = validate_ghd(ground, ghd)
        if report.valid and report.width <= width_in + 1:
            tally.ok()
        else:
            tally.fail(
                _describe(d)
                + f": ghd invalid or too wide ({report.violations}, width={report.width})"
            )
    return _result(6, "dtd converts to ghd of width ≤ k+1", tally, t0)


def criterion_7(seed=0, cycle_cap=DEFAULT_CYCLE_CAP, shared=None):
    """The tree-walking cop strategy from any width-k branch decomposition
    (k ∈ {1,2}) beats the exhaustive robber within 3k cops."""
    t0 = time.perf_counter()
    tally = _Tally()
    for d in equivalence_corpus(seed):
        try:
            cert = _recognized(shared, d)
            if cert.verdict == "YES":
                dbd = dtd_to_dbd(d, cert.decomposition, cycle_cap)
            else:
                dbd = exhaustive_optimal_dbd(d, cycle_hypergraph(d, cycle_cap))
        except (CapExceeded, InstanceTooLarge):
            tally.skip()
            continue
        k = dbd.width()
        if k not in (1, 2):
            continue  # only width-1 and width-2 decompositions are in scope
        try:
            strategy = strategy_from_dbd(d, dbd)
        except InstanceTooLarge:
            tally.skip()
            continue
        if strategy.budget > 3 * k:
            tally.fail(_describe(d) + f": budget {strategy.budget} exceeds 3k={3 * k}")
        elif not strategy_beats_all_robbers(d, strategy):
            tally.fail(_describe(d) + ": robber escapes the tree-walking strategy")
        else:
            tally.ok()
    return _result(7, "dbd strategy beats the robber within 3k cops", tally, t0)


def criterion_8(seed=0, cycle_cap=DEFAULT_CYCLE_CAP, shared=None):
    """Chain-of-cycles strong connectivity agrees with the standard check on
    every digraph with at most 4 vertices plus 200 random ones (n ≤ 6)."""
    t0 = time.perf_counter()
    tally = _Tally()

    def compare(d):
        try:
            via_chains = strongly_connected_via_chains(d, cycle_cap)
        except (CapExceeded, InstanceTooLarge):
            tally.skip()
            return
        if via_chains == is_strongly_connected(d):
            tally.ok()
        else:
            tally.fail(_describe(d) + ": chain oracle disagrees")

    for n in range(1, 5):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
            compare(digraph_from_edges(n, edges))
    rng = random.Random(seed)
    for _ in range(200):
        compare(random_digraph(rng, rng.randint(1, 6), rng.uniform(0.1, 0.6)))
    return _result(8, "chain-based strong connectivity oracle", tally, t0)


def criterion_9(seed=0, cycle_cap=DEFAULT_CYCLE_CAP, shared=None):
    """Component bijection between digraph and dual cycle hypergraph, and
    the linked/hyperlinked correspondence, on 200 random instances."""
    t0 = time.perf_counter()
    tally = _Tally()
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randint(2, 5)
        d = random_strongly_connected(rng, n, 0.4)
        try:
            ch = cycle_hypergraph(d, cycle_cap)
        except CapExceeded:
            tally.skip()
            continue
        h = dual(ch.as_hypergraph())
        problems = []

        s = frozenset(v for v in range(d.n) if rng.random() < 0.4)
        touched = frozenset(i for i, e in enumerate(ch.hyperedges) if e & s)
        comps = strong_components(d, s)
        image = sorted(
            (
                frozenset(i for i, e in enumerate(ch.hyperedges) if e <= comp)
                for comp in comps
                if any(e <= comp for e in ch.hyperedges)
            ),
            key=min,
        )
        direct = sorted(hyper_components(h, touched), key=min)
        if image != direct:
            problems.append(f"component bijection breaks for S={sorted(s)}")

        w = [v for v in range(d.n) if rng.random() < 0.6] or [0]
        for k in range(3):
            if is_k_linked(d, w, k) != is_k_hyperlinked(h, w, k + 1):
                problems.append(f"linked/hyperlinked mismatch for W={w}, k={k}")
        if problems:
            tally.fail(_describe(d) + ": " + "; ".join(problems))
        else:
            tally.ok()
    return _result(9, "component bijection and linked/hyperlinked", tally, t0)


def _five_way_check(h, tally, describe):
    """The hypertree characterisations must all agree: host tree existence,
    Helly plus chordal line graph, conformal dual plus chordal dual
    2-section, α-acyclic dual, and (within the exact-solver guard) dual
    hypertree width one."""
    co = dual(h)
    values = [
        hypertree_witness(h) is not None,
        has_helly(h) and is_chordal(line_graph(h)),
        is_conformal(co) and is_chordal(two_section(co)),
        is_alpha_acyclic(co),
    ]
    if len(co.vertices) + len(co.edges) <= 12:
        values.append(exact_hw(co, 1) is not None)
    if len(set(values)) > 1:
        tally.fail(f"{describe}: characterisations disagree ({values})")
    else:
        tally.ok()


def criterion_10(seed=0, cycle_cap=DEFAULT_CYCLE_CAP, shared=None):
    """The five hypertree characterisations agree on 500 random hypergraphs
    and on the cycle hypergraphs (and their duals) of the exhaustive
    equivalence corpus."""
    t0 = time.perf_counter()
    tally = _Tally()
    rng = random.Random(seed)
    for i in range(500):
        _five_way_check(random_hypergraph(rng, 6, 6), tally, f"random hypergraph {i}")
    for n in (2, 3, 4):
        for d in labeled_strongly_connected(n):
            try:
                ch = cycle_hypergraph(d, cycle_cap)
            except CapExceeded:
                tally.skip()
                continue
            if not ch.hyperedges:
                tally.skip()
                continue
            base = ch.as_hypergraph()
            _five_way_check(base, tally, _describe(d) + " cycle hypergraph")
            _five_way_check(dual(base), tally, _describe(d) + " dual")
    return _result(10, "five-way hypertree equivalence", tally, t0)


def criterion_11(seed=0, cycle_cap=DEFAULT_CYCLE_CAP, shared=None):
    """Named spot checks: the digon and the directed triangle are YES, the
    bidirected triangle and A₄ are NO with their patterns (and A₄ needs
    exactly three cops), and bidirected trees with subdivisions are YES."""
    t0 = time.perf_counter()
    tally = _Tally()

    def expect(label, check):
        try:
            ok = check()
        except (CapExceeded, InstanceTooLarge):
            tally.skip()
            return
        if ok:
            tally.ok()
        else:
            tally.fail(f"spot check failed: {label}")

    def yes_with_width_1(label, d):
        def check():
            cert = _recognized(shared, d)
            if cert.verdict != "YES":
                return False
            report = validate_dtd(d, cert.decomposition)
            return report.valid and report.width <= 1

        expect(label, check)

    yes_with_width_1("digon has directed treewidth 1", bidirect(2, [(0, 1)]))
    yes_with_width_1(
        "directed triangle has directed treewidth 1", directed_cycle_digraph(3)
    )

    def bicycle_check():
        b3 = bicycle(3)
        cert = _recognized(shared, b3)
        return (
            cert.verdict == "NO"
            and cert.rooted_sets.kind == "bicycle"
            and cert.rooted_sets.length == 3
            and _minor_replays(b3, cert)
        )

    expect("bidirected triangle is NO with a Bicycle(3) witness", bicycle_check)

    def a4_check():
        a4 = a4_digraph()
        cert = _recognized(shared, a4)
        return (
            cert.verdict == "NO"
            and cert.rooted_sets.kind == "a4"
            and _minor_replays(a4, cert)
        )

    expect("A₄ is NO with an A₄ witness", a4_check)
    expect("A₄ needs exactly three cops", lambda: dcn_exact(a4_digraph(), 3) == 3)

    trees = [
        ("bidirected path on 4", 4, [(0, 1), (1, 2), (2, 3)]),
        ("bidirected star on 4", 4, [(0, 1), (0, 2), (0, 3)]),
        (
            "bidirected subdivided star on 7",
            7,
            [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)],
        ),
        (
            "bidirected binary tree on 7",
            7,
            [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)],
        ),
        (
            "bidirected subdivided caterpillar on 8",
            8,
            [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (0, 6), (3, 7)],
        ),
    ]
    for label, n, edges in trees:
        yes_with_width_1(label + " has directed treewidth 1", bidirect(n, edges))

    return _result(11, "named-instance spot checks", tally, t0)


_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def run_all(seed=0, cycle_cap=DEFAULT_CYCLE_CAP):
    """Run every criterion in order with a shared recognition cache."""
    shared: dict = {}
    return [fn(seed=seed, cycle_cap=cycle_cap, shared=shared) for fn in _CRITERIA]
