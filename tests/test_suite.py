"""Unit checks for the experiment drivers: corpus generators and the
exhaustive branch-width oracle they rely on."""

from __future__ import annotations

import itertools
import random
import subprocess
import sys

import pytest

from dtwone import suite
from dtwone.check import Report, verify_certificate
from dtwone.cycles import cycle_hypergraph
from dtwone.decomp import _tree_sides
from dtwone.digraph import (
    bicycle,
    digraph_from_edges,
    directed_cycle_digraph,
    is_strongly_connected,
)
from dtwone.dtw1 import hypertree_route, recognize_dtw1
from dtwone.errors import InstanceTooLarge
from dtwone.suite import (
    exhaustive_dbw,
    exhaustive_optimal_dbd,
    labeled_strongly_connected,
    random_hypergraph,
    random_strongly_connected,
    strongly_connected_up_to_iso,
)
from test_cli import source_env


def orbit_codes(d):
    """The edge codes of d's n! relabellings, bit k standing for the k-th
    ordered pair (i, j), i ≠ j, in row-major order; the identity first."""
    pairs = [(i, j) for i in range(d.n) for j in range(d.n) if i != j]
    bit = {p: 1 << k for k, p in enumerate(pairs)}
    for perm in itertools.permutations(range(d.n)):
        yield sum(bit[(perm[u], perm[v])] for (u, v) in d.edges)


def reference_iso_classes(n):
    """The least code of each orbit of the labelled strongly connected
    digraphs on n vertices, as sorted edge lists in increasing code order."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    least = {min(orbit_codes(d)) for d in labeled_strongly_connected(n)}
    return [[p for k, p in enumerate(pairs) if code >> k & 1] for code in sorted(least)]


@pytest.fixture(scope="module")
def five_vertex_classes():
    return strongly_connected_up_to_iso(5)


BLOCK_NUMPY = (
    'import sys; sys.modules["numpy"] = None; '
    "from dtwone.suite import strongly_connected_up_to_iso; "
    "print(len(strongly_connected_up_to_iso(4)))"
)


class TestGenerators:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 18)])
    def test_labeled_counts(self, n, count):
        instances = list(labeled_strongly_connected(n))
        assert len(instances) == count
        assert all(is_strongly_connected(d) for d in instances)

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 5), (4, 83), (5, 5048)])
    def test_iso_class_counts(self, n, count, request):
        reps = (request.getfixturevalue("five_vertex_classes") if n == 5
                else strongly_connected_up_to_iso(n))
        assert len(reps) == count
        assert all(is_strongly_connected(d) for d in reps)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_iso_classes_match_the_brute_force_reference(self, n):
        reps = strongly_connected_up_to_iso(n)
        assert [sorted(d.edges) for d in reps] == reference_iso_classes(n)

    def test_five_vertex_representatives_are_least_codes(self, five_vertex_classes):
        codes = []
        for d in five_vertex_classes:
            code, *others = orbit_codes(d)
            assert is_strongly_connected(d) and code <= min(others), sorted(d.edges)
            codes.append(code)
        assert codes == sorted(set(codes))

    def test_iso_classes_need_no_numpy(self):
        out = subprocess.run(
            [sys.executable, "-c", BLOCK_NUMPY],
            env=source_env(), capture_output=True, text=True,
        )
        assert (out.returncode, out.stdout) == (0, "83\n"), out.stderr

    def test_random_instances_strongly_connected(self):
        rng = random.Random(13)
        for _ in range(50):
            d = random_strongly_connected(rng, rng.randint(2, 6), 0.3)
            assert is_strongly_connected(d)

    def test_random_hypergraphs_are_well_formed(self):
        rng = random.Random(13)
        for _ in range(50):
            h = random_hypergraph(rng, 6, 6)
            assert h.edges and all(h.edges)


def test_five_vertex_classes_agree_with_the_hypertree_route(five_vertex_classes):
    """Every strongly connected digraph on five vertices, up to isomorphism:
    the certificate verifies and its verdict is the hypertree route's."""
    yes = 0
    for d in five_vertex_classes:
        cert = recognize_dtw1(d)
        assert verify_certificate(d, cert).valid, sorted(d.edges)
        assert (cert.verdict == "YES") == hypertree_route(d).is_hypertree, sorted(d.edges)
        yes += cert.verdict == "YES"
    assert yes == 1981


class TestExhaustiveBranchWidth:
    def test_tree_edge_sides_partition(self):
        edges = ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5))
        sides = _tree_sides(edges)
        nodes = {x for e in edges for x in e}
        for (a, b), side in sides.items():
            assert a in side and b not in side
            assert side | (nodes - side) == nodes
        assert sides[(4, 5)] == frozenset({0, 1, 4})

    def test_digon_width_one(self):
        d = digraph_from_edges(2, [(0, 1), (1, 0)])
        assert exhaustive_dbw(d, cycle_hypergraph(d, 100)) == 1

    def test_single_vertex_width_zero(self):
        d = digraph_from_edges(1, [])
        assert exhaustive_dbw(d, cycle_hypergraph(d, 100)) == 0

    def test_optimal_dbd_is_valid(self):
        from dtwone.decomp import validate_dbd

        d = bicycle(3)
        dec = exhaustive_optimal_dbd(d, cycle_hypergraph(d, 100))
        report = validate_dbd(d, dec, cap=100)
        assert report.valid
        assert report.width == dec.width()

    def test_directed_triangle_width_one(self):
        d = digraph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert exhaustive_dbw(d, cycle_hypergraph(d, 100)) == 1

    def test_eight_vertices_are_too_many(self):
        # 8 leaves would mean scanning 10,395 tree shapes
        d = directed_cycle_digraph(8)
        with pytest.raises(InstanceTooLarge, match="limited to 7 leaves, got 8"):
            exhaustive_optimal_dbd(d, cycle_hypergraph(d, 100))


class TestThreeWayCheck:
    def test_fast_and_full_haven_checks_must_agree(self, monkeypatch):
        """`verify_certificate`'s haven check is held to the full
        `verify_haven` on every NO instance of a corpus."""
        monkeypatch.setattr(suite, "verify_certificate",
                            lambda d, cert: Report(False, None, ("haven verification failed",)))
        tally = suite._Tally()
        suite._three_way_check(bicycle(4), tally, 100, None)
        assert len(tally.failures) == 1
        assert "verify_certificate and verify_haven disagree" in tally.failures[0]
