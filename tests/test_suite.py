"""Unit checks for the experiment drivers: corpus generators and the
exhaustive branch-width oracle they rely on."""

from __future__ import annotations

import random

import pytest

from dtwone import suite
from dtwone.check import Report
from dtwone.cycles import cycle_hypergraph
from dtwone.digraph import bicycle, digraph_from_edges, is_strongly_connected
from dtwone.hypergraph import _tree_sides
from dtwone.suite import (
    exhaustive_dbw,
    exhaustive_optimal_dbd,
    labeled_strongly_connected,
    random_hypergraph,
    random_strongly_connected,
    strongly_connected_up_to_iso,
)


class TestGenerators:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 18)])
    def test_labeled_counts(self, n, count):
        instances = list(labeled_strongly_connected(n))
        assert len(instances) == count
        assert all(is_strongly_connected(d) for d in instances)

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 5), (4, 83)])
    def test_iso_class_counts(self, n, count):
        reps = strongly_connected_up_to_iso(n)
        assert len(reps) == count
        assert all(is_strongly_connected(d) for d in reps)

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


class TestThreeWayCheck:
    def test_fast_and_full_haven_checks_must_agree(self, monkeypatch):
        """`verify_certificate`'s haven check is held to the full
        `verify_haven` on every NO instance of a corpus."""
        monkeypatch.setattr(suite, "verify_certificate",
                            lambda d, cert: Report(False, 0, ("haven verification failed",)))
        tally = suite._Tally()
        suite._three_way_check(bicycle(4), tally, 100, None)
        assert len(tally.failures) == 1
        assert "verify_certificate and verify_haven disagree" in tally.failures[0]
