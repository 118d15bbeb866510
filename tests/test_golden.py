"""A refactor of the recogniser must keep every certificate byte identical.

The digest below covers the `--format structured` output of `dtwone
recognize` on every labeled strongly connected digraph on 2-4 vertices,
Bicycle(5..8) and a few seeded bidirected trees.  When a change alters a
certificate on purpose, recompute the digest and say why in the change log.
"""

from __future__ import annotations

import hashlib
import random

from click.testing import CliRunner

from dtwone.cli import main
from dtwone.digraph import bicycle, bidirect
from dtwone.suite import labeled_strongly_connected

GOLDEN_SHA256 = "35abad622b440f5397aca68a4b7eff6547684143509abbb38a29299817ffe0c8"


def _corpus():
    for n in (2, 3, 4):
        yield from labeled_strongly_connected(n)
    for length in range(5, 9):
        yield bicycle(length)
    rng = random.Random(2026)
    for n in (6, 9, 12, 15):
        yield bidirect(n, [(v, rng.randrange(v)) for v in range(1, n)])


def test_certificates_match_the_golden_digest(tmp_path):
    runner = CliRunner()
    path = tmp_path / "d.txt"
    digest = hashlib.sha256()
    count = 0
    for d in _corpus():
        path.write_text("".join(f"{u} {v}\n" for (u, v) in d.sorted_edges()))
        res = runner.invoke(main, ["recognize", str(path), "--format", "structured"])
        assert res.exit_code in (0, 1), res.output
        digest.update(res.output.encode())
        count += 1
    assert count == 1 + 18 + 1606 + 4 + 4
    assert digest.hexdigest() == GOLDEN_SHA256
