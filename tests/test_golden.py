"""A refactor of the recogniser must keep every certificate byte identical.

The first digest covers the `--format structured` output of `dtwone
recognize` on every labeled strongly connected digraph on 2-4 vertices,
Bicycle(5..8) and a few seeded bidirected trees.  The second covers the exit
code and stdout on 200 seeded random strongly connected digraphs on 7-12
vertices, most of which reach the case analysis's shore contractions; an
input the recogniser still crashes on is hashed as its exit code 3, so a
fix shows up here too.  The third covers exit code and stdout of every
other command (`verify-cert`, `cycles`, `game`, `validate-dtd`,
`validate-dbd`, `convert` and `hypergraph`) over small digraphs, their cycle
hypergraphs and duals, and random hypergraphs.  When a change alters a
certificate on purpose, recompute the digest and say why in the change log.
"""

from __future__ import annotations

import hashlib
import random

from click.testing import CliRunner

from dtwone.cli import main
from dtwone.cycles import cycle_hypergraph
from dtwone.decomp import DirectedTreeDecomposition
from dtwone.digraph import bicycle, bidirect
from dtwone.formats import (
    FORMAT_VERSION,
    format_dtd,
    format_hypergraph,
    parse_digraph,
)
from dtwone.hypergraph import dual
from dtwone.suite import (
    labeled_strongly_connected,
    random_hypergraph,
    random_strongly_connected,
)

GOLDEN_SHA256 = "35abad622b440f5397aca68a4b7eff6547684143509abbb38a29299817ffe0c8"
RANDOM_SHA256 = "d3c7adb8829899e7a0128cf3f889ab9fc9b0d2c692b1900116b491448f79ded1"
COMMANDS_SHA256 = "ab77685d619d004869cfaee0079a4c41b42db73c1463a28feed74343d7370a0e"


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


def random_corpus():
    rng = random.Random(2026)
    for _ in range(200):
        n = rng.randint(7, 12)
        yield random_strongly_connected(rng, n, rng.choice((0.15, 0.2)))


def test_random_answers_match_the_golden_digest(tmp_path):
    runner = CliRunner()
    path = tmp_path / "d.txt"
    digest = hashlib.sha256()
    codes = []
    for d in random_corpus():
        path.write_text("".join(f"{u} {v}\n" for (u, v) in d.sorted_edges()))
        res = runner.invoke(main, ["recognize", str(path), "--format", "structured"])
        digest.update(f"{res.exit_code}\n".encode())
        digest.update(res.stdout.encode())
        codes.append(res.exit_code)
    assert sorted(set(codes)) == [0, 1, 3], codes
    assert digest.hexdigest() == RANDOM_SHA256


def command_corpus():
    for n in (2, 3):
        yield from labeled_strongly_connected(n)
    yield from list(labeled_strongly_connected(4))[::7]
    rng = random.Random(2026)
    for _ in range(40):
        n = rng.randint(4, 6)
        yield random_strongly_connected(rng, n, rng.choice((0.2, 0.4)))
    for n in (5, 7, 9):
        yield bidirect(n, [(v, rng.randrange(v)) for v in range(1, n)])
    yield bicycle(4)


def test_commands_match_the_golden_digest(tmp_path):
    """Each digraph goes through `verify-cert` on its own certificate,
    `cycles`, `game` with one and two cops (up to five vertices), and
    `validate-dtd`, `convert dbd|ghd`, `validate-dbd` and `convert hbd`
    starting from its certificate and from the one-bag decomposition; its
    cycle hypergraph and the dual go through `hypergraph`."""
    runner = CliRunner()
    digest = hashlib.sha256()
    count = 0

    def write(name, lines):
        path = tmp_path / name
        path.write_text("".join(f"{line}\n" for line in lines))
        return str(path)

    def run(*args):
        nonlocal count
        res = runner.invoke(main, [*args, "--format", "structured"])
        digest.update(f"{res.exit_code}\n".encode())
        digest.update(res.stdout.encode())
        count += 1
        return res

    def hypergraph(h):
        run("hypergraph", write("h.txt", format_hypergraph(h)))

    for d in command_corpus():
        text = [f"{u} {v}" for (u, v) in d.sorted_edges()]
        graph = write("d.txt", text)
        _, names = parse_digraph("\n".join(text))
        cert = write("cert", runner.invoke(main, ["recognize", graph]).stdout.splitlines())
        run("verify-cert", graph, cert)
        run("cycles", graph)
        if d.n <= 5:
            run("game", graph, "1")
            run("game", graph, "2")
        one_bag = DirectedTreeDecomposition((0,), (), {0: range(d.n)}, {})
        one_dtd = write("one.dtd", [FORMAT_VERSION, *format_dtd(one_bag, names)])
        for dtd in (cert, one_dtd):
            if run("validate-dtd", graph, dtd).exit_code != 0:
                continue
            run("convert", graph, dtd, "ghd")
            dbd = write("dbd", run("convert", graph, dtd, "dbd").stdout.splitlines())
            run("validate-dbd", graph, dbd)
            run("convert", graph, dbd, "hbd")
        ch = cycle_hypergraph(d).as_hypergraph()
        hypergraph(ch)
        hypergraph(dual(ch))
    rng = random.Random(2026)
    for _ in range(200):
        hypergraph(random_hypergraph(rng, 6, 5))
    assert count == 4518
    assert digest.hexdigest() == COMMANDS_SHA256
