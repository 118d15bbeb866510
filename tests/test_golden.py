"""A refactor of the recogniser must keep every certificate byte identical.

The first digest covers the `--format structured` output of `dtwone
recognize` on every labeled strongly connected digraph on 2-4 vertices,
Bicycle(5..8) and a few seeded bidirected trees.  The second covers the exit
code and stdout on 200 seeded random strongly connected digraphs on 7-12
vertices, most of which reach the case analysis's shore contractions.  A
third digest covers both corpora's exit codes and stdout again: it was
recorded without the `haven ` lines that certificates carried until havens
became derived, so it pins verdicts, YES decompositions, witness scripts and
branch sets across that change.  NO certificates now hold no haven table;
the order-3 haven each witness implies is derived by `minor_haven`, and a
fourth digest checks that those havens, written as the old `haven ` lines,
are the tables the certificates used to carry.  The last covers exit code
and stdout of every other command (`verify-cert`, `cycles`, `game`,
`validate-dtd`, `validate-dbd`, `convert` and `hypergraph`) over small
digraphs, their cycle hypergraphs and duals, and random hypergraphs.  When a
change alters a certificate on purpose, recompute the digest and say why in
the change log.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from click.testing import CliRunner

from dtwone.check import DirectedTreeDecomposition
from dtwone.cli import main
from dtwone.cycles import cycle_hypergraph
from dtwone.digraph import bicycle, bidirect
from dtwone.dtw1 import minor_haven
from dtwone.formats import (
    FORMAT_VERSION,
    format_dtd,
    format_hypergraph,
    format_set,
    parse_certificate,
    parse_digraph,
    read_document,
)
from dtwone.games import verify_haven
from dtwone.hypergraph import dual
from dtwone.suite import (
    labeled_strongly_connected,
    random_hypergraph,
    random_strongly_connected,
)

GOLDEN_SHA256 = "31379965bfa80936f50d6714570562e62e670f2d38a75d9c8828eec8e94ac8c5"
RANDOM_SHA256 = "8571cd0df9982edc32f04f29175a512d952822b9e13c74b38fd33169fe60eceb"
HAVEN_FREE_SHA256 = "d5769c785e345d54ceed3a44b33fa313463cd6aa4ca0d0187bb76bba5564488f"
# The `haven ` lines the NO certificates of both corpora carried, in output
# order, recorded before havens stopped being written.
HAVEN_TABLES_SHA256 = "01cee3cb13916141706d4ba1e318211e22b3b80bf5c5aca415918e07359bcddc"
COMMANDS_SHA256 = "b514bbfb5c4edbc424824256de492ca1f2558872aa9acec1c65aff88246c3212"


def _corpus():
    for n in (2, 3, 4):
        yield from labeled_strongly_connected(n)
    for length in range(5, 9):
        yield bicycle(length)
    rng = random.Random(2026)
    for n in (6, 9, 12, 15):
        yield bidirect(n, [(v, rng.randrange(v)) for v in range(1, n)])


def random_corpus():
    rng = random.Random(2026)
    for _ in range(200):
        n = rng.randint(7, 12)
        yield random_strongly_connected(rng, n, rng.choice((0.15, 0.2)))


def edge_text(d) -> str:
    return "".join(f"{u} {v}\n" for (u, v) in d.sorted_edges())


@pytest.fixture(scope="module")
def answers(tmp_path_factory):
    """`recognize --format structured` on both corpora, as (exit code,
    output, stdout) per input."""
    runner = CliRunner()
    path = tmp_path_factory.mktemp("golden") / "d.txt"

    def run(corpus):
        out = []
        for d in corpus:
            path.write_text(edge_text(d))
            res = runner.invoke(main, ["recognize", str(path), "--format", "structured"])
            out.append((res.exit_code, res.output, res.stdout))
        return out

    return {"golden": run(_corpus()), "random": run(random_corpus())}


def test_certificates_match_the_golden_digest(answers):
    digest = hashlib.sha256()
    for code, output, _ in answers["golden"]:
        assert code in (0, 1), output
        digest.update(output.encode())
    assert len(answers["golden"]) == 1 + 18 + 1606 + 4 + 4
    assert digest.hexdigest() == GOLDEN_SHA256


def test_random_answers_match_the_golden_digest(answers):
    digest = hashlib.sha256()
    for code, _, stdout in answers["random"]:
        digest.update(f"{code}\n".encode())
        digest.update(stdout.encode())
    assert sorted({code for code, _, _ in answers["random"]}) == [0, 1]
    assert digest.hexdigest() == RANDOM_SHA256


def test_answers_without_havens_match_the_golden_digest(answers):
    """Verdicts, YES decompositions, witness scripts and branch sets of both
    corpora, byte for byte as before havens became derived: the
    certificates hold no `haven ` line any more."""
    digest = hashlib.sha256()
    for corpus in ("golden", "random"):
        for code, _, stdout in answers[corpus]:
            digest.update(f"{code}\n".encode())
            for line in stdout.splitlines(keepends=True):
                assert not line.startswith("haven "), line
                digest.update(line.encode())
    assert digest.hexdigest() == HAVEN_FREE_SHA256


def test_derived_havens_match_the_old_tables(answers):
    """Each NO certificate is read back and its haven derived from the
    witness; written as the old `haven <cop set>: <component>` lines, the
    havens of both corpora are exactly the tables the certificates used to
    carry, and each passes both haven verifiers."""
    from test_games import reference_verify_haven

    digest = hashlib.sha256()
    lines = 0
    for corpus, inputs in (("golden", _corpus()), ("random", random_corpus())):
        for d, (code, _, stdout) in zip(inputs, answers[corpus], strict=True):
            if code != 1:
                continue
            d, names = parse_digraph(edge_text(d))
            cert = parse_certificate(read_document(stdout),
                                     {name: i for i, name in enumerate(names)})
            hav = minor_haven(d, cert.witness)
            assert verify_haven(d, hav) and reference_verify_haven(d, hav)
            for x in sorted(hav.assignment, key=lambda s: (len(s), sorted(s))):
                digest.update(f"haven {format_set(x, names)}:"
                              f" {format_set(hav.assignment[x], names)}\n".encode())
                lines += 1
    assert lines == 13387
    assert digest.hexdigest() == HAVEN_TABLES_SHA256


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
