"""A refactor of the recogniser must keep every certificate byte identical.

The first digest covers the `--format structured` output of `dtwone
recognize` on every labeled strongly connected digraph on 2-4 vertices,
Bicycle(5..8) and a few seeded bidirected trees.  The second covers the exit
code and stdout on 200 seeded random strongly connected digraphs on 7-12
vertices, most of which take shrinking steps in the NO loop.  A third
digest covers both corpora's exit codes and stdout with no `haven ` line in
them: NO certificates hold no haven table, so it pins verdicts, YES
decompositions, witness scripts and branch sets.  The order-3 haven each
witness implies is derived by `minor_haven`, and a fourth digest pins
those havens, written as `haven ` lines.  A fifth covers the exit codes of
both corpora alone, so that a change to how a NO witness is found can show
it keeps every verdict.  The last covers exit code and stdout of every
other command (`verify-cert`, `cycles`, `game`, `validate-dtd`,
`validate-dbd`, `convert` and `hypergraph`) over small digraphs, their
cycle hypergraphs and duals, and random hypergraphs.  One more digest
covers the certificates of seeded bidirected trees and trees plus a
triangle on 40-64 vertices, as drawn and renamed, whose s-decompositions
make hundreds of splits each.  When a change alters
a certificate on purpose, recompute the digest and say why in the change
log.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from click.testing import CliRunner

from dtwone.check import DirectedTreeDecomposition
from dtwone.cli import main
from dtwone.cycles import cycle_hypergraph
from dtwone.digraph import Digraph, bicycle, bidirect
from dtwone.dtw1 import minor_haven, recognize_dtw1
from dtwone.formats import (
    FORMAT_VERSION,
    format_certificate,
    format_dtd,
    format_set,
    parse_certificate,
    parse_digraph,
    read_document,
    vertex_names,
)
from dtwone.games import verify_haven
from dtwone.hypergraph import dual
from dtwone.suite import (
    labeled_strongly_connected,
    random_hypergraph,
    random_strongly_connected,
)
from test_formats import hypergraph_lines

GOLDEN_SHA256 = "7f80bf9bed6ad22e62fadc5934f2eda06542d0ef1ed129a708fa5893dde3568c"
RANDOM_SHA256 = "72a4dc5415847161a90483691aafa8e2749fbb5ccb12e425f453cd64b9133d1a"
HAVEN_FREE_SHA256 = "d3c132f2219261a864aaec508be2dbf6dae8fd3bf771bf5d40d5cef87056ea98"
# The derived havens of the NO certificates of both corpora, in output
# order, written as the `haven ` lines certificates used to carry.
HAVEN_TABLES_SHA256 = "3ddcdbeb7770b6d9e0494bea9d508c6348d4134d3de10ebc518e4860a298ce8a"
# The exit code of every input of both corpora, in order: 0 for YES, 1 for NO.
VERDICTS_SHA256 = "74e1ecafa7dfde5c5c4d2cb7421e6604f545f25817f62e2cbb160221e98085e2"
COMMANDS_SHA256 = "b514bbfb5c4edbc424824256de492ca1f2558872aa9acec1c65aff88246c3212"
TREES_SHA256 = "f56a34aabe4c3593f5e40ed3048a7b9589ea03817a40e350043fff63ea240b6d"


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


def test_verdicts_match_the_golden_digest(answers):
    """The verdicts alone: a change to how a NO witness is found must leave
    every exit code of both corpora as it is."""
    digest = hashlib.sha256()
    for corpus in ("golden", "random"):
        for code, _, _ in answers[corpus]:
            digest.update(f"{code}\n".encode())
    assert digest.hexdigest() == VERDICTS_SHA256


def test_answers_without_havens_match_the_golden_digest(answers):
    """Verdicts, YES decompositions, witness scripts and branch sets of both
    corpora, byte for byte: the certificates hold no `haven ` line."""
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
    witness.  Written as the old `haven <cop set>: <component>` lines, the
    havens of both corpora match the pinned digest, and each passes both
    haven verifiers.  The digest pins the derived havens: since the NO loop
    took its one-rule form they are no longer the tables the certificates
    used to carry."""
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
        run("hypergraph", write("h.txt", hypergraph_lines(h)))

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


def tree_corpus():
    """Per round, a bidirected tree and a tree plus a triangle on 40-64
    vertices, each as drawn (every vertex's parent has a smaller number)
    and with its vertices renamed by a seeded permutation.  Their
    s-decompositions make 2,314 splits, 29 of them into two pieces of
    three or more vertices."""
    from test_digraph import random_tree_edges, tree_plus_triangle

    def renamed(d):
        perm = list(range(d.n))
        rng.shuffle(perm)
        return Digraph(d.n, frozenset((perm[a], perm[b]) for (a, b) in d.edges))

    rng = random.Random(2026)
    for _ in range(12):
        for d in (
            bidirect(n := rng.randint(40, 64), random_tree_edges(rng, n)),
            tree_plus_triangle(rng, rng.randint(40, 64)),
        ):
            yield d
            yield renamed(d)


def test_tree_certificates_match_the_golden_digest():
    """Certificates of large trees and trees plus a triangle, in process:
    the YES decompositions and NO witnesses read off long runs of splits."""
    digest = hashlib.sha256()
    verdicts = []
    for d in tree_corpus():
        cert = recognize_dtw1(d)
        verdicts.append(cert.verdict)
        for line in format_certificate(cert, vertex_names(d), []):
            digest.update(f"{line}\n".encode())
    assert verdicts == ["YES", "YES", "NO", "NO"] * 12
    assert digest.hexdigest() == TREES_SHA256
