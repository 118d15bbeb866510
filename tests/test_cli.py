"""End-to-end command-line coverage through click's test runner."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import dtwone
from dtwone.cli import main
from dtwone.digraph import a4_digraph
from dtwone.formats import digraph_hash, read_document
from dtwone.suite import CriterionResult

DIGON = "0 1\n1 0\n"
B3 = "a b\nb a\nb c\nc b\nc a\na c\n"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def digon_file(tmp_path):
    p = tmp_path / "digon.txt"
    p.write_text(DIGON)
    return str(p)


@pytest.fixture()
def b3_file(tmp_path):
    p = tmp_path / "b3.txt"
    p.write_text(B3)
    return str(p)


class TestRecognize:
    def test_yes_exit_zero(self, runner, digon_file):
        res = runner.invoke(main, ["recognize", digon_file])
        assert res.exit_code == 0
        assert "verdict=YES" in res.output
        assert "node 0 bag={0,1}" in res.output
        assert res.output.startswith("dtwone v1\n")

    def test_no_exit_one(self, runner, b3_file):
        res = runner.invoke(main, ["recognize", b3_file])
        assert res.exit_code == 1
        assert "verdict=NO" in res.output
        assert "pattern=bicycle" in res.output
        assert "length=3" in res.output
        assert "haven_order=3" in res.output

    def test_parse_error_exit_two(self, runner, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1\n0 1 2\n")
        res = runner.invoke(main, ["recognize", str(p)])
        assert res.exit_code == 2
        assert "line 2" in res.output

    def test_missing_file_exit_two(self, runner, tmp_path):
        res = runner.invoke(main, ["recognize", str(tmp_path / "nope.txt")])
        assert res.exit_code == 2

    def test_deterministic_bytes(self, runner, b3_file):
        a = runner.invoke(main, ["recognize", b3_file]).output
        b = runner.invoke(main, ["recognize", b3_file]).output
        assert a == b

    def test_structured_is_text_minus_comments(self, runner, b3_file):
        text = runner.invoke(main, ["recognize", b3_file]).output
        structured = runner.invoke(
            main, ["recognize", b3_file, "--format", "structured"]
        ).output
        stripped = "\n".join(
            line for line in text.splitlines() if not line.startswith("# ")
        )
        assert stripped + "\n" == structured

    def test_internal_error_exit_three(self, runner, digon_file, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("broken invariant")

        monkeypatch.setattr("dtwone.cli.recognize_dtw1", broken)
        res = runner.invoke(main, ["recognize", digon_file])
        assert res.exit_code == 3
        assert "internal error: AssertionError: broken invariant" in res.output
        assert isinstance(res.exception.__context__, AssertionError)

    def test_unknown_flag(self, runner, digon_file):
        res = runner.invoke(main, ["recognize", digon_file, "--verbose"])
        assert res.exit_code == 2


class TestVerifyCert:
    def cert(self, runner, path, fmt=None):
        args = ["recognize", path] + (["--format", fmt] if fmt else [])
        return runner.invoke(main, args).output

    def test_yes_round_trip(self, runner, digon_file, tmp_path):
        cert = tmp_path / "digon.cert"
        cert.write_text(self.cert(runner, digon_file))
        res = runner.invoke(main, ["verify-cert", digon_file, str(cert)])
        assert res.exit_code == 0
        assert "result=valid" in res.output
        assert "width=1" in res.output

    def test_no_round_trip_both_formats(self, runner, b3_file, tmp_path):
        for fmt in (None, "structured"):
            cert = tmp_path / f"b3-{fmt}.cert"
            cert.write_text(self.cert(runner, b3_file, fmt))
            res = runner.invoke(main, ["verify-cert", b3_file, str(cert)])
            assert res.exit_code == 0
            assert "result=valid" in res.output

    def test_reads_the_certificate_once(self, runner, b3_file, tmp_path, monkeypatch):
        cert = tmp_path / "b3.cert"
        cert.write_text(self.cert(runner, b3_file))
        calls = []

        def counting(text):
            calls.append(text)
            return read_document(text)

        monkeypatch.setattr("dtwone.cli.read_document", counting)
        monkeypatch.setattr("dtwone.formats.read_document", counting)
        res = runner.invoke(main, ["verify-cert", b3_file, str(cert)])
        assert res.exit_code == 0 and "result=valid" in res.output
        assert len(calls) == 1

    def test_hashes_the_digraph_once(self, runner, b3_file, tmp_path, monkeypatch):
        """The digest that matched the certificate's is the one written."""
        cert = tmp_path / "b3.cert"
        cert.write_text(self.cert(runner, b3_file))
        calls = []

        def counting(d):
            calls.append(d)
            return digraph_hash(d)

        monkeypatch.setattr("dtwone.cli.digraph_hash", counting)
        monkeypatch.setattr("dtwone.formats.digraph_hash", counting)
        res = runner.invoke(main, ["verify-cert", b3_file, str(cert)])
        assert res.exit_code == 0 and "result=valid" in res.output
        assert len(calls) == 1
        assert f"digraph={digraph_hash(calls[0])}" in res.output.splitlines()

    def test_tampered_witness_fails(self, runner, b3_file, tmp_path):
        text = self.cert(runner, b3_file)
        tampered = text.replace("rootset 0 root=a {a}", "rootset 0 root=b {b}")
        assert tampered != text
        cert = tmp_path / "tampered.cert"
        cert.write_text(tampered)
        res = runner.invoke(main, ["verify-cert", b3_file, str(cert)])
        assert res.exit_code == 1
        assert "result=invalid" in res.output
        assert "violation=rooted sets must be pairwise disjoint" in res.output

    def test_older_no_certificate_exit_two(self, runner, b3_file, tmp_path):
        """A NO certificate in the older form, a minor's script and branch
        sets, is refused as malformed, and the message names that form and
        the first record in it."""
        lines = self.cert(runner, b3_file, "structured").splitlines()
        at = lines.index("rootset 0 root=a {a}")
        lines[at:at + 3] = ["branchset 0: {a}", "branchset 1: {b}", "branchset 2: {c}"]
        cert = tmp_path / "old.cert"
        cert.write_text("\n".join(lines) + "\n")
        res = runner.invoke(main, ["verify-cert", b3_file, str(cert)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"line {at + 1}: unexpected `branchset` record: a NO certificate in the older form" in res.output

    def test_forged_bicycle_length_is_invalid(self, runner, b3_file, tmp_path):
        """A bicycle longer than the digraph is refused before it is built,
        so a length that would need terabytes to build answers at once."""
        text = self.cert(runner, b3_file)
        forged = text.replace("length=3", "length=1000000000000")
        assert forged != text
        cert = tmp_path / "forged.cert"
        cert.write_text(forged)
        res = runner.invoke(main, ["verify-cert", b3_file, str(cert)])
        assert res.exit_code == 1
        assert "result=invalid" in res.output
        assert "violation=the pattern has more vertices than the digraph" in res.output

    @pytest.mark.parametrize("digit", ["\u00b3", "\uff13"], ids=["superscript", "fullwidth"])
    def test_non_ascii_length_exit_two(self, runner, b3_file, tmp_path, digit):
        """A length in digits other than ASCII ones is malformed, and the
        message names its line."""
        lines = self.cert(runner, b3_file, "structured").splitlines()
        at = lines.index("length=3")
        lines[at] = f"length={digit}"
        cert = tmp_path / "digit.cert"
        cert.write_text("\n".join(lines) + "\n", encoding="utf-8")
        res = runner.invoke(main, ["verify-cert", b3_file, str(cert)])
        assert res.exit_code == 2
        assert f"line {at + 1}: a bicycle pattern needs" in res.output
        assert "invalid literal" not in res.output

    def test_haven_table_exit_two(self, runner, b3_file, tmp_path):
        """A certificate in the older form, with its haven table, is refused
        as malformed, and the message names the first `haven` line."""
        lines = self.cert(runner, b3_file, "structured").splitlines()
        assert lines[-1] == "haven_order=3"
        table = ["haven {}: {a,b,c}", "haven {a}: {b,c}"]
        cert = tmp_path / "old.cert"
        cert.write_text("\n".join(lines + table) + "\n")
        res = runner.invoke(main, ["verify-cert", b3_file, str(cert)])
        assert res.exit_code == 2
        assert f"line {len(lines) + 1}:" in res.output and "derived" in res.output

    @pytest.mark.parametrize("key", ["pattern=a4", "length=3", "haven_order=3"])
    def test_no_key_on_a_yes_certificate_exit_two(self, runner, digon_file, tmp_path, key):
        """A YES certificate that carries a key of a NO certificate is
        refused as malformed, and the message names that key's line."""
        lines = self.cert(runner, digon_file, "structured").splitlines() + [key]
        cert = tmp_path / "mixed.cert"
        cert.write_text("\n".join(lines) + "\n")
        res = runner.invoke(main, ["verify-cert", digon_file, str(cert)])
        assert res.exit_code == 2 and res.stdout == ""
        name = key.split("=")[0]
        assert f"line {len(lines)}: unexpected `{name}=` on a YES certificate" in res.output

    def test_wrong_digraph_exit_two(self, runner, digon_file, b3_file, tmp_path):
        cert = tmp_path / "b3.cert"
        cert.write_text(self.cert(runner, b3_file))
        res = runner.invoke(main, ["verify-cert", digon_file, str(cert)])
        assert res.exit_code == 2
        assert "different digraph" in res.output

    def test_certificate_without_digraph_line_exit_two(self, runner, b3_file, tmp_path):
        lines = self.cert(runner, b3_file).splitlines()
        cert = tmp_path / "anonymous.cert"
        cert.write_text("\n".join(line for line in lines if not line.startswith("digraph=")) + "\n")
        res = runner.invoke(main, ["verify-cert", b3_file, str(cert)])
        assert res.exit_code == 2 and res.stdout == ""
        assert "certificate names no digraph" in res.output
        assert "different digraph" not in res.output


class TestValidateCommands:
    def test_validate_dtd_accepts_yes_certificate(self, runner, digon_file, tmp_path):
        cert = tmp_path / "digon.cert"
        cert.write_text(runner.invoke(main, ["recognize", digon_file]).output)
        res = runner.invoke(main, ["validate-dtd", digon_file, str(cert)])
        assert res.exit_code == 0
        assert "result=valid" in res.output and "width=1" in res.output

    def test_validate_dtd_rejects_tampering(self, runner, digon_file, tmp_path):
        text = runner.invoke(main, ["recognize", digon_file]).output
        doc = tmp_path / "bad.dtd"
        doc.write_text(text.replace("bag={0,1}", "bag={0}"))
        res = runner.invoke(main, ["validate-dtd", digon_file, str(doc)])
        assert res.exit_code == 1
        assert "result=invalid" in res.output
        assert "violation=" in res.output

    def test_validate_dbd_of_converted(self, runner, digon_file, tmp_path):
        cert = tmp_path / "digon.cert"
        cert.write_text(runner.invoke(main, ["recognize", digon_file]).output)
        dbd = tmp_path / "digon.dbd"
        out = runner.invoke(main, ["convert", digon_file, str(cert), "dbd"])
        assert out.exit_code == 0
        dbd.write_text(out.output)
        res = runner.invoke(main, ["validate-dbd", digon_file, str(dbd)])
        assert res.exit_code == 0
        assert "result=valid" in res.output

    @pytest.mark.parametrize(
        "command, source, extra",
        [
            ("validate-dtd", "dtd", []),
            ("validate-dbd", "dbd", []),
            ("convert", "dtd", ["dbd"]),
            ("convert", "dtd", ["ghd"]),
            ("convert", "dbd", ["hbd"]),
        ],
        ids=["validate-dtd", "validate-dbd", "convert-dbd", "convert-ghd", "convert-hbd"],
    )
    def test_hashes_the_digraph_once(
        self, runner, digon_file, tmp_path, monkeypatch, command, source, extra
    ):
        """The digest that matched the document's is the one written."""
        doc = tmp_path / "digon.doc"
        doc.write_text(runner.invoke(main, ["recognize", digon_file]).output)
        if source == "dbd":
            doc.write_text(runner.invoke(main, ["convert", digon_file, str(doc), "dbd"]).output)
        calls = []

        def counting(d):
            calls.append(d)
            return digraph_hash(d)

        monkeypatch.setattr("dtwone.cli.digraph_hash", counting)
        monkeypatch.setattr("dtwone.formats.digraph_hash", counting)
        res = runner.invoke(main, [command, digon_file, str(doc), *extra])
        assert res.exit_code == 0, res.output
        assert len(calls) == 1
        assert f"digraph={digraph_hash(calls[0])}" in res.output.splitlines()

    def test_hash_mismatch_exit_two(self, runner, digon_file, b3_file, tmp_path):
        cert = tmp_path / "digon.cert"
        cert.write_text(runner.invoke(main, ["recognize", digon_file]).output)
        res = runner.invoke(main, ["validate-dtd", b3_file, str(cert)])
        assert res.exit_code == 2


class TestConvert:
    def test_chain_dbd_then_hbd(self, runner, digon_file, tmp_path):
        cert = tmp_path / "c"
        cert.write_text(runner.invoke(main, ["recognize", digon_file]).output)
        dbd_res = runner.invoke(main, ["convert", digon_file, str(cert), "dbd"])
        assert dbd_res.exit_code == 0 and "convert=dbd" in dbd_res.output
        dbd = tmp_path / "d"
        dbd.write_text(dbd_res.output)
        hbd_res = runner.invoke(main, ["convert", digon_file, str(dbd), "hbd"])
        assert hbd_res.exit_code == 0 and "convert=hbd" in hbd_res.output
        assert "width=1" in hbd_res.output

    def test_ghd_target(self, runner, digon_file, tmp_path):
        cert = tmp_path / "c"
        cert.write_text(runner.invoke(main, ["recognize", digon_file]).output)
        res = runner.invoke(main, ["convert", digon_file, str(cert), "ghd"])
        assert res.exit_code == 0
        assert "convert=ghd" in res.output and "guard=" in res.output

    def test_invalid_input_exit_two(self, runner, digon_file, tmp_path):
        doc = tmp_path / "bad"
        doc.write_text("dtwone v1\nnode 0 bag={0}\n")
        res = runner.invoke(main, ["convert", digon_file, str(doc), "dbd"])
        assert res.exit_code == 2

    def test_unknown_target(self, runner, digon_file, tmp_path):
        cert = tmp_path / "c"
        cert.write_text(runner.invoke(main, ["recognize", digon_file]).output)
        res = runner.invoke(main, ["convert", digon_file, str(cert), "tree"])
        assert res.exit_code == 2

    def test_hbd_of_a_vertex_on_no_cycle_exit_two(self, runner, tmp_path):
        # a lies on no directed cycle, so it names no dual hyperedge; the
        # one-bag dtd and its dbd are valid all the same.
        graph = tmp_path / "g"
        graph.write_text("a b\nb c\nc b\n")
        dtd = tmp_path / "dtd"
        dtd.write_text("dtwone v1\nnode 0 bag={a,b,c}\n")
        dbd_res = runner.invoke(main, ["convert", str(graph), str(dtd), "dbd"])
        assert dbd_res.exit_code == 0
        dbd = tmp_path / "dbd"
        dbd.write_text(dbd_res.output)
        assert runner.invoke(main, ["validate-dbd", str(graph), str(dbd)]).exit_code == 0
        res = runner.invoke(main, ["convert", str(graph), str(dbd), "hbd"])
        assert res.exit_code == 2
        assert "error: conversion needs every vertex on a directed cycle" in res.output


class TestCyclesAndHypergraph:
    def test_cycles_named(self, runner, b3_file):
        res = runner.invoke(main, ["cycles", b3_file])
        assert res.exit_code == 0
        assert "count=5" in res.output
        assert "c a b\n" in res.output

    def test_cycles_cap_exceeded(self, runner, b3_file):
        res = runner.invoke(main, ["cycles", b3_file, "--cap", "2"])
        assert res.exit_code == 2

    def test_cap_echoed(self, runner, b3_file):
        res = runner.invoke(main, ["cycles", b3_file, "--cap", "55"])
        assert res.exit_code == 0
        assert "\ncap=55\n" in res.output and "seed=" not in res.output

    def test_cap_must_be_positive(self, runner, b3_file):
        res = runner.invoke(main, ["cycles", b3_file, "--cap", "0"])
        assert res.exit_code == 2

    def test_hypergraph_hypertree(self, runner, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("v a b c\ne a b\ne b c\n")
        res = runner.invoke(main, ["hypergraph", str(p)])
        assert res.exit_code == 0
        assert "alpha_acyclic=true" in res.output
        assert "hypertree=true" in res.output
        assert "tree a b" in res.output

    def test_hypergraph_cyclic(self, runner, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("v a b c\ne a b\ne b c\ne a c\n")
        res = runner.invoke(main, ["hypergraph", str(p)])
        assert res.exit_code == 0
        assert "alpha_acyclic=false" in res.output
        assert "hypertree=false" in res.output
        assert "tree " not in res.output


class TestGame:
    def test_robber_wins(self, runner, b3_file):
        res = runner.invoke(main, ["game", b3_file, "2"])
        assert res.exit_code == 0
        assert "cops_win=false" in res.output
        assert "move" not in res.output

    def test_cops_win_with_transcript(self, runner, b3_file):
        res = runner.invoke(main, ["game", b3_file, "3"])
        assert res.exit_code == 0
        assert "cops_win=true" in res.output
        assert "move 0 cops={" in res.output
        assert res.output.rstrip().splitlines()[-1].endswith("robber={}")

    def test_negative_cops_rejected(self, runner, b3_file):
        res = runner.invoke(main, ["game", b3_file, "-1"])
        assert res.exit_code == 2


# The options each command reads: `--cap` binds the commands that enumerate
# cycles, and `suite` is the one seeded command.
OPTIONS = {
    "recognize": {"--format"},
    "verify-cert": {"--format"},
    "cycles": {"--format", "--cap"},
    "hypergraph": {"--format"},
    "validate-dtd": {"--format"},
    "validate-dbd": {"--format", "--cap"},
    "convert": {"--format", "--cap"},
    "game": {"--format"},
    "suite": {"--format", "--cap", "--seed"},
}


@pytest.mark.parametrize("command, extra", [("recognize", []), ("cycles", []), ("game", ["2"])])
def test_digraph_commands_hash_once(runner, b3_file, monkeypatch, command, extra):
    """`recognize`, `cycles` and `game` hash their digraph once, in the
    command, and write that digest."""
    calls = []

    def counting(d):
        calls.append(d)
        return digraph_hash(d)

    monkeypatch.setattr("dtwone.cli.digraph_hash", counting)
    monkeypatch.setattr("dtwone.formats.digraph_hash", counting)
    res = runner.invoke(main, [command, b3_file, *extra])
    assert res.exit_code in (0, 1), res.output
    assert len(calls) == 1
    assert f"digraph={digraph_hash(calls[0])}" in res.output.splitlines()


class TestOptionTable:
    def test_each_command_takes_only_the_options_it_reads(self):
        assert set(main.commands) == set(OPTIONS)
        for name, command in main.commands.items():
            opts = {p.opts[0] for p in command.params if isinstance(p, click.Option)}
            assert opts == OPTIONS[name], name
            help_text = CliRunner().invoke(main, [name, "--help"]).output
            for option in ("--format", "--cap", "--seed"):
                assert (option in help_text) == (option in OPTIONS[name]), (name, option)

    @pytest.mark.parametrize(
        "command, option",
        [(c, o) for c in OPTIONS for o in ("--cap", "--seed") if o not in OPTIONS[c]],
    )
    def test_dropped_option_exits_two(self, runner, command, option):
        res = runner.invoke(main, [command, option, "1"])
        assert res.exit_code == 2
        assert "No such option" in res.output and option in res.output


class TestInternalErrorsExitThree:
    """A library failure the input does not explain exits 3 in every command,
    never 1, which means NO or invalid."""

    @pytest.fixture()
    def files(self, runner, tmp_path, digon_file, b3_file):
        cert = tmp_path / "digon.cert"
        cert.write_text(runner.invoke(main, ["recognize", digon_file]).output)
        hyper = tmp_path / "h.txt"
        hyper.write_text("v a b c\ne a b\ne b c\n")
        return {"digon": digon_file, "b3": b3_file, "cert": str(cert), "hyper": str(hyper)}

    @pytest.mark.parametrize(
        "target, args",
        [
            ("dtwone.cli.verify_certificate", ["verify-cert", "digon", "cert"]),
            ("dtwone.decomp.validate_dtd", ["validate-dtd", "digon", "cert"]),
            ("dtwone.decomp.validate_dtd", ["convert", "digon", "cert", "dbd"]),
            ("dtwone.cli.is_alpha_acyclic", ["hypergraph", "hyper"]),
            ("dtwone.cli.hypertree_witness", ["hypergraph", "hyper"]),
            ("dtwone.cli.play_transcript", ["game", "b3", "3"]),
        ],
    )
    def test_internal_error_exit_three(self, runner, files, monkeypatch, target, args):
        def broken(*args, **kwargs):
            raise AssertionError("broken invariant")

        monkeypatch.setattr(target, broken)
        res = runner.invoke(main, [files.get(a, a) for a in args])
        assert res.exit_code == 3
        assert "internal error: AssertionError: broken invariant" in res.output
        assert isinstance(res.exception.__context__, AssertionError)


class TestSuiteCommand:
    def fake_results(self, ok):
        return [
            CriterionResult(index=1, name="first", passed=True,
                            checked=5, skipped=1, seconds=0.05),
            CriterionResult(index=2, name="second", passed=ok,
                            checked=3, skipped=0, seconds=0.01,
                            failures=() if ok else ("boom", "bang")),
        ]

    def test_all_pass(self, runner, monkeypatch):
        import dtwone.suite as suite

        monkeypatch.setattr(suite, "run_all", lambda seed, cycle_cap: self.fake_results(True))
        res = runner.invoke(main, ["suite"])
        assert res.exit_code == 0
        assert "criterion 1 status=pass checked=5 skipped=1 time=0.1" in res.output
        assert "suite=pass" in res.output

    def test_internal_error_exit_three(self, runner, monkeypatch):
        import dtwone.suite as suite

        def broken(seed, cycle_cap):
            raise AssertionError("broken invariant")

        monkeypatch.setattr(suite, "run_all", broken)
        res = runner.invoke(main, ["suite"])
        assert res.exit_code == 3
        assert "internal error: AssertionError: broken invariant" in res.output

    def test_failure_lines_and_exit(self, runner, monkeypatch):
        import dtwone.suite as suite

        monkeypatch.setattr(suite, "run_all", lambda seed, cycle_cap: self.fake_results(False))
        res = runner.invoke(main, ["suite"])
        assert res.exit_code == 1
        assert "criterion 2 status=fail" in res.output
        assert "failure=boom" in res.output
        assert "suite=fail" in res.output


def source_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(dtwone.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}


LAUNCH = """
import sys
from click.testing import CliRunner
import dtwone.cycles
from dtwone.cli import main

calls = []
enumerate_cycles = dtwone.cycles.enumerate_cycles
def recording(*args, **kwargs):
    calls.append(args)
    return enumerate_cycles(*args, **kwargs)
dtwone.cycles.enumerate_cycles = recording

graph, cert, code = sys.argv[1:]
runner = CliRunner()
res = runner.invoke(main, ["recognize", graph])
assert res.exit_code == int(code), res.output
with open(cert, "w") as fh:
    fh.write(res.output)
res = runner.invoke(main, ["verify-cert", graph, cert])
assert res.exit_code == 0, res.output
print(len(calls))
res = runner.invoke(main, ["cycles", graph])
assert res.exit_code == 0, res.output
print(len(calls))
"""


def launch_enumerations(edges, code, tmp_path) -> str:
    """Recognise and verify `edges` in a fresh interpreter whose
    `enumerate_cycles` counts its calls, then run `cycles` on it: the count
    after the first two commands, and after the third."""
    graph = tmp_path / "d.txt"
    graph.write_text(edges)
    out = subprocess.run(
        [sys.executable, "-c", LAUNCH, str(graph), str(tmp_path / "cert"), str(code)],
        env=source_env(), capture_output=True, text=True, check=True,
    )
    return out.stdout


def test_yes_launch_never_enumerates_cycles(tmp_path):
    """Recognising and verifying a YES digraph enumerates no cycles; the
    `cycles` command after them shows that the count sees a call."""
    assert launch_enumerations(DIGON, 0, tmp_path) == "0\n1\n"


@pytest.mark.parametrize(
    "edges",
    [B3, "".join(f"{u} {v}\n" for (u, v) in a4_digraph().sorted_edges())],
    ids=["b3", "a4"],
)
def test_no_launch_never_enumerates_cycles(edges, tmp_path):
    """A NO certificate is three rooted sets, so a NO launch enumerates no
    cycles either."""
    assert launch_enumerations(edges, 1, tmp_path) == "0\n1\n"


@pytest.mark.parametrize("edges, code, verdict", [(B3, 1, "NO"), (DIGON, 0, "YES")],
                         ids=["triangle", "digon"])
def test_module_run_exits_with_the_verdict(tmp_path, edges, code, verdict):
    """`python -m dtwone.cli recognize` runs the command: the bidirected
    triangle exits 1 with its NO certificate, and a digon exits 0."""
    graph = tmp_path / "d.txt"
    graph.write_text(edges)
    out = subprocess.run(
        [sys.executable, "-m", "dtwone.cli", "recognize", str(graph)],
        env=source_env(), capture_output=True, text=True,
    )
    assert out.returncode == code, out.stderr
    assert f"verdict={verdict}" in out.stdout.splitlines()
    if verdict == "NO":
        assert "rootset 0 root=a {a}" in out.stdout and "haven_order=3" in out.stdout


BLOCK_NETWORKX = 'import sys; sys.modules["networkx"] = None; from dtwone.cli import main; main()'


def test_cycle_commands_run_without_networkx(runner, tmp_path):
    """`cycles`, `validate-dbd` and `convert ... hbd` give the same exit
    code and output in an interpreter where networkx cannot be imported."""
    graph, cert, dbd = (str(tmp_path / name) for name in ("path.txt", "cert", "dbd"))
    Path(graph).write_text("a b\nb a\nb c\nc b\n")
    Path(cert).write_text(runner.invoke(main, ["recognize", graph]).output)
    Path(dbd).write_text(runner.invoke(main, ["convert", graph, cert, "dbd"]).output)
    commands = {
        ("cycles", graph): "c a b\nc b c\n",
        ("validate-dbd", graph, dbd): "result=valid\n",
        ("convert", graph, dbd, "hbd"): "convert=hbd\nwidth=1\n",
    }
    for args, expected in commands.items():
        here = runner.invoke(main, list(args))
        assert here.exit_code == 0 and expected in here.output, here.output
        out = subprocess.run(
            [sys.executable, "-c", BLOCK_NETWORKX, *args],
            env=source_env(), capture_output=True, text=True,
        )
        assert (out.returncode, out.stdout) == (0, here.output), out.stderr
