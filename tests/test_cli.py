"""End-to-end command-line coverage through click's test runner."""

from __future__ import annotations

import pytest
from click.testing import CliRunner

from dtwone.cli import main
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

    def test_seed_and_cap_echoed(self, runner, digon_file):
        res = runner.invoke(main, ["recognize", digon_file, "--seed", "9", "--cap", "55"])
        assert "seed=9" in res.output and "cap=55" in res.output

    def test_cap_must_be_positive(self, runner, digon_file):
        res = runner.invoke(main, ["recognize", digon_file, "--cap", "0"])
        assert res.exit_code == 2

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

    def test_tampered_witness_fails(self, runner, b3_file, tmp_path):
        text = self.cert(runner, b3_file)
        tampered = text.replace("branchset 0: {a}", "branchset 0: {b}")
        assert tampered != text
        cert = tmp_path / "tampered.cert"
        cert.write_text(tampered)
        res = runner.invoke(main, ["verify-cert", b3_file, str(cert)])
        assert res.exit_code == 1
        assert "result=invalid" in res.output

    def test_wrong_digraph_exit_two(self, runner, digon_file, b3_file, tmp_path):
        cert = tmp_path / "b3.cert"
        cert.write_text(self.cert(runner, b3_file))
        res = runner.invoke(main, ["verify-cert", digon_file, str(cert)])
        assert res.exit_code == 2
        assert "different digraph" in res.output


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


class TestCyclesAndHypergraph:
    def test_cycles_named(self, runner, b3_file):
        res = runner.invoke(main, ["cycles", b3_file])
        assert res.exit_code == 0
        assert "count=5" in res.output
        assert "c a b\n" in res.output

    def test_cycles_cap_exceeded(self, runner, b3_file):
        res = runner.invoke(main, ["cycles", b3_file, "--cap", "2"])
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

    def test_failure_lines_and_exit(self, runner, monkeypatch):
        import dtwone.suite as suite

        monkeypatch.setattr(suite, "run_all", lambda seed, cycle_cap: self.fake_results(False))
        res = runner.invoke(main, ["suite"])
        assert res.exit_code == 1
        assert "criterion 2 status=fail" in res.output
        assert "failure=boom" in res.output
        assert "suite=fail" in res.output
