"""Self-tests of the certify benchmark, at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import families  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from click.testing import CliRunner  # noqa: E402

import dtwone.cli  # noqa: E402
from dtwone.errors import CapExceeded  # noqa: E402


def _certify(tmp_path, inst):
    graph = tmp_path / "digraph.txt"
    graph.write_text(inst.text)
    return run.certify(CliRunner(), dtwone.cli.main, inst, graph, tmp_path / "cert.txt")


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    for workload in families.WORKLOADS:
        a, b, other = (families.rounds(workload, s) for s in (3, 3, 4))
        first = [next(a) for _ in range(2)]
        assert first == [next(b) for _ in range(2)]
        assert first != [next(other) for _ in range(2)]
        assert len(first[0]) == len(families.WORKLOADS[workload][1])


def test_generated_instances_keep_their_family_promise(tmp_path):
    small = {
        "yes-trees": (families._yes_tree, (6,)),
        "no-bicycles": (families._bicycle, (5,)),
        "no-tree-triangle": (families._tree_triangle, (6,)),
        "no-dense-random": (families._dense, ((6, 0.3),)),
    }
    for make, ladder in small.values():
        inst = make(families.random.Random(1), ladder[0])
        result = _certify(tmp_path, inst)
        assert result["status"] == "ok", (inst, result["detail"])


def test_item1_repro_is_never_counted_as_no(tmp_path):
    """The crash of ROADMAP item 1 exits 1, the NO code; it must count as an error."""
    inst = families.Instance("item-1 repro", families.plain_edge_list(families.ITEM1_REPRO), None)
    result = _certify(tmp_path, inst)
    if result["status"] != "ok":
        assert result["status"] == "error"
        assert result["detail"] == ("AssertionError", "dtw1", "recognize")


@pytest.mark.parametrize("raised, expected", [
    (AssertionError("broken invariant"), ("AssertionError", "cli", "recognize")),
    (CapExceeded(10, 11), ("CapExceeded", "cli", "recognize")),
])
def test_escaped_exceptions_and_exit_2_are_errors(tmp_path, monkeypatch, raised, expected):
    def fail(*args, **kwargs):
        raise raised

    monkeypatch.setattr(dtwone.cli, "recognize_dtw1", fail)
    inst = families.Instance("digon", "a b\nb a\n", "YES")
    result = _certify(tmp_path, inst)
    assert (result["status"], result["detail"]) == ("error", expected)


def test_wrappers_bind_every_module_and_restore_it():
    import dtwone.dtw1
    import dtwone.games

    modules = [m for k, m in sys.modules.items() if k.startswith("dtwone.")]
    before = {m.__name__: dict(vars(m)) for m in modules}
    tr = tracing.Tracer()
    tr.install()
    try:
        bound = set(tr.bindings)
        for pair in [("dtwone.dtw1", "cycle_hypergraph"), ("dtwone.games", "cycle_hypergraph"),
                     ("dtwone.games", "verify_haven"), ("dtwone.dtw1", "verify_haven"),
                     ("dtwone.cli", "recognize_dtw1"), ("dtwone.games", "strong_components")]:
            assert pair in bound
        assert dtwone.dtw1.cycle_hypergraph is dtwone.games.cycle_hypergraph
        assert dtwone.dtw1.cycle_hypergraph is not before["dtwone.cycles"]["cycle_hypergraph"]
    finally:
        tr.uninstall()
    for m in modules:
        after = vars(m)
        assert all(after[k] is v for k, v in before[m.__name__].items()), m.__name__


def test_self_times_add_up_and_exceptions_are_charged_once():
    tr = tracing.Tracer()
    tr.instance = 0
    with pytest.raises(ValueError):
        with tr.span("cli.outer"):
            with tr.span("dtw1.inner"):
                raise ValueError("x")
    outer, inner = tr.spans
    selfs = tr.self_times()
    assert selfs[0] + selfs[1] == pytest.approx(outer[2] - outer[1])
    assert inner[3] == 0 and outer[3] == -1
    assert dict(tr.errors) == {("dtw1", "ValueError"): 1}


@pytest.mark.parametrize("trace", [0, 1])
def test_a_tiny_run_prints_every_metric(tmp_path, monkeypatch, capsys, trace):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 1)
    monkeypatch.setitem(families.WORKLOADS, "no-bicycles", (families._bicycle, (4, 5)))
    code = run.main(["--workload", "no-bicycles", "--seed", "2", "--seconds", "0.2",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    timed = set(families.WORKLOADS) - {families.CRASHING}
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(timed)


def test_instance_set_is_fixed_by_the_seed_alone():
    for workload, (_, ladder) in families.WORKLOADS.items():
        first = families.instance_set(workload, 3)
        assert first == families.instance_set(workload, 3)
        assert len(first) == families.ROUNDS * len(ladder)


def test_pace_scaling_is_proportional():
    assert run.Pacer.scale(0.2, 2 * run.PACE_NOMINAL_S) == pytest.approx(0.1)
    pacer = run.Pacer()
    value, pace = pacer.around(lambda: "done")
    assert value == "done" and pace > 0 and len(pacer.readings) == 2
