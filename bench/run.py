"""The certify benchmark: seeded digraphs through `dtwone recognize` and then
`dtwone verify-cert`, the path a user takes to get and check an answer.

    python3 bench/run.py --workload yes-trees --seed 1 --seconds 28 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``.  One process and one thread feed the instances of the workload one at
a time (a closed loop with a single client) until ``--seconds`` have passed.
Both commands run in-process through the click entry point ``dtwone.cli.main``;
``setup_s`` times the interpreter start and import that a real CLI call pays
on top.  Every answer is checked: the certificate must pass ``verify-cert`` and
agree with what the family guarantees.

The instance set is fixed by the seed; the run passes over it again and
again until ``--seconds`` are up.  ``--trace 0`` prints the end-to-end
metrics: each try is scaled to a nominal host pace (see ``Pacer``), and each
instance counts with its median try.  ``--trace 1`` runs every instance once
plainly and once with the tracer's wrappers installed, and prints the
per-layer metrics, unscaled, as means per traced try.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))

import families  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_LAUNCHES = 11
# The pace loop's digraph and passes, and its fastest time on the 2-core
# Xeon VM (2.1 GHz, Python 3.11.7) where the benchmark was built.
PACE_VERTICES = 2000
PACE_PASSES = 3
PACE_NOMINAL_S = 0.0024
TIMES = ("recognize_s", "verify_s", "certify_s")

# The tail percentile: the highest on a 50/75/90 grid that leaves at least
# ten of a workload's 54 instances beyond it.
TAIL_PERCENTILE = 75

END_TO_END = (
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("certify_p50_s", "s"),
    ("certify_tail_s", "s"),
    ("recognize_p50_s", "s"),
    ("verify_p50_s", "s"),
    ("cert_bytes_p50", "bytes"),
    ("peak_rss_mb", "MB"),
)

# Means per traced instance; the yields are ratios of totals.
PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in tracing.LAYERS),
    *((f"{layer}.errors", "count") for layer in tracing.LAYERS),
    ("cli.recognize.self_s", "s"),
    ("cli.verify_cert.self_s", "s"),
    ("formats.parse_digraph.self_s", "s"),
    ("formats.format_certificate.self_s", "s"),
    ("formats.parse_certificate.self_s", "s"),
    ("dtw1.recognize_dtw1.self_s", "s"),
    ("dtw1.s_decomposition.self_s", "s"),
    ("dtw1.s_decomposition.separations", "count"),
    ("dtw1.sep_yield", "ratio"),
    ("dtw1.width1_dtd_from_sdec.self_s", "s"),
    ("dtw1.extract_minor_witness.self_s", "s"),
    ("dtw1.extract_minor_witness.script_steps", "count"),
    ("dtw1.shore_contraction_script.calls", "count"),
    ("dtw1.verify_witness.calls", "count"),
    ("dtw1.verify_witness.self_s", "s"),
    ("digraph.tight_separations.calls", "count"),
    ("digraph.tight_separations.self_s", "s"),
    ("digraph.tight_separations.returned", "count"),
    ("digraph.strong_components.calls", "count"),
    ("cycles.cycle_hypergraph.calls", "count"),
    ("cycles.cycle_hypergraph.self_s", "s"),
    ("cycles.cycle_hypergraph.cycles", "count"),
    ("cycles.find_closed_chain.self_s", "s"),
    ("cycles.chain_yield", "ratio"),
    ("games.haven_from_closed_chain.self_s", "s"),
    ("games.haven_from_closed_chain.entries", "count"),
    ("games.verify_haven.calls", "count"),
    ("games.verify_haven.self_s", "s"),
    ("decomp.validate_dtd.calls", "count"),
    ("decomp.validate_dtd.self_s", "s"),
    ("trace.e2e_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.spans", "count"),
)


# ---------------------------------------------------------------- one instance


def _innermost_layer(exc: BaseException) -> str:
    """The dtwone module of the deepest traceback frame, or `cli`."""
    layer = "cli"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("dtwone."):
            layer = module.split(".")[1]
        tb = tb.tb_next
    return layer


def _failure(result):
    """(exception type, layer) when a CLI call failed rather than answered.

    Exit 0 and exit 1 are answers.  An exception the command let escape is a
    failure even though click reports it as exit 1; exit 2 is a failure whose
    cause is the exception the command was handling when it exited.
    """
    exc = result.exception
    if isinstance(exc, SystemExit):
        if exc.code in (0, 1):
            return None
        if exc.__context__ is None:
            return f"exit {exc.code}", "cli"
        exc = exc.__context__
    if exc is None:
        return None
    return type(exc).__name__, _innermost_layer(exc)


def _records(text: str) -> set:
    return set(text.splitlines())


def judge(inst: families.Instance, rec, ver) -> tuple:
    """("ok" | "wrong" | "error", detail) for one instance's two CLI results."""
    failed = _failure(rec)
    if failed is not None:
        return "error", failed + ("recognize",)
    cert = _records(rec.stdout)
    verdict = "YES" if rec.exit_code == 0 else "NO"
    if f"verdict={verdict}" not in cert:
        return "wrong", f"exit {rec.exit_code} disagrees with the certificate's verdict"
    failed = _failure(ver)
    if failed is not None:
        return "error", failed + ("verify-cert",)
    if ver.exit_code != 0:
        return "wrong", "verify-cert refuted the certificate"
    if inst.verdict is not None and verdict != inst.verdict:
        return "wrong", f"verdict {verdict}, the family guarantees {inst.verdict}"
    if verdict == "YES" and "width=1" not in _records(ver.stdout):
        return "wrong", "verify-cert did not confirm width=1"
    if inst.length is not None and not {"pattern=bicycle", f"length={inst.length}"} <= cert:
        return "wrong", f"the witness is not Bicycle({inst.length})"
    return "ok", None


def certify(runner, main, inst, graph: Path, cert: Path, tracer=None, between=None) -> dict:
    """recognize, keep the certificate text, verify-cert; time each step.

    ``between``, if given, is called untimed between the two commands.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    t0 = time.perf_counter()
    with span("cli.recognize"):
        rec = runner.invoke(main, ["recognize", str(graph), "--format", "structured"])
    t1 = time.perf_counter()
    ver = None
    if _failure(rec) is None:
        if between is not None:
            between()
            resumed = time.perf_counter()
            t0, t1 = t0 + resumed - t1, resumed
        cert.write_bytes(rec.stdout_bytes)
        with span("cli.verify_cert"):
            ver = runner.invoke(main, ["verify-cert", str(graph), str(cert),
                                       "--format", "structured"])
    t2 = time.perf_counter()
    status, detail = judge(inst, rec, ver)
    return {
        "label": inst.label,
        "text": inst.text,
        "status": status,
        "detail": detail,
        "recognize_s": t1 - t0,
        "verify_s": t2 - t1,
        "certify_s": t2 - t0,
        "cert": rec.stdout_bytes,
    }


def typical(tries: list) -> dict:
    """One instance's tries as one result: each time is the median over the
    tries.  A failed try wins, so no failure is hidden."""
    failed = [t for t in tries if t["status"] != "ok"]
    if failed:
        return failed[0]
    return tries[0] | {name: statistics.median(t[name] for t in tries) for name in TIMES}


# ---------------------------------------------------------------- statistics


def percentile(values, q: float) -> float:
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


class Pacer:
    """Reads the host's pace around each timing, to scale it to a fixed pace.

    A shared host runs this process a third to a half slower in phases of
    seconds to minutes, and CPU time slows as much as wall time.  So a
    timing is taken between two runs of a fixed pure-Python loop, and scaled
    by PACE_NOMINAL_S over the mean of the two loops.  The scaled time is
    what the timing would be on a host that runs the loop in PACE_NOMINAL_S.
    The ratio of a timing to its loops moves far less between runs than the
    timing does, and less than the fastest loop of a run.  The loop walks a
    fixed random digraph with sets and frozensets, as the program does; it
    tracks the program's slowdowns better than integer arithmetic does.
    """

    def __init__(self):
        self.readings: list = []
        rng = random.Random(0)
        self.adjacency = [frozenset(rng.sample(range(PACE_VERTICES), 3))
                          for _ in range(PACE_VERTICES)]

    def read(self) -> float:
        t0 = time.perf_counter()
        for _ in range(PACE_PASSES):
            seen, sizes = set(), {}
            for start in range(PACE_VERTICES):
                if start in seen:
                    continue
                stack, reached = [start], []
                while stack:
                    v = stack.pop()
                    if v not in seen:
                        seen.add(v)
                        reached.append(v)
                        stack.extend(self.adjacency[v] - seen)
                sizes[frozenset(reached)] = len(reached)
        elapsed = time.perf_counter() - t0
        self.readings.append(elapsed)
        return elapsed

    def around(self, fn):
        """fn's result and the host's pace while it ran."""
        before = self.read()
        value = fn()
        return value, (before + self.read()) / 2

    @staticmethod
    def scale(seconds: float, pace: float) -> float:
        return seconds * PACE_NOMINAL_S / pace


def measure_setup(launches: int, pacer: Pacer) -> list:
    """(wall time, pace) of fresh interpreters that import dtwone.cli.

    One launch first, untimed, so byte-compilation is not counted.  The wait
    blocks rather than polls, so it adds no poll interval to the time; a timer
    kills a launch that hangs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import dtwone.cli"]

    def launch():
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        if code != 0:
            raise RuntimeError(f"`{' '.join(cmd)}` exited with {code}")
        return time.perf_counter() - t0

    launch()
    return [pacer.around(launch) for _ in range(launches)]


def end_to_end_metrics(results: list, setup_s: float, peak_rss_mb: float) -> tuple:
    """The end-to-end metrics of one result per instance, already scaled."""
    ok = [r for r in results if r["status"] == "ok"]
    tail = TAIL_PERCENTILE
    tail_s = percentile([r["certify_s"] for r in ok], tail)
    busy = sum(r["certify_s"] for r in results)
    values = {
        "setup_s": setup_s,
        "instances_per_s": len(ok) / busy,
        "certify_p50_s": percentile([r["certify_s"] for r in ok], 50),
        "certify_tail_s": tail_s,
        "recognize_p50_s": percentile([r["recognize_s"] for r in ok], 50),
        "verify_p50_s": percentile([r["verify_s"] for r in ok], 50),
        "cert_bytes_p50": percentile([r["cert_bytes"] for r in ok], 50),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {SETUP_LAUNCHES} launches",
        "instances_per_s": f"{len(ok)} certified in {busy:.2f} s of recognize + verify-cert",
        "certify_tail_s": f"p{tail}, {len(ok)} samples, "
                          f"{sum(1 for r in ok if r['certify_s'] > tail_s)} beyond",
    }
    for name in ("certify_p50_s", "recognize_p50_s", "verify_p50_s", "cert_bytes_p50"):
        notes[name] = f"{len(ok)} samples"
    return values, notes


def per_layer_metrics(tracer, traced: list, untraced: list) -> tuple:
    """Per-instance means of the traced run, and the largest deviation of
    (self times + remainder) from the traced end-to-end time."""
    selfs = tracer.self_times()
    by_name: dict = {}
    per_instance = [0.0] * len(traced)
    roots = [0.0] * len(traced)
    for span, own in zip(tracer.spans, selfs):
        name, start, end, parent, inst = span
        by_name[name] = by_name.get(name, 0.0) + own
        per_instance[inst] += own
        if parent < 0:
            roots[inst] += end - start
    e2e = [r["certify_s"] for r in traced]
    remainder = [t - root for t, root in zip(e2e, roots)]
    deviation = max(abs(own + rest - t) for own, rest, t in zip(per_instance, remainder, e2e))

    totals = dict(tracer.counts)
    for name, own in by_name.items():
        totals[name + ".self_s"] = own
        layer = tracing.layer_of(name) + ".self_s"
        totals[layer] = totals.get(layer, 0.0) + own
    for (layer, _), count in tracer.errors.items():
        totals[layer + ".errors"] = totals.get(layer + ".errors", 0) + count
    totals["trace.e2e_s"] = sum(e2e)
    totals["trace.untraced_s"] = sum(r["certify_s"] for r in untraced)
    totals["trace.overhead_s"] = totals["trace.e2e_s"] - totals["trace.untraced_s"]
    totals["trace.remainder_s"] = sum(remainder)
    totals["trace.spans"] = len(tracer.spans)

    def ratio(num, den):
        return totals.get(num, 0) / totals[den] if totals.get(den) else 0.0

    n = len(traced)
    values = {name: totals.get(name, 0) / n for name, _ in PER_LAYER}
    values["dtw1.sep_yield"] = ratio("dtw1.s_decomposition.separations",
                                     "digraph.tight_separations.returned")
    values["cycles.chain_yield"] = ratio("cycles.find_closed_chain.chain_length",
                                         "cycles.cycle_hypergraph.cycles")
    return values, deviation


# ---------------------------------------------------------------- the run


def passes(seconds: float):
    """Pass numbers while time remains.

    Only whole passes over the instance set run.  A pass starts while the time
    left exceeds half the previous pass, so a run ends, on average, when
    ``seconds`` are up; the first pass always runs.
    """
    start = time.perf_counter()
    last = 0.0
    for pass_no in itertools.count():
        began = time.perf_counter()
        if pass_no and began - start + last / 2 > seconds:
            return
        yield pass_no
        last = time.perf_counter() - began


def run(workload: str, seed: int, seconds: float, pacer: Pacer, trace: bool) -> dict:
    """Certify the workload's instance set, pass after pass, for ``seconds``.

    ``tries`` holds each instance's untraced tries, scaled to the nominal pace
    unless ``trace``; ``traced`` holds the traced tries in the tracer's
    instance order.  ``digest`` covers the certificates of the first pass, and
    ``peak_rss_mb`` is the process's peak resident memory at its end.
    """
    from click.testing import CliRunner

    from dtwone.cli import main

    runner = CliRunner()
    instances = families.instance_set(workload, seed)
    tries = [[] for _ in instances]
    traced = []
    tracer = tracing.Tracer() if trace else None
    digest = hashlib.sha256()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        graph, cert = work / "digraph.txt", work / "certificate.txt"

        def measure(inst, tracer=None, fold=False, between=None):
            graph.write_text(inst.text)
            result = certify(runner, main, inst, graph, cert, tracer, between)
            # Keep the size, not the bytes, so the benchmark's own memory
            # does not grow with the length of the run.
            cert_bytes = result.pop("cert")
            if fold:
                digest.update(cert_bytes)
            return result | {"cert_bytes": len(cert_bytes)}

        # Warm-up on a digon, untimed: click and the modules finish lazy set-up.
        measure(families.Instance("digon", "a b\nb a\n", "YES"))
        for pass_no in passes(seconds):
            for inst, inst_tries in zip(instances, tries):
                gc.collect()
                if tracer is None:
                    # Each command is scaled by the pace loops on either side of it.
                    paces = [pacer.read()]
                    result = measure(inst, fold=pass_no == 0,
                                     between=lambda: paces.append(pacer.read()))
                    paces.append(pacer.read())
                    recognize_s = pacer.scale(result["recognize_s"], sum(paces[:2]) / 2)
                    verify_s = pacer.scale(result["verify_s"], sum(paces[-2:]) / 2)
                    inst_tries.append(result | {"recognize_s": recognize_s, "verify_s": verify_s,
                                                "certify_s": recognize_s + verify_s})
                    continue
                # Alternate which try goes first, so neither always runs warm.
                tracer.instance = len(traced)
                for traced_try in ((False, True) if len(traced) % 2 else (True, False)):
                    if not traced_try:
                        inst_tries.append(measure(inst, fold=pass_no == 0))
                        continue
                    tracer.install()
                    try:
                        traced.append(measure(inst, tracer))
                    finally:
                        tracer.uninstall()
            if pass_no == 0:
                # Later passes only repeat the work; the allocator's slow
                # growth over them would tie this to the run's length.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"tries": tries, "traced": traced, "tracer": tracer, "digest": digest.hexdigest(),
            "peak_rss_mb": peak_rss_mb}


def report_failures(results: list) -> None:
    """Each distinct failure once, with its count and a replayable edge list."""
    failures = Counter((r["status"], r["detail"], r["label"], r["text"])
                       for r in results if r["status"] != "ok")
    for (status, detail, label, text), count in failures.items():
        if status == "error":
            kind, layer, command = detail
            print(f"error: {kind} in layer {layer} during {command} on {label} "
                  f"(x{count}); edge list:")
        else:
            print(f"wrong: {detail} on {label} (x{count}); edge list:")
        for line in text.splitlines():
            print(f"    {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(families.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dtwone" / "cli.py").is_file():
        print(f"error: no dtwone sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    pacer = Pacer()
    launches = None if args.trace else measure_setup(SETUP_LAUNCHES, pacer)
    out = run(args.workload, args.seed, args.seconds, pacer, bool(args.trace))
    plain = [t for inst_tries in out["tries"] for t in inst_tries]
    judged = out["traced"] if args.trace else [typical(t) for t in out["tries"]]
    wrong = sum(1 for r in plain + out["traced"] if r["status"] == "wrong")
    failed = [r for r in judged if r["status"] != "ok"]
    if len(failed) == len(judged):
        report_failures(judged)
        print("error: no instance was certified, so nothing can be measured", file=sys.stderr)
        return 1

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"instances attempted={len(judged)} ok={len(judged) - len(failed)} "
          f"wrong={wrong} errors={len(failed) - wrong}")
    print(f"error_ratio {len(failed) / len(judged):.6f} ratio "
          f"({len(failed)} of {len(judged)})")
    report_failures(judged)

    if args.trace:
        metrics, deviation = per_layer_metrics(out["tracer"], out["traced"], plain)
        units = dict(PER_LAYER)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}.jsonl"
        with spans_file.open("w") as fh:
            for span in out["tracer"].spans:
                fh.write(json.dumps(span) + "\n")
        for (layer, kind), count in sorted(out["tracer"].errors.items()):
            print(f"exception {kind} charged to layer {layer} x{count}")
        print(f"self times + remainder = traced end-to-end, per instance: "
              f"max deviation {deviation:.3g} s over {len(out['traced'])} instances")
        top = max(tracing.LAYERS, key=lambda layer: metrics[f"{layer}.self_s"])
        print(f"largest self time: layer {top}; spans written to {spans_file}")
        if deviation > 1e-6:
            print("error: span self times do not add up to the traced time", file=sys.stderr)
            return 1
    else:
        setup_s = statistics.median(pacer.scale(t, pace) for t, pace in launches)
        metrics, notes = end_to_end_metrics(judged, setup_s, out["peak_rss_mb"])
        print(f"passes {len(out['tries'][0])} over {len(judged)} instances")
        print(f"pace loop: {len(pacer.readings)} readings, fastest "
              f"{min(pacer.readings) * 1e3:.3f} ms, median "
              f"{statistics.median(pacer.readings) * 1e3:.3f} ms; times are scaled to "
              f"{PACE_NOMINAL_S * 1e3:g} ms")
        units = dict(END_TO_END)
        print(f"cert_sha256 {out['digest']} over {len(judged)} certificates")
    for name, value in metrics.items():
        note = "" if args.trace else notes.get(name, "")
        print(f"{name} {value!r} {units[name]}" + (f"  ({note})" if note else ""))

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(judged),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in (PER_LAYER if args.trace else END_TO_END)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
