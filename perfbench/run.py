"""Benchmark entry point: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload fig6-inproc --seed 1 --seconds 35 --trace 0

Prints a table of every metric with its unit, then, as the last line,
``{"correct", "attempted", "failed", "metrics"}`` as one JSON object.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  ``failed / attempted`` is the share of
sink epochs that differed from the reference.

Protocol.  Inputs are generated from ``--seed``; the reference output
(``evaluate_dag``) is computed in a child process so that its memory
stays out of ``peak_rss_mb``.  One untimed warm-up pass per mode
follows the first set-up; then rounds of short passes, each on a freshly
built pipeline or simulator, one pass per mode, run until ``--seconds``
have elapsed, with set-ups repeated between rounds.  The garbage
collector stays on, as users pay for it; leftovers of the previous pass
are collected before each pass.  Every pass's sink output is checked
epoch by epoch against the reference, and a missing or unexpected sink
fails all of its epochs.

Estimators.  On a shared 2-core host, identical back-to-back passes
differ by up to 2.5x: the host's slow state mostly comes and goes every
second or two, but at times lasts a minute, so the median over all
passes of a run moved by 30% between runs.  Each timing is therefore the
run's fastest pass (or set-up), and an epoch's latency its fastest push
over the run's batched passes; the p50 and tail are then taken over
epochs.  A long window (35 s) makes a run that is slow throughout rarer.
On the simulator the epoch latency is the simulated marker latency at
the sink, which is deterministic per seed.

Tracing.  The traced run alternates untraced and traced passes of the
primary mode.  Traced passes must reproduce the untraced sink traces
(and, on the simulator, the makespan) exactly, and their counts must
repeat exactly from pass to pass; counts that do not are reported in
``trace.unstable_counts``.  A traced layer without a self-time metric
makes the run incorrect, so the reported self times always add up to
``trace.wall_s``.  Layer times come from the fastest traced pass.  Which
end-to-end metric each layer should move:

- ``operators.<vertex>``: ``throughput_eps`` and epoch latency on
  fig6-inproc (``serial_throughput_eps`` through ``handle``); SORT1 and
  SORT2 do not run on the Yahoo workloads.
- ``operators.merge``, ``compiler.inprocess`` (worklist routing):
  yahoo-fanin-inproc; buffered events move ``peak_rss_mb``.
- ``db.table``: both in-process workloads (JFM, FilterMap).
- ``storm.*``, ``compiler.glue``, ``compiler.glue.merge``:
  ``throughput_eps`` and ``serial_throughput_eps`` on q3-sim-recovery;
  zero in-process.  ``storm.batching.delivered_per_input`` moves the
  primary mode only.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.compiler.glue import AlignedCaptureBolt, CompiledBolt, MergeFrontend  # noqa: E402
from repro.compiler.inprocess import InProcessPipeline  # noqa: E402
from repro.dag.graph import VertexKind  # noqa: E402
from repro.db import Derby  # noqa: E402
from repro.db.table import Table  # noqa: E402
from repro.operators.merge import Merge  # noqa: E402
from repro.storm import Simulator  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Pass, compare_epochs  # noqa: E402

#: Percentiles the latency tail is chosen from: the highest one with at
#: least TAIL_BEYOND samples above it.
TAIL_LADDER = (50, 75, 90, 95, 99)
TAIL_BEYOND = 10
#: A round starts with a timed set-up while set-ups have taken at most
#: this share of the window, so that cheap set-ups are sampled across the
#: whole window like the passes, and an expensive one (fig6's model
#: training) leaves most of the window to the passes.
SETUP_SHARE = 0.25
#: Rounds (one pass per mode) every run makes, however short its window.
MIN_ROUNDS = 3

#: Operator vertices of the four DAGs, reported by name.
VERTICES = (
    "JFM", "SORT1", "LI", "Map", "SORT2", "Avg", "Predict",
    "FilterMap", "Count10s", "Locate", "History",
)
#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "operators.merge", "compiler.inprocess", "db.table", "storm.simulator",
    "storm.costs", "storm.groupings", "compiler.glue", "compiler.glue.merge",
)
#: Layers reported as ``storm.recovery.snapshot_s`` and ``restore_s``.
RECOVERY_LAYERS = ("storm.recovery.snapshot", "storm.recovery.restore")


def tail_percentile(samples: List[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest ladder percentile whose
    nearest-rank sample has at least TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in reversed(TAIL_LADDER):
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    raise ValueError(f"{n} samples are too few for a tail percentile")


def unreported_layers(rec: tracing.Recorder) -> List[str]:
    """Layers that recorded spans but have no self-time metric, so that
    the reported self times would not add up to the pass's wall time."""
    reported = {f"operators.{v}" for v in VERTICES}
    reported.update(SELF_TIME_LAYERS, RECOVERY_LAYERS, (tracing.BOOKKEEPING,))
    return sorted(set(rec.self_s) - reported)


def declared_metrics(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_pass(workload, models, primary: bool = True,
             recorder: Optional[tracing.Recorder] = None) -> Pass:
    """Build a fresh instance and drive the whole input through it,
    traced into ``recorder`` when one is given."""
    gc.collect()
    with contextlib.ExitStack() as stack:
        wrap = functools.partial(tracing.patch, stack, recorder)
        if recorder is not None:
            wrap_classes(wrap, workload.backend)
        handle, runner = workload.build(models, primary)
        if recorder is not None:
            wrap_instances(wrap, handle, runner)
        result = workload.drive(runner, primary)
    result.outputs = workload.outputs(handle, runner)
    return result


# -- tracing: which entry points make up each layer -----------------------


def wrap_classes(wrap: Callable, backend: str) -> None:
    """Class-level wrappers, installed before the instance is built (the
    JFM stage binds ``Table.lookup_one`` when the DAG is built)."""
    for owner, name in ((Table, "lookup_one"), (Table, "lookup"), (Derby, "lookup")):
        wrap(owner, name, "db.table")
    if backend == "inprocess":
        wrap(InProcessPipeline, "push", "compiler.inprocess")
        wrap(InProcessPipeline, "push_batch", "compiler.inprocess")
        wrap(Merge, "handle", "operators.merge", tracing.merge_buffered)
        wrap(Merge, "handle_batch", "operators.merge", tracing.merge_buffered)
        return
    wrap(Simulator, "run", "storm.simulator")
    for bolt in (CompiledBolt, AlignedCaptureBolt):
        wrap(bolt, "execute", "compiler.glue", tracing.glue_tuples(False))
        wrap(bolt, "execute_batch", "compiler.glue", tracing.glue_tuples(True))
        wrap(bolt, "snapshot_state", RECOVERY_LAYERS[0])
        wrap(bolt, "restore_state", RECOVERY_LAYERS[1])
    wrap(MergeFrontend, "accept", "compiler.glue.merge", tracing.frontend_buffered)
    wrap(MergeFrontend, "accept_batch", "compiler.glue.merge", tracing.frontend_buffered)


def wrap_instances(wrap: Callable, handle, runner) -> None:
    """Instance-level wrappers on the built DAG or compiled topology:
    each operator, the cost model, and the grouping classes in use
    (``select`` is wrapped on the class, because ``Simulator.run``
    deep-copies every grouping per sender)."""
    if isinstance(runner, InProcessPipeline):
        operators = [
            v.payload for v in handle.topological_order() if v.kind == VertexKind.OP
        ]
    else:
        components = list(handle.topology.components.values())
        operators = [
            op for spec in components if isinstance(spec.payload, CompiledBolt)
            for op in spec.payload.operators
        ]
        for name in ("cpu_cost", "vertex_cost", "glue_cost", "network_delay",
                     "spout_cost"):
            wrap(runner.cost_model, name, "storm.costs")
        grouping_classes = {
            type(grouping) for spec in components for grouping in spec.inputs.values()
        }
        for cls in sorted(grouping_classes, key=lambda c: c.__name__):
            wrap(cls, "select", "storm.groupings")
    for op in operators:
        layer = f"operators.{op.label()}"
        wrap(op, "handle", layer, tracing.count_operator_events(layer, False))
        wrap(op, "handle_batch", layer, tracing.count_operator_events(layer, True))


def layer_counts(rec: tracing.Recorder, p: Pass) -> Dict[str, int]:
    """The per-layer counts, which must repeat exactly for a seed."""
    counts: Dict[str, int] = {}
    for vertex in VERTICES:
        layer = f"operators.{vertex}"
        counts[f"{layer}.calls"] = rec.calls.get(layer, 0)
        counts[f"{layer}.events_in"] = rec.counters.get((layer, "events_in"), 0)
        counts[f"{layer}.events_out"] = rec.counters.get((layer, "events_out"), 0)
    counts["operators.merge.calls"] = rec.calls.get("operators.merge", 0)
    counts["operators.merge.peak_buffered_events"] = rec.peaks.get(
        ("operators.merge", "peak_buffered_events"), 0)
    counts["db.table.lookups"] = rec.calls.get("db.table", 0)
    counts["storm.costs.calls"] = rec.calls.get("storm.costs", 0)
    counts["storm.groupings.selects"] = rec.calls.get("storm.groupings", 0)
    counts["compiler.glue.executions"] = rec.calls.get("compiler.glue", 0)
    counts["compiler.glue.merge.calls"] = rec.calls.get("compiler.glue.merge", 0)
    counts["compiler.glue.merge.peak_buffered_events"] = rec.peaks.get(
        ("compiler.glue.merge", "peak_buffered_events"), 0)
    counts["storm.recovery.snapshots"] = rec.calls.get(RECOVERY_LAYERS[0], 0)
    for name in ("rollbacks", "replayed_events", "retransmissions",
                 "duplicates_filtered"):
        counts[f"storm.recovery.{name}"] = p.report.get(name, 0)
    return counts


def layer_metrics(rec: tracing.Recorder, p: Pass, counts: Dict[str, int]) -> Dict[str, float]:
    """Self seconds per layer and the per-layer ratios for one traced
    pass (zero where a layer does not run).  The part of the pass's wall
    time outside every span is the producer loop's own."""
    metrics = {f"operators.{v}.self_s": rec.self_s.get(f"operators.{v}", 0.0)
               for v in VERTICES}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = rec.self_s.get(layer, 0.0)
    snapshot, restore = RECOVERY_LAYERS
    metrics["storm.recovery.snapshot_s"] = rec.self_s.get(snapshot, 0.0)
    metrics["storm.recovery.restore_s"] = rec.self_s.get(restore, 0.0)
    metrics["trace.bookkeeping_s"] = rec.self_s.get(tracing.BOOKKEEPING, 0.0)
    metrics["bench.producer.self_s"] = p.wall - rec.total_self()
    metrics["trace.wall_s"] = p.wall
    executions = counts["compiler.glue.executions"]
    metrics["compiler.glue.tuples_per_execution"] = (
        rec.counters.get(("compiler.glue", "tuples"), 0) / executions if executions else 0.0
    )
    sim = bool(p.report)
    metrics["storm.simulator.sim_throughput_tps"] = p.report.get("sim_throughput_tps", 0.0)
    metrics["storm.recovery.useful_ratio"] = (
        p.events / (p.events + counts["storm.recovery.replayed_events"]) if sim else 0.0
    )
    metrics["storm.batching.delivered_per_input"] = (
        p.report["delivered"] / p.events if sim else 0.0
    )
    return metrics


# -- protocol -------------------------------------------------------------


class Checks:
    """Epochs checked against the reference, and any other failure."""

    def __init__(self, reference: Dict[str, List[str]]):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def outputs(self, outputs: Dict[str, List[str]], label: str) -> None:
        """A missing sink fails all its reference epochs, an unexpected
        one all its own."""
        for sink in sorted(set(outputs) | set(self.reference)):
            attempted, failed = compare_epochs(
                outputs.get(sink, []), self.reference.get(sink, [])
            )
            self.attempted += attempted
            self.failed += failed
            if failed:
                self.problem(f"{label}: {failed}/{attempted} epochs of {sink} differ")

    def problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)

    @property
    def correct(self) -> bool:
        return not self.problems


def time_setup(workload) -> Tuple[float, Any]:
    """One timed set-up, and the models it built."""
    gc.collect()
    start = time.perf_counter()
    models = workload.setup()
    return time.perf_counter() - start, models


def require_rollback(workload, first: Pass) -> None:
    if workload.requires_rollback and first.report["rollbacks"] < 1:
        raise SystemExit(
            f"{workload.name}: the fault plan for seed {workload.seed} forced no "
            "rollback, so the run would measure nothing about recovery"
        )


def measure(workload, models, checks: Checks, seconds: float,
            setups: List[float]) -> Dict[str, float]:
    """The end-to-end metrics (tracing off); ``setups`` holds the set-up
    times so far and gains more."""
    modes = (True, False)  # primary, event-at-a-time
    warm = {mode: run_pass(workload, models, mode) for mode in modes}
    for mode, p in warm.items():
        checks.outputs(p.outputs, f"warm-up {'primary' if mode else 'serial'}")
    require_rollback(workload, warm[True])
    passes: Dict[bool, List[Pass]] = {mode: [] for mode in modes}
    began = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < began + seconds:
        if sum(setups) <= SETUP_SHARE * (time.perf_counter() - began):
            setups.append(time_setup(workload)[0])
        for mode in modes:
            p = run_pass(workload, models, mode)
            checks.outputs(p.outputs, "primary" if mode else "serial")
            if p.makespan != warm[mode].makespan:
                checks.problem("simulated makespan differs between identical passes")
            passes[mode].append(p)
        rounds += 1
    primary = passes[True]
    serial = passes[False]
    latencies = [min(epoch) for epoch in zip(*(p.latencies for p in primary))]
    percentile, tail = tail_percentile(latencies)
    print(f"# {len(setups)} set-ups, {len(primary)} primary passes, "
          f"{len(serial)} serial passes, "
          f"latency tail = p{percentile} of {len(latencies)} epochs")
    return {
        "throughput_eps": max(p.throughput for p in primary),
        "serial_throughput_eps": max(p.throughput for p in serial),
        "epoch_latency_p50_ms": 1e3 * statistics.median(latencies),
        "epoch_latency_tail_ms": 1e3 * tail,
    }


def measure_traced(workload, models, checks: Checks, seconds: float) -> Dict[str, float]:
    """The per-layer metrics from traced passes of the primary mode."""
    first_plain = run_pass(workload, models)
    checks.outputs(first_plain.outputs, "untraced")
    require_rollback(workload, first_plain)
    plain_walls: List[float] = []
    traced: List[Tuple[Pass, tracing.Recorder]] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_ROUNDS or time.perf_counter() < deadline:
        plain = run_pass(workload, models)
        rec = tracing.Recorder()
        p = run_pass(workload, models, recorder=rec)
        checks.outputs(p.outputs, "traced")
        for layer in unreported_layers(rec):
            checks.problem(f"layer {layer} has no self-time metric")
        if p.outputs != plain.outputs:
            checks.problem("traced sink traces differ from the untraced pass")
        if p.makespan != plain.makespan:
            checks.problem("traced makespan differs from the untraced pass")
        plain_walls.append(plain.wall)
        traced.append((p, rec))
    counts = [layer_counts(rec, p) for p, rec in traced]
    unstable = sorted(
        name for name in counts[0] if any(c[name] != counts[0][name] for c in counts)
    )
    for name in unstable:
        print(f"# count not exact across identical passes: {name}")
    p, rec = min(traced, key=lambda pair: pair[0].wall)
    metrics: Dict[str, float] = dict(counts[0])
    metrics.update(layer_metrics(rec, p, counts[0]))
    metrics["trace.slowdown"] = p.wall / min(plain_walls)
    metrics["trace.unstable_counts"] = len(unstable)
    print(f"# {len(traced)} traced passes")
    return metrics


def compute_reference(name: str, seed: int) -> Dict[str, List[str]]:
    """``workloads.reference_digests`` in a child process, waited for."""
    code = (
        "import json, sys, workloads; "
        "json.dump(workloads.reference_digests(sys.argv[1], int(sys.argv[2])), sys.stdout)"
    )
    path = [HERE, os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    child = subprocess.run(
        [sys.executable, "-c", code, name, str(seed)], check=True,
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    return json.loads(child.stdout)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")

    workload = WORKLOADS[args.workload](args.seed)
    checks = Checks(compute_reference(args.workload, args.seed))
    setup_s, models = time_setup(workload)
    if args.trace:
        metrics = measure_traced(workload, models, checks, args.seconds)
    else:
        setups = [setup_s]
        metrics = measure(workload, models, checks, args.seconds, setups)
        metrics["setup_s"] = min(setups)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        metrics["correct_epoch_ratio"] = 1.0 - checks.failed / checks.attempted
    if set(metrics) != set(declared):
        raise SystemExit(
            "metrics do not match BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(declared))}"
        )
    for problem in checks.problems:
        print(f"# INCORRECT: {problem}")
    for name in declared:
        print(f"{name:48s} {metrics[name]:>16.6g} {declared[name]}")
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": declared[name]} for name in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
