"""Checkpointing-overhead + recovery-latency benchmark.

The fault-tolerance layer must be cheap enough to leave on: with
recovery enabled but no faults injected, the simulator draws the exact
same schedule as a plain run (reliable deliveries replace plain
deliveries one-for-one), so the wall-clock delta isolates the cost of
sequence numbering, resequencing, and epoch-aligned snapshots.  This
benchmark runs the Figure 6 Smart-Homes pipeline three ways — plain,
checkpointed-but-fault-free, and faulted-with-recovery — and reports:

- the checkpointing overhead (budget: <=10% wall-clock vs plain);
- recovered-run parity: canonical sink traces equal to the plain run;
- what the recovery machinery did (rollbacks, retransmissions,
  duplicates filtered, events replayed).
"""

from __future__ import annotations

import gc
import time

from repro.apps.smarthomes import (
    SmartHomesWorkload,
    smart_homes_dag,
    train_predictor,
)
from repro.bench import MarkerTriggerCost, fused_cost_model
from repro.bench.reporting import emit_bench_json, quartiles
from repro.compiler import compile_dag
from repro.compiler.compile import source_from_events
from repro.storm import Cluster, Simulator
from repro.storm.faults import demo_plan
from repro.storm.local import events_to_trace
from repro.storm.recovery import RecoveryOptions

from conftest import SPOUTS, TASKS_PER_MACHINE

MACHINES = 4
ROUNDS = 7
SEED = 1

CHECKPOINT_BUDGET = 0.10


def _vertex_costs():
    return {
        "JFM": 30e-6,
        "SORT1": MarkerTriggerCost(1.5e-6, 20e-6),
        "LI": 1e-6,
        "Map": 0.5e-6,
        "SORT2": MarkerTriggerCost(1.5e-6, 20e-6),
        "Avg": 1e-6,
        "Predict": 5e-6,
    }


def _setup():
    """A small-but-real Smart-Homes compile (full pipeline shape)."""
    workload = SmartHomesWorkload(
        n_buildings=6, units_per_building=4, plugs_per_unit=3, duration=60,
    )
    models = train_predictor(horizon=120, train_seconds=400, past=60)
    events = workload.events()

    def build():
        dag = smart_homes_dag(
            workload.make_database(), models,
            parallelism=MACHINES * TASKS_PER_MACHINE,
        )
        return compile_dag(dag, {"hub": source_from_events(events, SPOUTS)})

    return build


def _sink_traces(compiled):
    traces = {}
    for name, bolt in compiled.sinks.items():
        ordered = any(
            kind == "O"
            for (_, dst), kind in compiled.edge_kinds.items()
            if dst == name
        )
        traces[name] = events_to_trace(bolt.aligned_events, ordered)
    return traces


def _one_run(build, faults=None, recovery=None):
    """One timed simulation: (wall seconds, report, sink traces)."""
    compiled = build()
    simulator = Simulator(
        compiled.topology, Cluster(MACHINES, cores_per_machine=2),
        seed=SEED, cost_model=fused_cost_model(_vertex_costs()),
        faults=faults, recovery=recovery,
    )
    gc.disable()
    try:
        start = time.perf_counter()
        report = simulator.run()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed, report, _sink_traces(compiled)


def _time_run(build, faults=None, recovery=None):
    """Min-of-ROUNDS wall-clock seconds plus the last run's artifacts."""
    best = float("inf")
    report = traces = None
    for _ in range(ROUNDS):
        elapsed, report, traces = _one_run(build, faults, recovery)
        best = min(best, elapsed)
    return best, report, traces


def test_recovery_overhead(benchmark):
    build = _setup()
    _one_run(build)  # warmup: imports, dict layouts, page cache
    # Measure plain/checkpointed in adjacent pairs and judge the budget
    # on the median per-pair ratio: pairing cancels the clock-frequency
    # drift that sequential min-of-N cannot, and the median discards
    # the pairs where a host-noise spike hit only one side.
    plain = checkpointed = float("inf")
    ratios = []
    plain_report = plain_traces = ck_report = ck_traces = None
    for _ in range(ROUNDS):
        plain_i, plain_report, plain_traces = _one_run(build)
        plain = min(plain, plain_i)
        ck_i, ck_report, ck_traces = _one_run(
            build, recovery=RecoveryOptions(checkpoint_every=1)
        )
        checkpointed = min(checkpointed, ck_i)
        ratios.append(ck_i / plain_i)
    q1_ratio, median_ratio, q3_ratio = quartiles(ratios)
    overhead = median_ratio - 1.0

    # Scheduling parity: with no faults injected the fault RNG is never
    # drawn and every link stays on the plain delivery path, so the
    # checkpointed run must land on the same simulated outcome —
    # makespan and canonical traces alike.
    assert ck_report.makespan == plain_report.makespan
    assert ck_traces == plain_traces
    assert ck_report.recovery.recoveries == 0
    assert ck_report.recovery.checkpoints_taken > 0

    plan = demo_plan(build().topology, seed=SEED)
    faulted, faulted_report, faulted_traces = _time_run(
        build, faults=plan, recovery=RecoveryOptions(checkpoint_every=1)
    )
    stats = faulted_report.recovery
    assert faulted_traces == plain_traces, "recovered run lost parity"
    assert stats.recoveries >= 1, "demo plan never forced a rollback"

    print()
    print("Recovery overhead (Smart-Homes pipeline, "
          f"{MACHINES} machines, min of {ROUNDS} runs):")
    print(f"  plain                : {plain * 1e3:8.1f} ms")
    print(f"  checkpointed, 0 fail : {checkpointed * 1e3:8.1f} ms "
          f"({100 * overhead:+.1f}%, pair quartiles "
          f"{100 * (q1_ratio - 1):+.1f}% to {100 * (q3_ratio - 1):+.1f}%)")
    print(f"  faulted + recovered  : {faulted * 1e3:8.1f} ms "
          f"(recoveries={stats.recoveries}, "
          f"replayed={stats.replayed_events})")

    assert overhead <= CHECKPOINT_BUDGET, (
        f"checkpointing overhead {100 * overhead:.1f}% exceeds "
        f"{100 * CHECKPOINT_BUDGET:.0f}%"
    )

    benchmark.extra_info["checkpoint_overhead_percent"] = round(
        100 * overhead, 2
    )
    emit_bench_json("BENCH_recovery.json", {
        "recovery": {
            "workload": "smarthomes-small",
            "machines": MACHINES,
            "rounds": ROUNDS,
            "plain_seconds": round(plain, 6),
            "checkpointed_seconds": round(checkpointed, 6),
            "checkpoint_overhead_percent": round(100 * overhead, 2),
            "budget_percent": 100 * CHECKPOINT_BUDGET,
            "faulted_recovered_seconds": round(faulted, 6),
            "recovered_parity": faulted_traces == plain_traces,
            "checkpoints_taken": ck_report.recovery.checkpoints_taken,
            "faulted_stats": stats.to_dict(),
        },
    })

    benchmark.pedantic(
        lambda: _time_run(build, recovery=RecoveryOptions()),
        rounds=1, iterations=1,
    )
