"""Epoch-batched vs. event-at-a-time execution.

The batching engine's headline numbers: the in-process backend runs the
Figure 6 Smart-Homes pipeline both event-at-a-time (``push``: each
kernel fed one event at a time) and epoch-batched (``push_batch``: one
kernel call per block), asserts the canonical sink traces are identical — the
data-trace types license the batching, so the denotation must not move —
and reports the wall-clock speedup.  A second case runs the Section 2
motivation pipeline as a small smoke workload (the CI perf gate), and a
third compares the simulated cluster with micro-batching and typed
shuffle combiners on vs. off.

Measurement protocol (``timeit``'s): GC disabled inside the timed
region, best-of-N (min) as the estimator, the serial and batched passes
alternating within each of the N repeats so that host load which comes
and goes during the measurement reaches both modes alike.
"""

from __future__ import annotations

import gc
import time

from repro.apps.iot.pipeline import iot_typed_dag
from repro.apps.iot.sensors import SensorWorkload
from repro.apps.smarthomes import smart_homes_dag
from repro.bench import MarkerTriggerCost, fused_cost_model, measure_throughput
from repro.bench.reporting import emit_bench_json
from repro.compiler import compile_dag
from repro.compiler.compile import source_from_events
from repro.compiler.inprocess import compile_inprocess
from repro.storm.batching import BatchingOptions
from repro.storm.local import events_to_trace

from conftest import SPOUTS, TASKS_PER_MACHINE

#: CI floor: the batched engine must beat event-at-a-time by at least
#: this factor.  The measured ratio on the full fig6 workload is
#: 1.58-1.80x in 19 of 20 runs on a 2-core shared host (median 1.64x;
#: see BENCH_batching.json), so the floor leaves little headroom for
#: noisy shared runners.
SPEEDUP_FLOOR = 1.5

REPEATS = 5


def _time_push(dag, source, sink, events, repeats=REPEATS):
    """Best-of-``repeats`` wall time for one full stream in each mode,
    the modes alternating within each repeat.  Returns ``(serial_s,
    serial_out, batched_s, batched_out)``, with the sink events of each
    mode's last run for the trace-equality check."""
    best = {False: float("inf"), True: float("inf")}
    outputs = {}
    for _ in range(repeats):
        for batched in (False, True):
            pipe = compile_inprocess(dag, batched=batched)
            gc.collect()
            gc.disable()
            t0 = time.perf_counter()
            if batched:
                pipe.push_batch(source, events)
            else:
                push = pipe.push
                for event in events:
                    push(source, event)
            elapsed = time.perf_counter() - t0
            gc.enable()
            best[batched] = min(best[batched], elapsed)
            outputs[batched] = pipe.outputs(sink)
    return best[False], outputs[False], best[True], outputs[True]


def _record(serial_s, batched_s, n_events):
    return {
        "events": n_events,
        "serial_s": round(serial_s, 4),
        "batched_s": round(batched_s, 4),
        "serial_eps": round(n_events / serial_s),
        "batched_eps": round(n_events / batched_s),
        "speedup": round(serial_s / batched_s, 2),
    }


def test_batching_inprocess_fig6(smarthomes_workload, smarthomes_models, benchmark):
    """Figure 6 pipeline, in-process: batched must be >= 1.5x serial
    (measured 1.7-2.7x) with identical canonical sink traces."""
    events = list(smarthomes_workload.events())
    dag = smart_homes_dag(smarthomes_workload.make_database(), smarthomes_models)

    serial_s, serial_out, batched_s, batched_out = _time_push(
        dag, "hub", "SINK", events)

    assert events_to_trace(serial_out, False) == events_to_trace(batched_out, False), (
        "batched execution changed the canonical sink trace"
    )
    speedup = serial_s / batched_s
    print(f"\nfig6 in-process: serial {serial_s:.3f}s, batched {batched_s:.3f}s, "
          f"speedup {speedup:.2f}x over {len(events)} events")
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched in-process run only {speedup:.2f}x serial "
        f"(floor {SPEEDUP_FLOOR}x)"
    )

    emit_bench_json("BENCH_batching.json", {
        "inprocess_fig6": _record(serial_s, batched_s, len(events)),
    })
    benchmark.extra_info["speedup"] = round(speedup, 2)

    def kernel():
        pipe = compile_inprocess(dag, batched=True)
        pipe.push_batch("hub", events)
        return pipe

    benchmark.pedantic(kernel, rounds=3, iterations=1)


def test_batching_inprocess_smoke(benchmark):
    """The CI perf gate: a seconds-scale workload (the Section 2
    motivation pipeline) where batched must still be >= 1.5x serial."""
    workload = SensorWorkload(n_sensors=12, duration=300, marker_period=10)
    events = list(workload.events())
    dag = iot_typed_dag(parallelism=2)

    serial_s, serial_out, batched_s, batched_out = _time_push(
        dag, "SENSOR", "SINK", events)

    assert events_to_trace(serial_out, False) == events_to_trace(batched_out, False)
    speedup = serial_s / batched_s
    print(f"\nmotivation smoke: serial {serial_s * 1e3:.1f}ms, "
          f"batched {batched_s * 1e3:.1f}ms, speedup {speedup:.2f}x")
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched smoke run only {speedup:.2f}x serial (floor {SPEEDUP_FLOOR}x)"
    )

    emit_bench_json("BENCH_batching.json", {
        "inprocess_smoke": _record(serial_s, batched_s, len(events)),
    })

    def kernel():
        pipe = compile_inprocess(dag, batched=True)
        pipe.push_batch("SENSOR", events)
        return pipe

    benchmark.pedantic(kernel, rounds=3, iterations=1)


def _fig6_vertex_costs():
    return {
        "JFM": 30e-6,
        "SORT1": MarkerTriggerCost(1.5e-6, 20e-6),
        "LI": 1e-6,
        "Map": 0.5e-6,
        "SORT2": MarkerTriggerCost(1.5e-6, 20e-6),
        "Avg": 1e-6,
        "Predict": 5e-6,
    }


def test_batching_simulator_fig6(smarthomes_workload, smarthomes_models):
    """Simulated cluster: epoch micro-batching plus typed shuffle
    combiners must not increase the makespan, and the batched schedule
    accounts for every input tuple."""
    machines = 4
    events = smarthomes_workload.events()

    def build():
        dag = smart_homes_dag(
            smarthomes_workload.make_database(),
            smarthomes_models,
            parallelism=machines * TASKS_PER_MACHINE,
        )
        return compile_dag(dag, {"hub": source_from_events(events, SPOUTS)})

    def simulate(batching_for):
        compiled = build()
        batching = batching_for(compiled)
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        report = measure_throughput(
            compiled.topology, machines,
            fused_cost_model(_fig6_vertex_costs(), generated=True),
            batching=batching,
        )
        wall = time.perf_counter() - t0
        gc.enable()
        return report, wall

    serial, serial_wall = simulate(lambda compiled: None)
    micro, micro_wall = simulate(
        lambda compiled: BatchingOptions.for_compiled(compiled, combine=False)
    )
    full, full_wall = simulate(
        lambda compiled: BatchingOptions.for_compiled(compiled)
    )

    assert micro.input_all_tuples == serial.input_all_tuples
    assert full.input_all_tuples == serial.input_all_tuples
    assert micro.makespan <= serial.makespan
    assert full.makespan <= serial.makespan

    def row(report, wall):
        return {
            "makespan_s": round(report.makespan, 4),
            "sim_throughput_tps": round(report.throughput()),
            "wall_s": round(wall, 3),
        }

    print(f"\nsimulator fig6 @ {machines} machines: "
          f"serial makespan {serial.makespan:.3f}s, "
          f"micro-batch {micro.makespan:.3f}s, "
          f"+combiners {full.makespan:.3f}s")

    emit_bench_json("BENCH_batching.json", {
        "simulator_fig6": {
            "machines": machines,
            "serial": row(serial, serial_wall),
            "micro_batch": row(micro, micro_wall),
            "micro_batch_and_combiners": row(full, full_wall),
            "makespan_improvement": round(
                serial.makespan / full.makespan, 3
            ),
        },
    })
