"""Golden schedules: the simulator's exact output, pinned per configuration.

The simulator is seeded and deterministic, so one topology and seed
give one schedule.  The parity suites compare canonical sink traces (or
two runs of the same code); this file instead pins a digest of the
*schedule itself* — makespan, per-component counts, every sink delivery
time, per-machine busy time and the recovery accounting — for Query III
under each execution mode, and for Query IV micro-batched with combiners.
A refactor of the simulator's execution paths, or of an operator kernel,
must leave every digest unchanged.

Keys are routed through the FNV ``default_key_hash``, so the digests do
not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps.yahoo.events import YahooWorkload
from repro.apps.yahoo.queries import query3, query3_costs, query4, query4_costs
from repro.compiler import compile_dag
from repro.compiler.compile import source_from_events
from repro.obs import MonitorHub, ObsContext
from repro.operators.base import KV, Marker
from repro.storm import Cluster, Simulator
from repro.storm.batching import BatchingOptions
from repro.storm.costs import PerComponentCostModel
from repro.storm.faults import (
    CrashFault, EdgeFaults, FaultPlan, MachineFault, demo_plan,
)
from repro.storm.groupings import MarkerAwareGrouping
from repro.storm.recovery import RecoveryOptions
from repro.storm.topology import Bolt, CaptureBolt, IteratorSpout, TopologyBuilder

SEED = 7


def schedule_digest(report) -> str:
    """sha1 over the parts of a report that the schedule determines."""
    recovery = report.recovery.to_dict() if report.recovery is not None else None
    pinned = (
        report.makespan,
        sorted(report.processed.items()),
        sorted(report.emitted.items()),
        sorted(report.sink_delivery_times.items()),
        sorted(report.machine_busy.items()),
        recovery,
    )
    return hashlib.sha1(repr(pinned).encode()).hexdigest()


def run_q3(batched=False, faults=None, recovery=None, obs=None,
           remote_cpu=0.0):
    """A small Query III run: 20 one-second epochs of 30 events, 2 spouts,
    4-way parallel stages on 2 machines of 2 cores.  ``obs`` may also be
    a function of the compiled topology that builds the context."""
    workload = YahooWorkload(seconds=20, events_per_second=30, seed=SEED)
    events = workload.events()
    compiled = compile_dag(
        query3(workload.make_database(), 4),
        {"events": source_from_events(events, 2)},
    )
    if callable(obs):
        obs = obs(compiled)
    if faults == "demo":
        faults = demo_plan(compiled.topology, SEED)
    costs = query3_costs()
    costs.remote_cpu = remote_cpu
    simulator = Simulator(
        compiled.topology, Cluster(2, cores_per_machine=2),
        cost_model=costs, seed=SEED,
        batching=BatchingOptions.for_compiled(compiled) if batched else None,
        faults=faults, recovery=recovery, obs=obs,
    )
    return simulator.run()


def run_q4_batched():
    """Query IV on the same input, micro-batched with the typed combiner,
    so pre-folded ``CombinedAgg`` values reach the Count10s window
    kernel."""
    workload = YahooWorkload(seconds=20, events_per_second=30, seed=SEED)
    compiled = compile_dag(
        query4(workload.make_database(), 4),
        {"events": source_from_events(workload.events(), 2)},
    )
    return Simulator(
        compiled.topology, Cluster(2, cores_per_machine=2),
        cost_model=query4_costs(), seed=SEED,
        batching=BatchingOptions.for_compiled(compiled),
    ).run()


class Double(Bolt):
    def execute(self, state, tup, collector):
        event = tup.event
        if isinstance(event, KV):
            event = KV(event.key, 2 * event.value)
        collector.emit(event)


def run_plain(double_tasks=3, faults=None, recovery=None):
    """Hand-written bolts without ``execute_batch`` or ``cost_events``:
    charged through ``cpu_cost`` and never micro-batched."""
    events = []
    for epoch in range(1, 11):
        events += [KV(i % 7, epoch * i) for i in range(20)] + [Marker(epoch)]
    builder = TopologyBuilder("plain")
    builder.set_spout("src", IteratorSpout(lambda i, n: iter(events)), 1)
    builder.set_bolt("double", Double(), double_tasks).grouping(
        "src", MarkerAwareGrouping("hash")
    )
    builder.set_bolt("sink", CaptureBolt(), 1).grouping(
        "double", MarkerAwareGrouping("global")
    )
    costs = PerComponentCostModel({"double": 3e-6, "sink": 1e-6})
    costs.remote_cpu = 1e-6
    return Simulator(
        builder.build(), Cluster(2), cost_model=costs, seed=SEED,
        batching=BatchingOptions(), faults=faults, recovery=recovery,
    ).run()


def observed_q3(batched):
    """Query III with demo faults and recovery, observed by a tracer, a
    metrics registry and the compiled topology's monitor hub; returns
    the context."""
    contexts = []

    def collecting(compiled):
        contexts.append(ObsContext.collecting(
            monitors=MonitorHub.for_compiled(compiled)
        ))
        return contexts[0]

    run_q3(batched=batched, faults="demo", recovery=RecoveryOptions(),
           obs=collecting)
    return contexts[0]


def obs_digest(obs) -> str:
    """sha1 over everything an observed run records: trace records,
    metrics and monitor telemetry."""
    pinned = (
        obs.tracer.jsonl_records(),
        obs.metrics.snapshot(),
        obs.monitors.telemetry_records(),
    )
    return hashlib.sha1(repr(pinned).encode()).hexdigest()


CONFIGS = {
    "per-tuple": lambda: run_q3(),
    "micro-batch+combiners": lambda: run_q3(batched=True),
    "demo-faults+recovery/per-tuple": lambda: run_q3(
        faults="demo", recovery=RecoveryOptions(checkpoint_every=1)
    ),
    "demo-faults+recovery/micro-batch": lambda: run_q3(
        batched=True, faults="demo",
        recovery=RecoveryOptions(checkpoint_every=1),
    ),
    "edge-faults/no-recovery": lambda: run_q3(
        faults=FaultPlan(
            default_edge=EdgeFaults(drop=0.05, duplicate=0.05, reorder=0.1),
            seed=SEED,
        )
    ),
    "per-tuple/obs-collecting": lambda: run_q3(obs=ObsContext.collecting()),
    # Instrumentation keeps the batched schedule: same digests as above.
    "micro-batch+combiners/obs-collecting": lambda: run_q3(
        batched=True, obs=ObsContext.collecting()
    ),
    "demo-faults+recovery/micro-batch/obs-collecting": lambda: run_q3(
        batched=True, faults="demo",
        recovery=RecoveryOptions(checkpoint_every=1),
        obs=ObsContext.collecting(),
    ),
    # Cross-machine deserialization is charged per tuple inside a batch.
    "per-tuple/remote-cpu": lambda: run_q3(remote_cpu=2e-6),
    "micro-batch/remote-cpu": lambda: run_q3(batched=True, remote_cpu=2e-6),
    "plain-bolts": run_plain,
    # Plain single-channel bolts seal an epoch on every executed marker.
    "plain-bolts+crash+recovery": lambda: run_plain(
        double_tasks=1,
        faults=FaultPlan(crashes=(CrashFault("double", after_executions=120),)),
        recovery=RecoveryOptions(),
    ),
    # A permanent failure re-places machine 1's tasks on machine 0.
    "permanent-machine-fault+recovery/micro-batch": lambda: run_q3(
        batched=True,
        faults=FaultPlan(
            machine_faults=(MachineFault(1, at_time=3e-3, permanent=True),),
            seed=SEED,
        ),
        recovery=RecoveryOptions(),
    ),
    # Time-triggered faults: a task crash, then a transient machine
    # failure that must survive the first rollback's heap purge.
    "time-faults+recovery/per-tuple": lambda: run_q3(
        faults=FaultPlan(
            crashes=(CrashFault("Locate", task=1, at_time=1.5e-3),),
            machine_faults=(MachineFault(1, at_time=6e-3),),
            default_edge=EdgeFaults(drop=0.02, duplicate=0.02, reorder=0.05),
            seed=SEED,
        ),
        recovery=RecoveryOptions(checkpoint_every=1),
    ),
    "query4/micro-batch+combiners": run_q4_batched,
}

#: Any change here is a change of the simulated schedule, not a refactor.
GOLDEN = {
    "per-tuple": "67ef7314eb14bed116b444cddedb8b4ed56e0ca1",
    "micro-batch+combiners": "93e786c6da5f84e476700dbf355d32f8fb3864d1",
    "demo-faults+recovery/per-tuple": "3f7c9e57bd69597eeca3f59e70244733087e2cb9",
    "demo-faults+recovery/micro-batch": "7c9158ff86a7dcecba0432343c31f7c55457343a",
    "edge-faults/no-recovery": "69cf6a54b558099b424a8bbca6d5d962c2e3d91d",
    "per-tuple/obs-collecting": "67ef7314eb14bed116b444cddedb8b4ed56e0ca1",
    "micro-batch+combiners/obs-collecting": "93e786c6da5f84e476700dbf355d32f8fb3864d1",
    "demo-faults+recovery/micro-batch/obs-collecting": (
        "7c9158ff86a7dcecba0432343c31f7c55457343a"
    ),
    "per-tuple/remote-cpu": "9cf54345b7d02d13b51428e7509ca2b608ff9376",
    "micro-batch/remote-cpu": "66cf9b31b2e6355a4f95fa8971da9e7c8f7cafcc",
    "plain-bolts": "3c75f6638755efb6daba0d00fdf41c494693783a",
    "time-faults+recovery/per-tuple": "91c4bade1484ab79ba906160871f5993c99ff61f",
    "query4/micro-batch+combiners": "0bd9e93d42769090ae1ac147e1468074255eab17",
    "plain-bolts+crash+recovery": "4d5f0233d3d20f54993467ce18f42cb702d9e4c3",
    "permanent-machine-fault+recovery/micro-batch": (
        "f2d77b6d64c497e8289fc331662ee2e65dde9434"
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_schedule_matches_golden(name):
    assert schedule_digest(CONFIGS[name]()) == GOLDEN[name]


def test_fault_configs_engage():
    """The pinned fault runs really roll back, retransmit and lose
    tuples, so their digests cover the recovery and raw-fault paths;
    the time-triggered run rolls back twice, so its second fault
    survived the first rollback's heap purge."""
    for name in ("demo-faults+recovery/per-tuple",
                 "demo-faults+recovery/micro-batch"):
        stats = CONFIGS[name]().recovery
        assert stats.recoveries >= 1, name
        assert stats.retransmissions >= 1, name
        assert stats.duplicates_filtered >= 1, name
    for name in ("plain-bolts+crash+recovery",
                 "permanent-machine-fault+recovery/micro-batch"):
        assert CONFIGS[name]().recovery.recoveries >= 1, name
    timed = CONFIGS["time-faults+recovery/per-tuple"]().recovery
    assert timed.recoveries == 2
    raw = CONFIGS["edge-faults/no-recovery"]()
    clean = CONFIGS["per-tuple"]()
    assert raw.recovery.reordered >= 1
    assert raw.input_data_tuples == clean.input_data_tuples
    assert sum(raw.processed.values()) != sum(clean.processed.values())


#: Observed demo-fault runs: the instrumentation output itself, pinned.
OBS_GOLDEN = {
    "per-tuple": "fc22c4fa0eae0ac8d79de65e68e537e56e650a5b",
    "micro-batch": "e34c8236f31bfa7960fa8f78b028e8a21748a66d",
}


@pytest.mark.parametrize("mode", sorted(OBS_GOLDEN))
def test_obs_output_matches_golden(mode):
    assert obs_digest(observed_q3(mode == "micro-batch")) == OBS_GOLDEN[mode]
