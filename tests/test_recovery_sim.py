"""Fault injection + exactly-once recovery on the simulated cluster.

The headline property of ``repro.storm.faults``/``repro.storm.recovery``:
for every fault kind (task crash, machine failure, message drop,
duplication, reordering) and every scheduler seed, a faulted run with
recovery enabled produces canonical sink traces equal to the fault-free
run.  Equality is *trace* equality — the data-trace type of each sink
edge decides which orders matter — which is exactly the paper's notion
of two executions denoting the same transduction.
"""

from __future__ import annotations

import random

import pytest

from repro.compiler import compile_dag
from repro.compiler.compile import source_from_events
from repro.dag import TransductionDAG
from repro.errors import SimulationError, TaskFailureError
from repro.obs import ObsContext
from repro.obs.monitor import MonitorConfig, MonitorHub
from repro.obs.schema import validate_records
from repro.operators.base import KV, Marker
from repro.operators.library import map_values, tumbling_count
from repro.operators.sort import SortOp
from repro.storm import Cluster, Simulator
from repro.storm.batching import BatchingOptions
from repro.storm.costs import UniformCostModel
from repro.storm.faults import (
    CrashFault,
    EdgeFaults,
    FaultPlan,
    MachineFault,
)
from repro.storm.local import events_to_trace
from repro.storm.recovery import RecoveryOptions
from repro.traces.trace_type import ordered_type, unordered_type

U = unordered_type()
O = ordered_type()

SEEDS = range(5)


def build_dag():
    dag = TransductionDAG("recovery")
    src = dag.add_source("SRC", output_type=U)
    mapped = dag.add_op(
        map_values(lambda v: v + 1, name="MAP"), parallelism=2,
        upstream=[src], edge_types=[U],
    )
    counted = dag.add_op(
        tumbling_count("CNT"), parallelism=2, upstream=[mapped],
        edge_types=[U],
    )
    dag.add_sink("OUT", upstream=counted, input_type=U)
    return dag


def stream(seed=0, epochs=6, per_epoch=15):
    rng = random.Random(seed)
    events = []
    for epoch in range(1, epochs + 1):
        for _ in range(per_epoch):
            events.append(KV(rng.choice("abcde"), rng.randrange(10)))
        events.append(Marker(epoch))
    return events


def run(seed=0, faults=None, recovery=None, batching=False, cost=None,
        monitors=None, events=None, checkpoint_every=1):
    events = stream() if events is None else events
    compiled = compile_dag(build_dag(), {"SRC": source_from_events(events, 2)})
    if recovery is True:
        recovery = RecoveryOptions(checkpoint_every=checkpoint_every)
    simulator = Simulator(
        compiled.topology, Cluster(3, cores_per_machine=2), seed=seed,
        cost_model=cost,
        batching=BatchingOptions.for_compiled(compiled) if batching else None,
        faults=faults, recovery=recovery,
        obs=(ObsContext.collecting(monitors=monitors)
             if monitors is not None else None),
    )
    report = simulator.run()
    trace = events_to_trace(compiled.sinks["OUT"].aligned_events, False)
    return trace, report


BASELINE = None


@pytest.fixture(scope="module")
def baseline():
    global BASELINE
    if BASELINE is None:
        BASELINE = run()[0]
    return BASELINE


FAULT_KINDS = {
    "crash": FaultPlan(crashes=(CrashFault("MAP", task=0,
                                           after_executions=17),)),
    "drop": FaultPlan(default_edge=EdgeFaults(drop=0.15)),
    "duplicate": FaultPlan(default_edge=EdgeFaults(duplicate=0.15)),
    "reorder": FaultPlan(default_edge=EdgeFaults(reorder=0.3)),
}


class TestRecoveryParity:
    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_faulted_run_recovers_to_baseline(self, baseline, kind, seed):
        plan = FaultPlan(
            crashes=FAULT_KINDS[kind].crashes,
            default_edge=FAULT_KINDS[kind].default_edge,
            seed=seed,
        )
        trace, report = run(seed=seed, faults=plan, recovery=True)
        assert trace == baseline, (kind, seed)
        stats = report.recovery
        engaged = {
            "crash": stats.recoveries,
            "drop": stats.retransmissions,
            "duplicate": stats.duplicates_filtered,
            "reorder": stats.reordered,
        }[kind]
        assert engaged >= 1, f"{kind} fault never engaged (seed {seed})"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_engine_recovers_too(self, baseline, seed):
        plan = FaultPlan(
            crashes=(CrashFault("MAP", task=0, after_executions=3),),
            default_edge=EdgeFaults(drop=0.05, duplicate=0.05, reorder=0.1),
            seed=seed,
        )
        trace, report = run(seed=seed, faults=plan, recovery=True,
                            batching=True)
        assert trace == baseline
        assert report.recovery.recoveries >= 1

    def test_combined_faults(self, baseline):
        plan = FaultPlan(
            crashes=(CrashFault("MAP", task=1, after_executions=25),),
            default_edge=EdgeFaults(drop=0.05, duplicate=0.05, reorder=0.1),
            seed=7,
        )
        trace, report = run(seed=7, faults=plan, recovery=True)
        assert trace == baseline
        stats = report.recovery
        assert stats.recoveries >= 1
        assert stats.retransmissions >= 1
        assert stats.duplicates_filtered >= 1

    def test_sparse_checkpoints(self, baseline):
        """checkpoint_every > 1: rollback reaches further, parity holds."""
        plan = FaultPlan(crashes=(CrashFault("CNT", task=0,
                                             after_executions=20),))
        trace, report = run(faults=plan, recovery=True, checkpoint_every=3)
        assert trace == baseline
        assert report.recovery.recoveries >= 1

    def test_fault_free_run_with_recovery_is_identical(self, baseline):
        trace, report = run(recovery=True)
        assert trace == baseline
        assert report.recovery.recoveries == 0
        assert report.recovery.checkpoints_taken > 0


class TestMachineFaults:
    @pytest.mark.parametrize("permanent", [False, True])
    def test_machine_failure_recovers(self, baseline, permanent):
        cost = UniformCostModel(10e-6)
        base_trace, base_report = run(cost=cost)
        assert base_trace == baseline
        fault = MachineFault(machine=1,
                             at_time=base_report.makespan * 0.5,
                             permanent=permanent)
        trace, report = run(cost=cost,
                            faults=FaultPlan(machine_faults=(fault,)),
                            recovery=True)
        assert trace == baseline
        assert report.recovery.recoveries >= 1

    def test_machine_failure_without_recovery_raises(self):
        cost = UniformCostModel(10e-6)
        _, base_report = run(cost=cost)
        fault = MachineFault(machine=0, at_time=base_report.makespan * 0.5)
        with pytest.raises(TaskFailureError, match="machine 0 failed"):
            run(cost=cost, faults=FaultPlan(machine_faults=(fault,)))


class TestFailureContext:
    def test_crash_without_recovery_carries_context(self):
        plan = FaultPlan(crashes=(CrashFault("MAP", task=0,
                                             after_executions=5),))
        with pytest.raises(TaskFailureError) as info:
            run(faults=plan)
        failure = info.value
        assert failure.component == "MAP"
        assert failure.task_index == 0
        assert failure.machine is not None
        assert failure.report is not None
        assert failure.report.input_all_tuples > 0

    def test_unknown_component_rejected(self):
        plan = FaultPlan(crashes=(CrashFault("NOPE", after_executions=1),))
        with pytest.raises(SimulationError, match="unknown task"):
            run(faults=plan)

    @pytest.mark.parametrize("recovery", [None, True])
    def test_unknown_machine_rejected(self, recovery):
        """Machine 99 is not one of the 3 workers: with recovery it used
        to trigger a spurious global rollback, without it a failure."""
        plan = FaultPlan(machine_faults=(MachineFault(99, at_time=1e-4),))
        with pytest.raises(SimulationError, match="unknown machine 99"):
            run(faults=plan, recovery=recovery)

    def test_unknown_edge_rejected(self):
        plan = FaultPlan(edges={("NOPE", "X"): EdgeFaults(drop=0.5)})
        with pytest.raises(SimulationError, match="unknown edge"):
            run(faults=plan, recovery=True)

    @pytest.mark.parametrize("at_time", [float("nan"), float("inf"), -1e-3])
    def test_bad_fault_time_rejected(self, at_time):
        with pytest.raises(ValueError, match="at_time"):
            CrashFault("MAP", at_time=at_time)
        with pytest.raises(ValueError, match="at_time"):
            MachineFault(0, at_time=at_time)

    def test_negative_execution_count_rejected(self):
        with pytest.raises(ValueError, match="after_executions"):
            CrashFault("MAP", after_executions=-1)

    def test_gives_up_after_max_recoveries(self):
        """A permanently crash-looping task must terminate the run with
        a diagnosis, not loop forever."""
        plan = FaultPlan(crashes=tuple(
            CrashFault("MAP", task=0, after_executions=n)
            for n in range(2, 30)
        ))
        with pytest.raises(TaskFailureError, match="gave up after"):
            run(faults=plan,
                recovery=RecoveryOptions(max_recoveries=5))


class TestSimCliPlanCheck:
    """``repro sim --faults`` checks the plan against the run before the
    fault-free baseline, and refuses a bad one with one line, exit 2."""

    @pytest.mark.parametrize("plan, message", [
        ({"machine_faults": [{"machine": 99, "at_time": 0.001}]},
         "fault plan names unknown machine 99"),
        ({"crashes": [{"component": "NOPE", "after_executions": 1}]},
         "fault plan names unknown task ('NOPE', 0)"),
        ({"edges": [{"src": "NOPE", "dst": "X", "drop": 0.5}]},
         "fault plan names unknown edges [('NOPE', 'X')]"),
    ])
    def test_bad_plan_rejected_before_any_run(self, tmp_path, monkeypatch,
                                              capsys, plan, message):
        import json

        from repro.cli import main

        def no_run(self):
            raise AssertionError("a simulation ran before the plan check")

        monkeypatch.setattr(Simulator, "run", no_run)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(plan))
        assert main(["sim", "iot", "--faults", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestMonitorIntegration:
    """Satellite: recovery replay must not trip false violations."""

    def make_hub(self, compiled):
        return MonitorHub.for_compiled(compiled)

    def test_recovered_run_is_violation_free(self, baseline):
        events = stream()
        compiled = compile_dag(build_dag(),
                               {"SRC": source_from_events(events, 2)})
        hub = MonitorHub.for_compiled(compiled)
        plan = FaultPlan(
            crashes=(CrashFault("MAP", task=0, after_executions=40),),
            default_edge=EdgeFaults(drop=0.05, duplicate=0.05, reorder=0.1),
            seed=1,
        )
        simulator = Simulator(
            compiled.topology, Cluster(3, cores_per_machine=2), seed=1,
            faults=plan, recovery=RecoveryOptions(),
            obs=ObsContext.collecting(monitors=hub),
        )
        report = simulator.run()
        trace = events_to_trace(compiled.sinks["OUT"].aligned_events, False)
        assert trace == baseline
        assert report.recovery.recoveries >= 1
        assert hub.violation_count() == 0, hub.summary()
        assert hub.summary()["recoveries_total"] >= 1
        records = hub.telemetry_records()
        assert any(r.get("type") == "recovery" for r in records)
        validate_records(enumerate(records, start=1))

    def test_raw_reorder_on_o_edge_is_flagged_and_recovery_clears_it(self):
        """Negative control: the same faults that recovery absorbs are
        observable violations when injected raw."""

        def sorted_dag():
            dag = TransductionDAG("sorted")
            src = dag.add_source("SRC", output_type=U)
            sort = dag.add_op(SortOp(name="SORT"), parallelism=2,
                              upstream=[src], edge_types=[U])
            dag.add_sink("OUT", upstream=sort, input_type=O)
            return dag

        events = stream()
        config = MonitorConfig(order_key=lambda kv: kv.value)
        plan = FaultPlan(
            default_edge=EdgeFaults(reorder=0.6, reorder_delay=5e-3), seed=3,
        )

        def run_sorted(faults=None, recovery=None):
            compiled = compile_dag(sorted_dag(),
                                   {"SRC": source_from_events(events, 2)})
            hub = MonitorHub.for_compiled(compiled, config)
            Simulator(
                compiled.topology, Cluster(3, cores_per_machine=2), seed=0,
                faults=faults, recovery=recovery,
                obs=ObsContext.collecting(monitors=hub),
            ).run()
            trace = events_to_trace(compiled.sinks["OUT"].aligned_events,
                                    True)
            return trace, hub

        clean_trace, clean_hub = run_sorted()
        assert clean_hub.violation_count() == 0

        _, raw_hub = run_sorted(faults=plan)
        assert raw_hub.violation_counts.get("per-key-order", 0) >= 1

        recovered_trace, recovered_hub = run_sorted(
            faults=plan, recovery=RecoveryOptions())
        assert recovered_trace == clean_trace
        assert recovered_hub.violation_count() == 0, recovered_hub.summary()


class TestRecoveryReport:
    def test_report_carries_recovery_stats(self):
        plan = FaultPlan(default_edge=EdgeFaults(duplicate=0.2), seed=4)
        _, report = run(seed=4, faults=plan, recovery=True)
        stats = report.recovery.to_dict()
        assert stats["duplicates_filtered"] >= 1
        assert stats["checkpoints_taken"] >= 1
        assert stats["complete_epochs"] >= 1

    def test_no_faults_no_recovery_has_no_stats(self):
        _, report = run()
        assert report.recovery is None
