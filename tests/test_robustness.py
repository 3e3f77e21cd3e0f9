"""Failure injection and edge-of-contract behaviour across the stack:
misbehaving operators, malformed marker protocols, skewed sources, and
the simulator's latency accounting."""

import pytest

from repro.errors import SimulationError, TaskFailureError
from repro.compiler import compile_dag
from repro.compiler.compile import SourceSpec, source_from_events
from repro.dag import TransductionDAG
from repro.operators.base import KV, Marker
from repro.operators.library import map_values, tumbling_count
from repro.operators.merge import Merge
from repro.storm import Cluster, LocalRunner, Simulator
from repro.storm.batching import BatchingOptions
from repro.storm.costs import PerComponentCostModel
from repro.storm.groupings import MarkerAwareGrouping
from repro.storm.topology import (
    Bolt,
    CaptureBolt,
    IteratorSpout,
    TopologyBuilder,
)
from repro.traces.trace_type import unordered_type

U = unordered_type()


class ExplodingBolt(Bolt):
    """Raises after N tuples — models an operator bug."""

    def __init__(self, after: int):
        self._after = after

    def prepare(self, task_index, n_tasks):
        return {"count": 0}

    def execute(self, state, tup, collector):
        state["count"] += 1
        if state["count"] > self._after:
            raise RuntimeError("injected operator failure")
        collector.emit(tup.event)


class TestOperatorFailures:
    def test_operator_exception_surfaces(self):
        """A bug in user code must propagate with its failure context:
        which task, on which machine, at which sealed epoch — plus the
        partial report accumulated up to the failure."""
        builder = TopologyBuilder("boom")
        builder.set_spout(
            "src", IteratorSpout(lambda i, n: iter([KV("a", j) for j in range(10)])), 1
        )
        builder.set_bolt("boom", ExplodingBolt(after=3), 1).grouping(
            "src", MarkerAwareGrouping("global")
        )
        sink = CaptureBolt()
        builder.set_bolt("sink", sink, 1).grouping("boom", MarkerAwareGrouping("global"))
        with pytest.raises(TaskFailureError, match="injected operator failure") as info:
            LocalRunner(builder.build()).run()
        failure = info.value
        assert isinstance(failure, SimulationError)  # backwards compatible
        assert failure.component == "boom"
        assert failure.task_index == 0
        assert failure.machine is not None
        assert failure.report is not None
        assert failure.report.input_all_tuples > 0


    @pytest.mark.parametrize("batched", [False, True])
    def test_failure_reports_last_sealed_epoch(self, batched):
        """A compiled bolt whose operator raises on the first item of
        epoch 3 reports epoch 2: the last epoch its merge frontend
        sealed, per tuple and with micro-batches."""

        def explode_in_epoch_3(value):
            if value >= 30:
                raise RuntimeError("injected operator failure")
            return value

        events = []
        for epoch in range(1, 5):
            events += [KV(j % 3, 10 * epoch + j) for j in range(6)]
            events.append(Marker(epoch))
        dag = TransductionDAG("fail-epoch")
        src = dag.add_source("src", output_type=U)
        op = dag.add_op(map_values(explode_in_epoch_3, name="Explode"),
                        upstream=[src], edge_types=[U])
        dag.add_sink("out", upstream=op)
        compiled = compile_dag(dag, {"src": source_from_events(events, 2)})
        simulator = Simulator(
            compiled.topology, Cluster(1, cores_per_machine=4), seed=0,
            batching=BatchingOptions.for_compiled(compiled) if batched else None,
        )
        with pytest.raises(TaskFailureError, match="injected operator failure") as info:
            simulator.run()
        failure = info.value
        assert "Explode" in failure.component
        assert failure.epoch == 2
        assert "last sealed epoch 2" in str(failure)


class TestMarkerProtocolViolations:
    def test_merge_rejects_mismatched_timestamps(self):
        merge = Merge(2)
        state = merge.initial_state()
        merge.handle(state, 0, Marker(5))
        with pytest.raises(SimulationError, match="misaligned"):
            merge.handle(state, 1, Marker(6))

    def test_source_with_missing_markers_stalls_alignment(self):
        """A source partition that drops a marker leaves the merge
        frontend waiting: downstream sees no output for that block —
        detectably incomplete rather than silently wrong."""

        def good(i, n):
            return iter([KV("a", 1), Marker(1), KV("a", 2), Marker(2)])

        def bad(i, n):
            return iter([KV("b", 1), Marker(1)])  # never sends marker 2

        dag = TransductionDAG("stall")
        s1 = dag.add_source("good", output_type=U)
        s2 = dag.add_source("bad", output_type=U)
        op = dag.add_op(tumbling_count("C"), upstream=[s1, s2],
                        edge_types=[U, U])
        dag.add_sink("out", upstream=op)
        compiled = compile_dag(
            dag, {"good": SourceSpec(good), "bad": SourceSpec(bad)}
        )
        LocalRunner(compiled.topology, seed=0).run()
        trace = None
        from repro.storm.local import events_to_trace

        trace = events_to_trace(compiled.sinks["out"].aligned_events, False)
        # Only block 1 completed; marker 2 never aligned.
        assert trace.num_markers() == 1

    def test_skewed_source_rates_still_align(self):
        """One source 10x faster than the other: alignment holds the
        fast source's later blocks until the slow one catches up, and
        the result equals the balanced run."""

        def fast(i, n):
            events = []
            for block in range(1, 4):
                events.extend(KV("f", j) for j in range(10))
                events.append(Marker(block))
            return iter(events)

        def slow(i, n):
            events = []
            for block in range(1, 4):
                events.append(KV("s", block))
                events.append(Marker(block))
            return iter(events)

        dag = TransductionDAG("skew")
        s1 = dag.add_source("fast", output_type=U)
        s2 = dag.add_source("slow", output_type=U)
        op = dag.add_op(tumbling_count("C"), upstream=[s1, s2],
                        edge_types=[U, U])
        dag.add_sink("out", upstream=op)
        compiled = compile_dag(
            dag, {"fast": SourceSpec(fast), "slow": SourceSpec(slow)}
        )
        from repro.storm.local import events_to_trace

        traces = set()
        for seed in range(3):
            LocalRunner(compiled.topology, seed=seed).run()
            traces.add(events_to_trace(compiled.sinks["out"].aligned_events, False))
        assert len(traces) == 1
        (trace,) = traces
        assert trace.num_markers() == 3
        for block in trace.closed_blocks():
            assert ("f", 10) in block.pairs()
            assert ("s", 1) in block.pairs()


class TestLatencyAccounting:
    def test_marker_latencies_positive_and_ordered(self):
        events = []
        for block in range(1, 4):
            events.extend(KV("k", i) for i in range(20))
            events.append(Marker(block))
        dag = TransductionDAG("lat")
        src = dag.add_source("src", output_type=U)
        op = dag.add_op(map_values(lambda v: v, name="M"), parallelism=2,
                        upstream=[src], edge_types=[U])
        dag.add_sink("out", upstream=op)
        compiled = compile_dag(dag, {"src": source_from_events(events, 1)})
        report = Simulator(
            compiled.topology,
            Cluster(2),
            cost_model=PerComponentCostModel({"M": 20e-6}),
            seed=1,
        ).run()
        latencies = report.marker_latencies(
            next(n for n in compiled.topology.components if n == "out")
        )
        assert set(latencies) == {1, 2, 3}
        assert all(value > 0 for value in latencies.values())

    def test_marker_emit_times_recorded(self):
        events = [KV("a", 1), Marker(1)]
        dag = TransductionDAG("t")
        src = dag.add_source("src", output_type=U)
        op = dag.add_op(map_values(lambda v: v, name="M"), upstream=[src],
                        edge_types=[U])
        dag.add_sink("out", upstream=op)
        compiled = compile_dag(dag, {"src": source_from_events(events, 1)})
        report = LocalRunner(compiled.topology).run()
        assert 1 in report.marker_emit_times
