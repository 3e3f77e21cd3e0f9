"""The DAG-to-topology compiler: fusion chains, groupings, glue, and the
getStormTopology-style type rejection."""

import pytest

from repro.errors import CompilationError, TraceTypeError
from repro.compiler import compile_dag, CompilerOptions
from repro.compiler.compile import SourceSpec, source_from_events
from repro.compiler.glue import AlignedCaptureBolt, CompiledBolt, MergeFrontend
from repro.dag import TransductionDAG, evaluate_dag
from repro.operators.base import KV, Marker
from repro.operators.keyed_ordered import OpKeyedOrdered
from repro.operators.library import filter_items, map_values, tumbling_count
from repro.operators.sort import SortOp
from repro.operators.split import RoundRobinSplit
from repro.storm import LocalRunner
from repro.storm.groupings import MarkerAwareGrouping
from repro.storm.local import events_to_trace
from repro.storm.tuples import StormTuple
from repro.storm.topology import OutputCollector
from repro.traces.trace_type import ordered_type, unordered_type

U = unordered_type()
O = ordered_type()


class Cumulative(OpKeyedOrdered):
    def init(self):
        return 0

    def on_item(self, state, key, value, emit):
        emit(key, state + value)
        return state + value


def figure5_like_dag(parallelism=2):
    """src -> stateless -> SORT -> keyed-ordered -> stateless -> sink."""
    dag = TransductionDAG("fig5ish")
    src = dag.add_source("src", output_type=U)
    pre = dag.add_op(
        map_values(lambda v: v, name="Pre"), parallelism=parallelism,
        upstream=[src], edge_types=[U],
    )
    sort = dag.add_op(
        SortOp(name="SORT"), parallelism=parallelism, upstream=[pre],
        edge_types=[U],
    )
    cum = dag.add_op(
        Cumulative(), parallelism=parallelism, upstream=[sort], edge_types=[O],
        name="Cum",
    )
    post = dag.add_op(
        map_values(lambda v: v * 2, name="Post"), parallelism=parallelism,
        upstream=[cum], edge_types=[O],
    )
    dag.add_sink("SINK", upstream=post, input_type=U)
    return dag


EVENTS = [KV("a", 1), KV("b", 5), KV("a", 2), Marker(1), KV("a", 3), Marker(2)]


class TestFusionChains:
    def test_sort_chain_fused(self):
        compiled = compile_dag(
            figure5_like_dag(), {"src": source_from_events(EVENTS)}
        )
        names = set(compiled.topology.components)
        assert "SORT;Cum;Post" in names
        assert "Pre" in names

    def test_fusion_disabled(self):
        compiled = compile_dag(
            figure5_like_dag(),
            {"src": source_from_events(EVENTS)},
            CompilerOptions(fusion=False),
        )
        names = set(compiled.topology.components)
        assert {"Pre", "SORT", "Cum", "Post"} <= names

    def test_stateless_not_fused_into_keyed_head(self):
        """A keyed stage after a stateless one needs re-routing: no fusion."""
        dag = TransductionDAG()
        src = dag.add_source("src", output_type=U)
        f = dag.add_op(filter_items(lambda k, v: True, name="F"),
                       parallelism=2, upstream=[src], edge_types=[U])
        c = dag.add_op(tumbling_count("C"), parallelism=2, upstream=[f],
                       edge_types=[U])
        dag.add_sink("SINK", upstream=c)
        compiled = compile_dag(dag, {"src": source_from_events(EVENTS)})
        assert "F" in compiled.topology.components
        assert "C" in compiled.topology.components

    def test_parallelism_mismatch_breaks_chain(self):
        dag = TransductionDAG()
        src = dag.add_source("src", output_type=U)
        a = dag.add_op(map_values(lambda v: v, name="A"), parallelism=2,
                       upstream=[src], edge_types=[U])
        b = dag.add_op(map_values(lambda v: v, name="B"), parallelism=3,
                       upstream=[a], edge_types=[U])
        dag.add_sink("SINK", upstream=b)
        compiled = compile_dag(dag, {"src": source_from_events(EVENTS)})
        assert {"A", "B"} <= set(compiled.topology.components)


class TestGroupings:
    def test_keyed_head_gets_hash(self):
        dag = figure5_like_dag()
        compiled = compile_dag(dag, {"src": source_from_events(EVENTS)})
        spec = compiled.topology.components["SORT;Cum;Post"]
        (grouping,) = spec.inputs.values()
        assert isinstance(grouping, MarkerAwareGrouping)
        assert grouping.policy == "hash"

    def test_sink_gets_global(self):
        compiled = compile_dag(
            figure5_like_dag(), {"src": source_from_events(EVENTS)}
        )
        spec = compiled.topology.components["SINK"]
        (grouping,) = spec.inputs.values()
        assert grouping.policy == "global"


class TestRejections:
    def test_type_error_aborts_compilation(self):
        dag = TransductionDAG()
        src = dag.add_source("src", output_type=U)
        cum = dag.add_op(Cumulative(), upstream=[src], edge_types=[U])
        dag.add_sink("SINK", upstream=cum)
        with pytest.raises(TraceTypeError):
            compile_dag(dag, {"src": source_from_events(EVENTS)})

    def test_missing_source_spec(self):
        dag = figure5_like_dag()
        with pytest.raises(CompilationError):
            compile_dag(dag, {})

    def test_explicit_splitter_rejected(self):
        dag = TransductionDAG()
        src = dag.add_source("src", output_type=U)
        split = dag.add_split(RoundRobinSplit(2), upstream=src)
        a = dag.add_op(map_values(lambda v: v), upstream=[split])
        b = dag.add_op(map_values(lambda v: v), upstream=[split])
        from repro.operators.merge import Merge

        merge = dag.add_merge(Merge(2), upstream=[a, b])
        dag.add_sink("SINK", upstream=merge)
        with pytest.raises(CompilationError):
            compile_dag(dag, {"src": source_from_events(EVENTS)})


class TestGlue:
    def test_merge_frontend_aligns(self):
        frontend = MergeFrontend(2)
        state = frontend.new_state()
        out = []
        out += frontend.accept(state, StormTuple(Marker(1), "up", 0))
        assert out == []
        out += frontend.accept(state, StormTuple(KV("a", 1), "up", 1))
        out += frontend.accept(state, StormTuple(Marker(1), "up", 1))
        assert out == [KV("a", 1), Marker(1)]

    def test_merge_frontend_rejects_extra_channels(self):
        from repro.errors import SimulationError

        frontend = MergeFrontend(1)
        state = frontend.new_state()
        frontend.accept(state, StormTuple(KV("a", 1), "up", 0))
        with pytest.raises(SimulationError):
            frontend.accept(state, StormTuple(KV("a", 1), "up", 1))

    def test_compiled_bolt_chains_operators(self):
        bolt = CompiledBolt(
            [map_values(lambda v: v + 1), map_values(lambda v: v * 10)],
            n_channels=1,
        )
        state = bolt.prepare(0, 1)
        collector = OutputCollector()
        bolt.execute(state, StormTuple(KV("a", 1), "up", 0), collector)
        assert collector.drain() == [KV("a", 20)]

    def test_aligned_capture_requires_parallelism_one(self):
        from repro.errors import SimulationError

        bolt = AlignedCaptureBolt(n_channels=1)
        with pytest.raises(SimulationError):
            bolt.prepare(0, 2)


class TestEndToEnd:
    def test_compiled_equals_denotation_across_seeds(self):
        dag = figure5_like_dag(parallelism=3)
        expected = evaluate_dag(dag, {"src": EVENTS}).sink_trace("SINK", False)
        compiled = compile_dag(dag, {"src": source_from_events(EVENTS, 2)})
        for seed in range(4):
            LocalRunner(compiled.topology, seed=seed).run()
            got = events_to_trace(compiled.sinks["SINK"].aligned_events, False)
            assert got == expected

    def test_fusion_off_same_semantics(self):
        dag = figure5_like_dag(parallelism=2)
        expected = evaluate_dag(dag, {"src": EVENTS}).sink_trace("SINK", False)
        compiled = compile_dag(
            dag, {"src": source_from_events(EVENTS, 2)},
            CompilerOptions(fusion=False),
        )
        LocalRunner(compiled.topology, seed=1).run()
        got = events_to_trace(compiled.sinks["SINK"].aligned_events, False)
        assert got == expected

    def test_source_from_events_partitions(self):
        spec = source_from_events(EVENTS, parallelism=2)
        part0 = list(spec.make_iterator(0, 2))
        part1 = list(spec.make_iterator(1, 2))
        data0 = [e for e in part0 if isinstance(e, KV)]
        data1 = [e for e in part1 if isinstance(e, KV)]
        assert len(data0) + len(data1) == 4
        assert part0.count(Marker(1)) == 1 and part1.count(Marker(1)) == 1

    def test_component_of_mapping(self):
        dag = figure5_like_dag()
        compiled = compile_dag(dag, {"src": source_from_events(EVENTS)})
        assert set(compiled.component_of) == set(dag.vertices)
