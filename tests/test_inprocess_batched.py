"""The in-process backend's batched path and worklist regressions.

Covers the epoch-batched execution mode of
:class:`~repro.compiler.inprocess.InProcessPipeline` (``batched=True``)
and two fixed engine bugs:

- the push worklist used to move events by *recursion*, so a pipeline
  deeper than the interpreter's recursion limit crashed with
  ``RecursionError`` — it now uses an iterative worklist;
- ``run`` used to keep polling exhausted sources in its round-robin,
  turning wildly skewed source lengths into quadratic busy-looping —
  exhausted sources now drop out of the rotation.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.compiler.inprocess import compile_inprocess
from repro.dag import TransductionDAG, evaluate_dag
from repro.operators.base import KV, Marker
from repro.operators.library import map_values, rekey, tumbling_count
from repro.operators.merge import Merge
from repro.operators.sort import SortOp
from repro.storm.local import events_to_trace
from repro.storm.recovery import split_epochs
from repro.traces.trace_type import unordered_type

U = unordered_type()


def random_stream(seed: int, n_blocks: int = 4):
    rng = random.Random(seed)
    stream = []
    for block in range(1, n_blocks + 1):
        for _ in range(rng.randrange(10)):
            stream.append(KV(rng.choice("abc"), rng.randrange(9)))
        stream.append(Marker(block))
    return stream


def chain_dag(depth: int) -> TransductionDAG:
    dag = TransductionDAG(f"chain-{depth}")
    upstream = dag.add_source("src", output_type=U)
    for i in range(depth):
        upstream = dag.add_op(
            map_values(lambda v: v + 1, name=f"inc{i}"),
            upstream=[upstream], edge_types=[None],
        )
    dag.add_sink("out", upstream=upstream)
    return dag


def mixed_dag() -> TransductionDAG:
    """Two sources, an explicit merge, and a keyed/sorted tail."""
    dag = TransductionDAG("mixed")
    a = dag.add_source("a", output_type=U)
    b = dag.add_source("b", output_type=U)
    merged = dag.add_merge(Merge(2), upstream=[a, b])
    v = dag.add_op(
        rekey(lambda k, v: v % 2, name="rk"), upstream=[merged],
        edge_types=[None],
    )
    v = dag.add_op(tumbling_count("tc"), upstream=[v], edge_types=[None])
    v = dag.add_op(
        SortOp(sort_key=lambda v: v, name="srt"), upstream=[v],
        edge_types=[None],
    )
    dag.add_sink("out", upstream=v)
    return dag


def fanout_dag() -> TransductionDAG:
    """One op feeding two stages that re-merge (explicit merge) into a
    stateful tail, and also feeding a second sink directly."""
    dag = TransductionDAG("fanout")
    src = dag.add_source("src", output_type=U)
    head = dag.add_op(
        map_values(lambda v: v + 1, name="head"), upstream=[src],
        edge_types=[None],
    )
    left = dag.add_op(
        map_values(lambda v: v * 2, name="left"), upstream=[head],
        edge_types=[None],
    )
    right = dag.add_op(
        rekey(lambda k, v: v % 3, name="right"), upstream=[head],
        edge_types=[None],
    )
    merged = dag.add_merge(Merge(2), upstream=[left, right])
    tail = dag.add_op(tumbling_count("tc"), upstream=[merged], edge_types=[None])
    dag.add_sink("out", upstream=tail)
    dag.add_sink("side", upstream=head)
    return dag


class TestDeepChainRegression:
    def test_chain_deeper_than_recursion_limit(self):
        depth = sys.getrecursionlimit() + 100
        pipeline = compile_inprocess(chain_dag(depth))
        pipeline.push("src", KV("a", 0))
        pipeline.push("src", Marker(1))
        assert pipeline.outputs("out") == [KV("a", depth), Marker(1)]

    def test_deep_chain_batched(self):
        depth = sys.getrecursionlimit() + 100
        pipeline = compile_inprocess(chain_dag(depth), batched=True)
        out = pipeline.run({"src": [KV("a", 0), KV("b", 1), Marker(1)]})
        assert out["out"] == [KV("a", depth), KV("b", depth + 1), Marker(1)]


class TestSkewedSources:
    def test_exhausted_sources_leave_rotation(self):
        dag = mixed_dag()
        short = [KV("a", 1), Marker(1), Marker(2), Marker(3)]
        long = random_stream(5, n_blocks=3) + [
            KV("b", k % 7) for k in range(500)
        ] + [Marker(4)]
        # The short source is exhausted after 4 events; the run must
        # still drain the long one completely (and quickly).
        base = evaluate_dag(dag, {"a": short, "b": long}).sink_trace(
            "out", True
        )
        for batched in (False, True):
            pipeline = compile_inprocess(dag, batched=batched)
            out = pipeline.run({"a": short, "b": long})
            assert events_to_trace(out["out"], True) == base

    def test_empty_source_stream(self):
        dag = mixed_dag()
        pipeline = compile_inprocess(dag)
        out = pipeline.run({"a": [], "b": []})
        assert out["out"] == []


class TestBatchedParity:
    def test_batched_matches_serial_and_denotation(self):
        dag_builders = [lambda: chain_dag(3), mixed_dag]
        for build in dag_builders:
            for seed in range(4):
                streams = {
                    name: random_stream(seed * 13 + i)
                    for i, name in enumerate(
                        s.name for s in build().sources()
                    )
                }
                base = evaluate_dag(build(), streams).sink_trace("out", False)
                serial = compile_inprocess(build()).run(streams)
                batched = compile_inprocess(build(), batched=True).run(streams)
                assert events_to_trace(serial["out"], False) == base
                assert events_to_trace(batched["out"], False) == base

    def test_push_and_push_batch_mix(self):
        dag = chain_dag(2)
        stream = random_stream(9)
        serial = compile_inprocess(dag)
        for event in stream:
            serial.push("src", event)
        mixed = compile_inprocess(dag)
        mixed.push_batch("src", stream[:3])
        for event in stream[3:5]:
            mixed.push("src", event)
        mixed.push_batch("src", stream[5:])
        assert mixed.outputs("out") == serial.outputs("out")

    def test_merge_vertex_batched(self):
        merge = Merge(2)
        assert merge.n_inputs == 2  # sanity: explicit merge in mixed_dag
        dag = mixed_dag()
        streams = {"a": random_stream(1), "b": random_stream(2)}
        base = evaluate_dag(dag, streams).sink_trace("out", True)
        batched = compile_inprocess(dag, batched=True).run(streams)
        assert events_to_trace(batched["out"], True) == base


class TestFanOut:
    """The single worklist interleaves blocks across the edges of a
    fan-out differently per kernel choice; every entry point must still
    give the reference sink traces."""

    SINKS = ("out", "side")

    def reference(self, stream):
        result = evaluate_dag(fanout_dag(), {"src": stream})
        return {sink: result.sink_trace(sink, False) for sink in self.SINKS}

    def traces(self, pipeline):
        return {
            sink: events_to_trace(pipeline.outputs(sink), False)
            for sink in self.SINKS
        }

    @pytest.mark.parametrize("seed", range(4))
    def test_every_entry_point_matches_denotation(self, seed):
        stream = random_stream(seed, n_blocks=5)
        base = self.reference(stream)

        per_event = compile_inprocess(fanout_dag())
        for event in stream:
            per_event.push("src", event)
        assert self.traces(per_event) == base

        for batched in (False, True):
            pipeline = compile_inprocess(fanout_dag(), batched=batched)
            pipeline.run({"src": stream})
            assert self.traces(pipeline) == base

        blocks = compile_inprocess(fanout_dag())
        for block in split_epochs(stream):
            blocks.push_block("src", block)
        assert self.traces(blocks) == base

        mixed = compile_inprocess(fanout_dag())
        cut = len(stream) // 3
        mixed.push_batch("src", stream[:cut])
        for event in stream[cut:2 * cut]:
            mixed.push("src", event)
        mixed.push_batch("src", stream[2 * cut:])
        assert self.traces(mixed) == base
