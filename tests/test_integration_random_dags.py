"""End-to-end property: Corollary 4.4 over *randomly generated* typed
pipelines.

A pipeline is a random sequence of stages drawn from a pool of template
operators (stateless transforms, keyed aggregates, SORT + keyed-ordered
pairs, joins, sliding windows), with random parallelism hints.  For each
generated pipeline and each random input stream:

1. the sequential denotation is computed (``evaluate_dag``);
2. the Theorem 4.3 deployment (logical rewrite) is evaluated;
3. the compiled topology runs under multiple interleaving seeds;
4. the in-process backend runs event-at-a-time and epoch-batched;

and all of them must produce the same output trace.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_dag
from repro.compiler.compile import CompilerOptions, source_from_events
from repro.compiler.inprocess import compile_inprocess
from repro.dag import TransductionDAG, deploy, evaluate_dag, typecheck_dag
from repro.operators.base import KV, Marker
from repro.operators.joins import DistinctCount, TopK
from repro.operators.keyed_ordered import OpKeyedOrdered
from repro.operators.library import (
    filter_items,
    map_values,
    rekey,
    sliding_count,
    sliding_window,
    tumbling_count,
)
from repro.operators.sort import SortOp
from repro.storm import LocalRunner
from repro.storm.local import events_to_trace
from repro.traces.trace_type import ordered_type, unordered_type

U = unordered_type()
O = ordered_type()


class CumulativeSum(OpKeyedOrdered):
    def init(self):
        return 0

    def on_item(self, state, key, value, emit):
        total = state + as_num(value)
        emit(key, total)
        return total


def as_num(value):
    """Normalize any stage's output value to a number, so stages compose
    regardless of the value shapes upstream stages emit (TopK emits
    tuples, counts emit ints, ...)."""
    if isinstance(value, (int, float)):
        return int(value)
    if isinstance(value, (tuple, frozenset)):
        return sum(as_num(v) for v in value)
    return len(repr(value))


def stage_pool():
    """Stage factories: each returns (operator, nominal input kind).

    Keyed-ordered stages are emitted as (SORT, op) pairs so the pipeline
    stays well-typed; numeric stages normalize values with ``as_num``.
    """
    return [
        lambda: [(map_values(lambda v: as_num(v) + 1, name="inc"), U)],
        lambda: [(map_values(lambda v: as_num(v) * 2, name="dbl"), U)],
        lambda: [(filter_items(lambda k, v: as_num(v) % 3 != 0, name="f3"), U)],
        lambda: [(rekey(lambda k, v: as_num(v) % 2, name="rk"), U)],
        lambda: [(tumbling_count("tc"), U)],
        lambda: [(sliding_count(2, name="sc"), U)],
        lambda: [(
            sliding_window(
                2, lambda k, v: as_num(v), 0, lambda a, b: a + b, name="sw"
            ),
            U,
        )],
        lambda: [(TopK(2, sort_key=as_num), U)],
        lambda: [(DistinctCount(), U)],
        lambda: [(SortOp(sort_key=as_num, name="srt"), U), (CumulativeSum(), O)],
    ]


@st.composite
def random_pipelines(draw):
    """(stage specs, parallelism hints) for a 1–4 stage pipeline."""
    pool = stage_pool()
    n_stages = draw(st.integers(min_value=1, max_value=4))
    picks = [draw(st.integers(0, len(pool) - 1)) for _ in range(n_stages)]
    parallelisms = [draw(st.integers(1, 3)) for _ in range(n_stages)]
    return picks, parallelisms


@st.composite
def random_streams(draw):
    n_blocks = draw(st.integers(1, 3))
    stream = []
    for block in range(1, n_blocks + 1):
        size = draw(st.integers(0, 6))
        for _ in range(size):
            stream.append(
                KV(draw(st.sampled_from("abc")), draw(st.integers(0, 9)))
            )
        stream.append(Marker(block))
    return stream


def build_pipeline(picks, parallelisms):
    pool = stage_pool()
    dag = TransductionDAG("random-pipeline")
    src = dag.add_source("src", output_type=U)
    upstream = src
    for pick, parallelism in zip(picks, parallelisms):
        for operator, _nominal_input in pool[pick]():
            # Edge types deliberately omitted: the type checker infers
            # kinds along the pipeline (a stateless stage after an
            # O-producer reads the O edge by subsumption).
            upstream = dag.add_op(
                operator, parallelism=parallelism, upstream=[upstream],
                edge_types=[None],
            )
    dag.add_sink("out", upstream=upstream)
    return dag


class TestRandomPipelines:
    @given(random_pipelines(), random_streams())
    @settings(max_examples=25, deadline=None)
    def test_corollary_44_logical_deployment(self, pipeline, stream):
        picks, parallelisms = pipeline
        dag = build_pipeline(picks, parallelisms)
        typecheck_dag(dag)
        base = evaluate_dag(dag, {"src": stream}).sink_trace("out", False)
        deployed = deploy(dag)
        got = evaluate_dag(deployed, {"src": stream}).sink_trace("out", False)
        assert got == base

    @given(random_pipelines(), random_streams(),
           st.integers(0, 3), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_compiled_execution_equivalence(self, pipeline, stream, seed, fusion):
        picks, parallelisms = pipeline
        dag = build_pipeline(picks, parallelisms)
        base = evaluate_dag(dag, {"src": stream}).sink_trace("out", False)
        compiled = compile_dag(
            dag,
            {"src": source_from_events(stream, parallelism=2)},
            CompilerOptions(fusion=fusion),
        )
        LocalRunner(compiled.topology, seed=seed).run()
        got = events_to_trace(compiled.sinks["out"].aligned_events, False)
        assert got == base
        for batched in (False, True):
            outputs = compile_inprocess(dag, batched=batched).run({"src": stream})
            assert events_to_trace(outputs["out"], False) == base

    def test_deep_pipeline_every_stage_kind(self):
        """One deterministic deep pipeline touching every pool entry."""
        picks = list(range(len(stage_pool())))
        parallelisms = [2] * len(picks)
        dag = build_pipeline(picks, parallelisms)
        stream = [KV("a", 4), KV("b", 7), Marker(1), KV("a", 2), Marker(2)]
        base = evaluate_dag(dag, {"src": stream}).sink_trace("out", False)
        deployed = deploy(dag)
        assert evaluate_dag(deployed, {"src": stream}).sink_trace(
            "out", False
        ) == base
        compiled = compile_dag(dag, {"src": source_from_events(stream, 2)})
        for seed in range(3):
            LocalRunner(compiled.topology, seed=seed).run()
            got = events_to_trace(compiled.sinks["out"].aligned_events, False)
            assert got == base
