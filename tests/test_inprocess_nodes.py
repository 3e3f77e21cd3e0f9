"""The in-process pipeline on a DAG with every kind of node.

One explicit ``MRG`` vertex, one implicit two-input merge and a fan-out
to two sinks: the byte-level sink outputs are pinned under ``push`` and
``push_batch``, a checkpoint taken while the merges buffer a block must
restore exactly, and a kernel replaced on an operator *after*
compilation must be the one the pipeline calls (instrumentation such as
``perfbench`` patches instances of an already compiled pipeline).
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from repro.compiler.inprocess import compile_inprocess
from repro.dag import TransductionDAG
from repro.dag.graph import VertexKind
from repro.operators.base import KV, Marker
from repro.operators.library import filter_items, map_values, sliding_count
from repro.operators.merge import Merge
from repro.storm.local import events_to_trace
from repro.storm.recovery import run_with_recovery, split_epochs
from repro.traces.trace_type import unordered_type

U = unordered_type()
SOURCES = ("s1", "s2", "s3")
EPOCHS = 8

#: sha1 of ``repr`` of both sinks' outputs after :func:`drive`; the
#: same under ``push`` and ``push_batch``.
SINK_DIGEST = "d79f2ae7e47b22b5215cc7959f910c990b83aa21"


def fan_dag():
    """``s1, s2 -> MRG -> A``; ``A, s3 -> B`` (implicit merge);
    ``B -> OUT1`` and ``B -> C -> OUT2``."""
    dag = TransductionDAG("fan")
    s1, s2, s3 = (dag.add_source(name, output_type=U) for name in SOURCES)
    merged = dag.add_merge(Merge(2), upstream=[s1, s2])
    mapped = dag.add_op(map_values(lambda v: 3 * v + 1, name="A"),
                        upstream=[merged], edge_types=[U])
    counted = dag.add_op(sliding_count(2, "B"), upstream=[mapped, s3],
                         edge_types=[U, U])
    dag.add_sink("OUT1", upstream=counted, input_type=U)
    kept = dag.add_op(filter_items(lambda k, v: v > 1, name="C"),
                      upstream=[counted], edge_types=[U])
    dag.add_sink("OUT2", upstream=kept, input_type=U)
    return dag


def streams(seed=0):
    rng = random.Random(seed)
    result = {}
    for name in SOURCES:
        events = []
        for epoch in range(1, EPOCHS + 1):
            for _ in range(rng.randrange(6)):
                events.append(KV(rng.choice("abcd"), rng.randrange(5)))
            events.append(Marker(epoch))
        result[name] = split_epochs(events)
    return result


def schedule(blocks):
    """``(source, block)`` pushes with ``s1`` one epoch ahead of the
    others: round ``i`` pushes ``s1``'s block ``i + 1``, then ``s2``'s
    and ``s3``'s block ``i``."""
    steps = [("s1", blocks["s1"][0])]
    for i in range(EPOCHS):
        if i + 1 < EPOCHS:
            steps.append(("s1", blocks["s1"][i + 1]))
        steps.append(("s2", blocks["s2"][i]))
        steps.append(("s3", blocks["s3"][i]))
    return steps


def feed(pipe, steps, mode):
    for source, block in steps:
        if mode == "push_batch":
            pipe.push_batch(source, block)
        else:
            for event in block:
                pipe.push(source, event)


def drive(pipe, mode):
    feed(pipe, schedule(streams()), mode)
    return pipe


def digest(pipe):
    outputs = (pipe.outputs("OUT1"), pipe.outputs("OUT2"))
    return hashlib.sha1(repr(outputs).encode()).hexdigest()


MODES = ["push", "push_batch"]


@pytest.mark.parametrize("mode", MODES)
def test_sink_digest(mode):
    assert digest(drive(compile_inprocess(fan_dag()), mode)) == SINK_DIGEST


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("at", [2, 11, 20, 3, 12, 21])
def test_snapshot_with_buffered_merge_block(mode, at):
    """Checkpoint mid-round: after ``s1``'s push (``at`` 2, 11, 20) the
    explicit merge buffers ``s1``'s next block; after ``s2``'s (3, 12,
    21) the implicit merge also waits on ``s3``.  Rolling back and
    replaying the tail gives the same bytes, and so does a fresh
    pipeline restored from the checkpoint."""
    steps = schedule(streams())
    assert steps[at][0] != "s1"
    pipe = compile_inprocess(fan_dag())
    feed(pipe, steps[:at], mode)
    checkpoint = pipe.snapshot()
    prefix = {sink: pipe.outputs(sink) for sink in ("OUT1", "OUT2")}
    feed(pipe, steps[at:], mode)
    full = {sink: pipe.outputs(sink) for sink in ("OUT1", "OUT2")}

    pipe.restore(checkpoint)
    assert {sink: pipe.outputs(sink) for sink in full} == prefix
    feed(pipe, steps[at:], mode)
    assert {sink: pipe.outputs(sink) for sink in full} == full

    fresh = compile_inprocess(fan_dag())
    fresh.restore(checkpoint)
    feed(fresh, steps[at:], mode)
    for sink in full:
        assert fresh.outputs(sink) == full[sink][len(prefix[sink]):]


@pytest.mark.parametrize("batched", [False, True])
def test_crash_recovery_parity(batched):
    events = {
        name: [event for block in blocks for event in block]
        for name, blocks in streams(seed=3).items()
    }
    plain = compile_inprocess(fan_dag()).run(events)
    recovered = run_with_recovery(fan_dag(), events, batched=batched,
                                  crash_epochs=(2, 5), seed=1)
    assert recovered.stats.recoveries == 2
    for sink in ("OUT1", "OUT2"):
        assert events_to_trace(recovered.outputs[sink], False) == events_to_trace(
            plain[sink], False)


@pytest.mark.parametrize("mode", MODES)
def test_kernel_replaced_after_compile_is_called(mode):
    dag = fan_dag()
    pipe = compile_inprocess(dag)
    calls = Counter()
    for vertex in dag.vertices.values():
        if vertex.kind in (VertexKind.OP, VertexKind.MERGE):
            kernel = vertex.payload.handle_batch

            def spy(*args, _kernel=kernel, _name=vertex.name):
                calls[_name] += 1
                return _kernel(*args)

            vertex.payload.handle_batch = spy
    drive(pipe, mode)
    assert set(calls) == {"MRG", "A", "B", "C"}
    assert digest(pipe) == SINK_DIGEST
