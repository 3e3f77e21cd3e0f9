"""Checkpoint/restore on the in-process backend + reliability plumbing.

``InProcessPipeline.snapshot``/``restore`` checkpoint every vertex state
at epoch boundaries; ``run_with_recovery`` drives the crash-and-rollback
loop over them and must reproduce the plain run's outputs exactly —
serial and epoch-batched alike.  The ``Resequencer`` and
``apply_edge_faults``/``recover_stream`` unit properties underpin the
simulator's exactly-once links, so they are pinned here too.
"""

from __future__ import annotations

import random

import pytest

from repro.compiler.inprocess import compile_inprocess
from repro.dag import TransductionDAG
from repro.operators.base import KV, Marker
from repro.operators.library import map_values, sliding_count, tumbling_count
from repro.storm.faults import EdgeFaults, Resequencer, apply_edge_faults, recover_stream
from repro.storm.local import events_to_trace
from repro.storm.recovery import (
    CheckpointStore,
    RecoveryOptions,
    run_with_recovery,
    split_epochs,
)
from repro.traces.trace_type import unordered_type

U = unordered_type()


def build_dag():
    dag = TransductionDAG("inproc-recovery")
    src = dag.add_source("SRC", output_type=U)
    mapped = dag.add_op(map_values(lambda v: v + 1, name="MAP"),
                        upstream=[src], edge_types=[U])
    counted = dag.add_op(tumbling_count("CNT"), upstream=[mapped],
                         edge_types=[U])
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


@pytest.fixture(scope="module")
def events():
    return stream()


@pytest.fixture(scope="module")
def baseline(events):
    outputs = compile_inprocess(build_dag()).run({"SRC": events})
    return events_to_trace(outputs["OUT"], False)


class TestRunWithRecovery:
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_crash_recovery_parity(self, events, baseline, batched, seed):
        recovered = run_with_recovery(
            build_dag(), {"SRC": events}, batched=batched,
            crash_epochs=(2, 4), seed=seed,
        )
        assert events_to_trace(recovered.outputs["OUT"], False) == baseline
        assert recovered.stats.recoveries == 2
        assert recovered.stats.replayed_events > 0

    def test_sparse_checkpoints(self, events, baseline):
        recovered = run_with_recovery(
            build_dag(), {"SRC": events}, checkpoint_every=3,
            crash_epochs=(4,),
        )
        assert events_to_trace(recovered.outputs["OUT"], False) == baseline
        assert recovered.stats.recoveries == 1

    def test_edge_fault_ingestion(self, events, baseline):
        """Source streams pushed through a faulty link and the
        resequencer before ingestion still yield the exact outputs."""
        recovered = run_with_recovery(
            build_dag(), {"SRC": events}, batched=True, crash_epochs=(1,),
            edge_faults=EdgeFaults(drop=0.1, duplicate=0.1, reorder=0.2),
            seed=9,
        )
        assert events_to_trace(recovered.outputs["OUT"], False) == baseline
        assert recovered.stats.duplicates_filtered >= 1

    @pytest.mark.parametrize("kwargs", [
        {"checkpoint_every": 0},
        {"checkpoint_every": -2},
        # A negative epoch used to sort ahead of 3, never match, and
        # silently skip the crash at epoch 3.
        {"crash_epochs": (-1, 3)},
        {"crash_epochs": (6,)},  # the stream has epochs 0..5
        {"crash_fraction": -0.1},
        {"crash_fraction": 1.5},
    ])
    def test_rejects_bad_arguments(self, events, kwargs):
        with pytest.raises(ValueError):
            run_with_recovery(build_dag(), {"SRC": events}, **kwargs)

    def test_boundary_arguments_accepted(self, events, baseline):
        for kwargs in ({"crash_epochs": (0, 5)}, {"crash_fraction": 0.0},
                       {"crash_fraction": 1.0, "crash_epochs": (3,)}):
            recovered = run_with_recovery(build_dag(), {"SRC": events}, **kwargs)
            assert events_to_trace(recovered.outputs["OUT"], False) == baseline


class TestPipelineSnapshot:
    def test_mid_stream_snapshot_restore_identity(self, events, baseline):
        """Snapshot at an epoch boundary, keep running, roll back, rerun
        the tail: outputs must be identical both times."""
        pipeline = compile_inprocess(build_dag())
        epochs = split_epochs(events)
        for block in epochs[:3]:
            pipeline.push_batch("SRC", block)
        checkpoint = pipeline.snapshot()
        for block in epochs[3:]:
            pipeline.push_batch("SRC", block)
        first_tail = pipeline.outputs("OUT")

        pipeline.restore(checkpoint)
        for block in epochs[3:]:
            pipeline.push_batch("SRC", block)
        assert pipeline.outputs("OUT") == first_tail
        assert events_to_trace(first_tail, False) == baseline

    def test_restore_truncates_sink_outputs(self, events):
        pipeline = compile_inprocess(build_dag())
        epochs = split_epochs(events)
        for block in epochs[:2]:
            pipeline.push_batch("SRC", block)
        checkpoint = pipeline.snapshot()
        length = len(pipeline.outputs("OUT"))
        for block in epochs[2:]:
            pipeline.push_batch("SRC", block)
        assert len(pipeline.outputs("OUT")) > length
        pipeline.restore(checkpoint)
        assert len(pipeline.outputs("OUT")) == length

    def test_stateful_window_survives_rollback(self):
        """A sliding window spanning the checkpoint boundary keeps its
        cross-epoch state through restore."""
        dag = TransductionDAG("window")
        src = dag.add_source("SRC", output_type=U)
        windowed = dag.add_op(sliding_count(3, "WIN"), upstream=[src],
                              edge_types=[U])
        dag.add_sink("OUT", upstream=windowed, input_type=U)
        events = stream(seed=2)
        plain = compile_inprocess(dag).run({"SRC": events})

        def rebuild():
            dag2 = TransductionDAG("window")
            src2 = dag2.add_source("SRC", output_type=U)
            win2 = dag2.add_op(sliding_count(3, "WIN"), upstream=[src2],
                               edge_types=[U])
            dag2.add_sink("OUT", upstream=win2, input_type=U)
            return dag2

        recovered = run_with_recovery(rebuild(), {"SRC": events},
                                      crash_epochs=(3,))
        assert recovered.outputs["OUT"] == plain["OUT"]


class TestCheckpointStore:
    def test_completes_when_all_tasks_report(self):
        store = CheckpointStore(2)
        assert store.add(1, "a", {"x": 1}) is False
        assert store.latest() is None
        assert store.add(1, "b", {"y": 2}) is True
        ts, snaps = store.latest()
        assert ts == 1 and set(snaps) == {"a", "b"}

    def test_prunes_older_epochs(self):
        store = CheckpointStore(1)
        store.add(1, "a", "s1")
        store.add(2, "a", "s2")
        ts, snaps = store.latest()
        assert ts == 2 and snaps["a"] == "s2"

    def test_drop_after_discards_partial_future(self):
        store = CheckpointStore(2, index_of={1: 0, 2: 1}.__getitem__)
        store.add(1, "a", "s1a")
        store.add(1, "b", "s1b")
        store.add(2, "a", "s2a")  # partial
        store.drop_after(1)
        ts, _ = store.latest()
        assert ts == 1


class TestResequencer:
    def test_in_order_passthrough(self):
        reseq = Resequencer()
        assert reseq.offer(0, "a") == ["a"]
        assert reseq.offer(1, "b") == ["b"]
        assert reseq.duplicates == 0

    def test_buffers_gaps_and_releases_runs(self):
        reseq = Resequencer()
        assert reseq.offer(2, "c") == []
        assert reseq.offer(1, "b") == []
        assert reseq.offer(0, "a") == ["a", "b", "c"]
        assert reseq.pending() == 0

    def test_filters_duplicates(self):
        reseq = Resequencer()
        reseq.offer(0, "a")
        assert reseq.offer(0, "a") == []
        assert reseq.offer(2, "c") == []
        assert reseq.offer(2, "c") == []  # buffered duplicate
        assert reseq.duplicates == 2
        assert reseq.offer(1, "b") == ["b", "c"]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_permutation_with_duplicates_restores_order(self, seed):
        rng = random.Random(seed)
        n = 40
        transmissions = list(range(n)) + [rng.randrange(n) for _ in range(10)]
        rng.shuffle(transmissions)
        reseq = Resequencer()
        released = []
        for seq in transmissions:
            released.extend(reseq.offer(seq, seq))
        assert released == list(range(n))
        assert reseq.duplicates == 10


class TestEdgeFaultStream:
    @pytest.mark.parametrize("seed", range(8))
    def test_recover_stream_is_exact_inverse(self, seed):
        rng = random.Random(seed)
        events = stream(seed=seed, epochs=3)
        faults = EdgeFaults(drop=0.1, duplicate=0.15, reorder=0.25)
        transmissions = apply_edge_faults(events, faults,
                                          random.Random(seed))
        recovered, duplicates = recover_stream(transmissions)
        assert recovered == events
        assert duplicates == len(transmissions) - len(events)

    def test_split_epochs_keeps_trailing_partial(self):
        events = [KV("a", 1), Marker(1), KV("b", 2)]
        blocks = split_epochs(events)
        assert blocks == [[KV("a", 1), Marker(1)], [KV("b", 2)]]
