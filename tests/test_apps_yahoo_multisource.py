"""The Figure 3 multi-source form of Query IV, and hand-vs-generated
cross-validation on persisted state (Query II)."""

import hashlib

import pytest

from repro.apps.yahoo.events import YahooWorkload
from repro.apps.yahoo.handcrafted import handcrafted_query2
from repro.apps.yahoo.queries import query2, query4, query4_multi_source
from repro.compiler import compile_dag
from repro.compiler.compile import SourceSpec, source_from_events
from repro.compiler.inprocess import compile_inprocess
from repro.dag import evaluate_dag
from repro.operators.base import KV, Marker
from repro.operators.merge import Merge
from repro.storm import LocalRunner
from repro.storm.local import events_to_trace
from repro.storm.recovery import split_epochs


@pytest.fixture(scope="module")
def workload():
    return YahooWorkload(
        seconds=4, events_per_second=120, n_campaigns=6, ads_per_campaign=5,
        n_users=30,
    )


def split_stream(events, n_sources):
    """Partition data across N sources; every source gets all markers."""
    parts = [[] for _ in range(n_sources)]
    data_seen = 0
    for event in events:
        if isinstance(event, Marker):
            for part in parts:
                part.append(event)
        else:
            parts[data_seen % n_sources].append(event)
            data_seen += 1
    return parts


#: sha1 of the in-process sink output (its ``repr``) of the 8-source
#: Query IV below; the same for ``push`` and ``push_batch``.  It pins the
#: Count10s window kernel: a change that moves one count, or the order
#: in which keys emit, is a change of Query IV's output.
QUERY4_SINK_DIGEST = "0c5d78baa1b50764076d9e4d59bf20f6f7e352df"


@pytest.mark.parametrize("batched", [False, True], ids=["push", "push_batch"])
def test_query4_multi_source_sink_digest(batched):
    """Each second's events dealt round-robin over 8 sources, every
    source closing the epoch with its own marker."""
    workload = YahooWorkload(seconds=30, events_per_second=60, seed=7)
    pipe = compile_inprocess(
        query4_multi_source(workload.make_database(), 8), batched=batched
    )
    for block in split_epochs(workload.events()):
        marker, items = block[-1], block[:-1]
        for i in range(8):
            part = items[i::8] + [marker]
            if batched:
                pipe.push_batch(f"Yahoo{i}", part)
            else:
                for event in part:
                    pipe.push(f"Yahoo{i}", event)
    digest = hashlib.sha1(repr(pipe.outputs("SINK")).encode()).hexdigest()
    assert digest == QUERY4_SINK_DIGEST


class TestFigure3MultiSource:
    def test_equals_single_source_denotation(self, workload):
        """The Figure 3 DAG over N sources computes the same trace as the
        single-source Query IV over the union stream."""
        events = workload.events()
        single = query4(workload.make_database(), parallelism=1)
        expected = evaluate_dag(single, {"events": events}).sink_trace(
            "SINK", False
        )

        n_sources = 3
        parts = split_stream(events, n_sources)
        multi = query4_multi_source(
            workload.make_database(), n_sources, parallelism=2
        )
        inputs = {f"Yahoo{i}": parts[i] for i in range(n_sources)}
        got = evaluate_dag(multi, inputs).sink_trace("SINK", False)
        assert got == expected

    def test_compiled_multi_source(self, workload):
        events = workload.events()
        n_sources = 2
        parts = split_stream(events, n_sources)
        single = query4(workload.make_database(), parallelism=1)
        expected = evaluate_dag(single, {"events": events}).sink_trace(
            "SINK", False
        )
        multi = query4_multi_source(
            workload.make_database(), n_sources, parallelism=2
        )
        compiled = compile_dag(
            multi,
            {
                f"Yahoo{i}": SourceSpec(
                    (lambda part: lambda t, n: iter(part))(parts[i])
                )
                for i in range(n_sources)
            },
        )
        for seed in (0, 2):
            LocalRunner(compiled.topology, seed=seed).run()
            got = events_to_trace(compiled.sinks["SINK"].aligned_events, False)
            assert got == expected

    def test_spout_components_per_source(self, workload):
        multi = query4_multi_source(workload.make_database(), 3, parallelism=1)
        compiled = compile_dag(
            multi,
            {f"Yahoo{i}": source_from_events([Marker(1)]) for i in range(3)},
        )
        spouts = [s.name for s in compiled.topology.spouts()]
        assert sorted(spouts) == ["Yahoo0", "Yahoo1", "Yahoo2"]


class TestInProcessMergeBuffering:
    """``InProcessPipeline.run`` advances the sources one epoch block at
    a time, so the implicit merge in front of Filter-Map buffers about
    one epoch of events, not most of a stream."""

    N_SOURCES = 4
    EVENTS_PER_EPOCH = 100

    def peak_pending(self, monkeypatch, batched):
        workload = YahooWorkload(
            seconds=50, events_per_second=self.EVENTS_PER_EPOCH, seed=3
        )
        events = workload.events()
        parts = split_stream(events, self.N_SOURCES)
        dag = query4_multi_source(workload.make_database(), self.N_SOURCES)
        peak = [0]

        def tracked(method):
            def wrapper(self, state, channel, payload):
                out = method(self, state, channel, payload)
                pending = sum(
                    len(block) for queue in state.pending for block in queue
                )
                peak[0] = max(peak[0], pending)
                return out
            return wrapper

        monkeypatch.setattr(Merge, "handle", tracked(Merge.handle))
        monkeypatch.setattr(Merge, "handle_batch", tracked(Merge.handle_batch))
        pipe = compile_inprocess(dag, batched=batched)
        outputs = pipe.run(
            {f"Yahoo{i}": part for i, part in enumerate(parts)}
        )
        monkeypatch.undo()
        expected = evaluate_dag(
            query4(workload.make_database(), parallelism=1), {"events": events}
        ).sink_trace("SINK", False)
        assert events_to_trace(outputs["SINK"], False) == expected
        return peak[0]

    @pytest.mark.parametrize("batched", [True, False])
    def test_peak_merge_pending_within_one_epoch(self, monkeypatch, batched):
        peak = self.peak_pending(monkeypatch, batched)
        assert peak <= self.EVENTS_PER_EPOCH


class TestQuery2StateCrossValidation:
    def test_compiled_and_handcrafted_persist_same_counts(self, workload):
        """Both implementations must leave identical final per-ad counts
        in the database store."""
        events = workload.events()

        db_compiled = workload.make_database()
        dag = query2(db_compiled, parallelism=2)
        compiled = compile_dag(dag, {"events": source_from_events(events, 2)})
        LocalRunner(compiled.topology, seed=1).run()

        db_hand = workload.make_database()
        topology, _sink = handcrafted_query2(
            db_hand, events, parallelism=2, spouts=2
        )
        LocalRunner(topology, seed=1).run()

        assert (
            db_compiled.stores["aggregates"].snapshot()
            == db_hand.stores["aggregates"].snapshot()
        )
