"""Tests of the benchmark's own code: span accounting, the latency tail,
wrapper removal, and the reference check on small inputs.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import contextlib

import pytest

import run
import tracing
import workloads
from repro.compiler.glue import AlignedCaptureBolt, CompiledBolt, MergeFrontend
from repro.compiler.inprocess import InProcessPipeline
from repro.db import Derby
from repro.db.table import Table
from repro.operators.merge import Merge
from repro.storm import Simulator
from repro.storm.groupings import MarkerAwareGrouping


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    rec = tracing.Recorder(clock)

    def inner():
        clock.advance(4.0)

    def same_layer_helper():
        clock.advance(0.5)

    traced_inner = tracing.wrapper(rec, "inner", inner)
    traced_helper = tracing.wrapper(rec, "outer", same_layer_helper)

    def outer():
        clock.advance(1.0)
        traced_inner()
        traced_helper()  # re-entering the open layer opens no new span
        clock.advance(2.0)

    tracing.wrapper(rec, "outer", outer)()

    assert rec.self_s["outer"] == pytest.approx(3.5)
    assert rec.self_s["inner"] == pytest.approx(4.0)
    assert rec.calls == {"outer": 1, "inner": 1}
    assert rec.total_self() == pytest.approx(clock.now)


def test_bookkeeping_is_not_charged_to_the_enclosing_span():
    clock = FakeClock()
    rec = tracing.Recorder(clock)

    def after(recorder, args, result):
        clock.advance(0.25)
        recorder.count("inner", "items", result)

    inner = tracing.wrapper(rec, "inner", lambda: (clock.advance(1.0), 3)[1], after)

    def outer():
        inner()
        clock.advance(2.0)

    tracing.wrapper(rec, "outer", outer)()

    assert rec.self_s["outer"] == pytest.approx(2.0)
    assert rec.self_s["inner"] == pytest.approx(1.0)
    assert rec.self_s[tracing.BOOKKEEPING] == pytest.approx(0.25)
    assert rec.counters[("inner", "items")] == 3
    assert rec.total_self() == pytest.approx(clock.now)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert run.tail_percentile([float(i) for i in range(1, 1001)]) == (99, 990.0)
    # 999 samples: p99 would leave only 9 beyond, so p95 is the tail.
    assert run.tail_percentile([float(i) for i in range(1, 1000)])[0] == 95
    assert run.tail_percentile([float(i) for i in range(20)])[0] == 50
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * 19)


def test_wrappers_are_removed_after_an_exception():
    class Target:
        def method(self):
            raise RuntimeError("boom")

    original = Target.__dict__["method"]
    target = Target()
    rec = tracing.Recorder()
    with pytest.raises(RuntimeError):
        with contextlib.ExitStack() as stack:
            tracing.patch(stack, rec, Target, "method", "target")
            tracing.patch(stack, rec, target, "method", "instance")
            target.method()
    assert Target.__dict__["method"] is original
    assert "method" not in vars(target)
    assert rec.stack == []


class TinyFig6InProcess(workloads.Fig6InProcess):
    plugs = (1, 2, 2)
    duration = 200


class TinyYahooFanIn(workloads.YahooFanIn):
    seconds = 20


class TinyQ3SimRecovery(workloads.Q3SimRecovery):
    seconds = 20
    events_per_second = 100


WRAPPED = [
    (Table, "lookup_one"), (Table, "lookup"), (Derby, "lookup"),
    (InProcessPipeline, "push"), (InProcessPipeline, "push_batch"),
    (Merge, "handle"), (Merge, "handle_batch"), (Simulator, "run"),
    (CompiledBolt, "execute"), (CompiledBolt, "execute_batch"),
    (CompiledBolt, "snapshot_state"), (CompiledBolt, "restore_state"),
    (AlignedCaptureBolt, "execute"), (AlignedCaptureBolt, "execute_batch"),
    (AlignedCaptureBolt, "snapshot_state"), (AlignedCaptureBolt, "restore_state"),
    (MergeFrontend, "accept"), (MergeFrontend, "accept_batch"),
    (MarkerAwareGrouping, "select"),
]


@pytest.mark.parametrize(
    "cls", [TinyFig6InProcess, TinyYahooFanIn, TinyQ3SimRecovery]
)
def test_traced_pass_matches_reference_and_unwraps(cls):
    workload = cls(seed=3)
    checks = run.Checks(workload.reference())
    models = workload.setup()
    before = {(owner, name): vars(owner).get(name) for owner, name in WRAPPED}

    rec = tracing.Recorder()
    traced = run.run_pass(workload, models, recorder=rec)

    after = {(owner, name): vars(owner).get(name) for owner, name in WRAPPED}
    assert all(after[key] is before[key] for key in WRAPPED)
    assert rec.stack == []
    counts = run.layer_counts(rec, traced)
    assert sum(counts.values()) > 0

    plain = run.run_pass(workload, models)
    checks.outputs(plain.outputs, "plain")
    checks.outputs(traced.outputs, "traced")
    assert checks.correct and checks.failed == 0 and checks.attempted > 0
    assert traced.outputs == plain.outputs
    assert traced.makespan == plain.makespan


def test_a_wrong_epoch_is_counted():
    want = ["a", "b", "c"]
    assert workloads.compare_epochs(["a", "x", "c"], want) == (3, 1)
    assert workloads.compare_epochs(["a", "b"], want) == (3, 1)
    assert workloads.compare_epochs(["a", "b", "c", "d"], want) == (4, 1)


def test_a_missing_or_unexpected_sink_fails_all_its_epochs():
    checks = run.Checks({"A": ["a1", "a2"], "B": ["b1", "b2", "b3"]})
    checks.outputs({"A": ["a1", "a2"], "C": ["c1"]}, "pass")
    assert (checks.attempted, checks.failed) == (6, 4)
    assert not checks.correct


def test_a_layer_without_a_metric_is_reported():
    rec = tracing.Recorder()
    tracing.wrapper(rec, "operators.JFM", lambda: None)()
    assert run.unreported_layers(rec) == []
    tracing.wrapper(rec, "operators.NewVertex", lambda: None)()
    assert run.unreported_layers(rec) == ["operators.NewVertex"]
