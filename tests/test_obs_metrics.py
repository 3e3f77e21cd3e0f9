"""Observability metrics layer: registry semantics, null-registry
behaviour, and — crucially — instrumentation parity: an instrumented
simulation must produce bit-identical results to an uninstrumented one
(the obs layer is read-only with respect to the schedule and the RNG).
"""

import pytest

from repro.apps.iot import SensorWorkload, iot_typed_dag
from repro.compiler import compile_dag
from repro.compiler.compile import source_from_events
from repro.obs import ObsContext, MetricsRegistry, NullRegistry, Tracer
from repro.obs.metrics import percentile
from repro.operators.base import KV, Marker
from repro.storm.batching import BatchingOptions
from repro.storm.cluster import Cluster
from repro.storm.local import LocalRunner
from repro.storm.simulator import Simulator
from repro.storm.topology import CaptureBolt, IteratorSpout, TopologyBuilder


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("tuples", component="a").inc()
        reg.counter("tuples", component="a").inc(2)
        reg.counter("tuples", component="b").inc()
        snap = reg.snapshot()
        assert snap["tuples"]["component=a"] == 3
        assert snap["tuples"]["component=b"] == 1

    def test_metric_identity_is_name_plus_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("n", x=1, y=2)
        b = reg.counter("n", y=2, x=1)  # label order must not matter
        c = reg.counter("n", x=1, y=3)
        assert a is b
        assert a is not c

    def test_gauge_tracks_extremes_and_note(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("skew", task=0)
        gauge.set_max(1, note="ch0")
        gauge.set_max(5, note="ch1")
        gauge.set_max(3, note="ch2")  # not a new max: note must not move
        assert gauge.max == 5
        assert gauge.note == "ch1"
        assert gauge.value == 3

    def test_histogram_percentiles(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat")
        for value in [5.0, 1.0, 3.0, 2.0, 4.0]:
            hist.observe(value)
        assert hist.percentile(0) == 1.0
        assert hist.percentile(50) == 3.0
        assert hist.percentile(100) == 5.0
        assert hist.mean() == pytest.approx(3.0)

    def test_percentile_helper_empty(self):
        assert percentile([], 99) == 0.0

    def test_empty_histogram_percentile_is_nan(self):
        import math

        reg = MetricsRegistry()
        hist = reg.histogram("lat")
        assert math.isnan(hist.percentile(50))
        assert math.isnan(hist.percentile(99))
        # The snapshot reports missing quantiles as None, not 0.0.
        snap = reg.snapshot()
        assert snap["lat"]["_"]["p50"] is None
        assert snap["lat"]["_"]["count"] == 0

    def test_null_registry_is_inert(self):
        reg = NullRegistry()
        assert not reg.enabled
        reg.counter("x", component="a").inc()
        reg.gauge("y").set_max(3, note="z")
        reg.histogram("z").observe(1.0)
        assert reg.snapshot() == {}
        assert reg.metrics() == []

    def test_null_registry_shares_one_instrument(self):
        reg = NullRegistry()
        assert reg.counter("a") is reg.counter("b", any_label=1)


class TestObsContext:
    def test_default_context_is_disabled(self):
        obs = ObsContext()
        assert not obs.enabled

    def test_collecting_context_is_enabled(self):
        obs = ObsContext.collecting()
        assert obs.enabled
        assert isinstance(obs.metrics, MetricsRegistry)
        assert isinstance(obs.tracer, Tracer)

    def test_partial_context_tracer_only(self):
        obs = ObsContext(tracer=Tracer())
        assert obs.enabled
        assert not obs.metrics.enabled


def _compiled_iot(seed):
    events = SensorWorkload().events()
    dag = iot_typed_dag(parallelism=2)
    compiled = compile_dag(dag, {"SENSOR": source_from_events(events, 2)})
    return compiled.topology


class TestInstrumentationParity:
    """Enabled instrumentation must not change simulation outcomes."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_identical_results_compiled_topology(self, seed):
        plain = LocalRunner(_compiled_iot(seed), seed=seed).run()
        obs = ObsContext.collecting()
        traced = LocalRunner(_compiled_iot(seed), seed=seed, obs=obs).run()

        assert traced.makespan == plain.makespan
        assert traced.processed == plain.processed
        assert traced.emitted == plain.emitted
        assert traced.sink_events == plain.sink_events
        assert traced.sink_delivery_times == plain.sink_delivery_times
        assert traced.machine_busy == plain.machine_busy
        # And the instrumented run actually collected something.
        assert obs.tracer.spans
        assert obs.metrics.snapshot()

    def test_identical_results_with_costs(self):
        events = [KV("k", i) for i in range(40)] + [Marker(1)]
        builder = TopologyBuilder("t")
        builder.set_spout("src", IteratorSpout(lambda i, n: iter(events)), 1)
        builder.set_bolt("sink", CaptureBolt(), 1).shuffle_grouping("src")
        topology = builder.build()

        plain = Simulator(topology, Cluster(2), seed=4).run()
        obs = ObsContext.collecting()
        traced = Simulator(topology, Cluster(2), seed=4, obs=obs).run()
        assert traced.makespan == plain.makespan
        assert traced.sink_events == plain.sink_events

    def test_disabled_context_collects_nothing(self):
        obs = ObsContext()  # null registry + null tracer
        LocalRunner(_compiled_iot(0), seed=0, obs=obs).run()
        assert obs.metrics.snapshot() == {}

    def test_event_counts_match_report(self):
        """Metric counters agree with the report's own accounting."""
        obs = ObsContext.collecting()
        report = LocalRunner(_compiled_iot(0), seed=0, obs=obs).run()
        snap = obs.metrics.snapshot()
        for component, count in report.processed.items():
            if count:  # spouts never enter the bolt path and stay at 0
                assert snap["tuples_processed"][f"component={component}"] == count

    def test_batched_run_counts_tuples_not_executions(self):
        """Observed micro-batch runs keep the batched schedule, and
        ``tuples_processed`` counts tuples: one execution span may cover
        a whole batch."""
        events = SensorWorkload().events()
        compiled = compile_dag(
            iot_typed_dag(parallelism=2),
            {"SENSOR": source_from_events(events, 2)},
        )
        batching = BatchingOptions.for_compiled(compiled)
        cluster = Cluster(2, cores_per_machine=2)
        plain = Simulator(
            compiled.topology, cluster, seed=5, batching=batching
        ).run()
        obs = ObsContext.collecting()
        report = Simulator(
            compiled.topology, cluster, seed=5, batching=batching, obs=obs
        ).run()
        assert report.makespan == plain.makespan
        assert report.processed == plain.processed
        assert report.sink_delivery_times == plain.sink_delivery_times
        counted = obs.metrics.snapshot()["tuples_processed"]
        assert sum(counted.values()) == sum(report.processed.values())
        bolt_executions = [
            span for span in obs.tracer.spans_by_cat("exec")
            if report.processed[span.component]
        ]
        assert len(bolt_executions) < sum(report.processed.values())

    def test_merge_skew_gauges_present_for_compiled_bolts(self):
        obs = ObsContext.collecting()
        LocalRunner(_compiled_iot(0), seed=0, obs=obs).run()
        snap = obs.metrics.snapshot()
        assert "merge_skew" in snap
        assert "merge_buffered_tuples" in snap
