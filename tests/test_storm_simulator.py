"""The discrete-event cluster simulator: correctness of delivery (FIFO
links, routing), cost accounting, contention, and determinism."""

import pytest

from repro.errors import SimulationError
from repro.operators.base import KV, Marker
from repro.storm.batching import BatchingOptions
from repro.storm.cluster import Cluster, Placement, round_robin_placement
from repro.storm.costs import (
    CostModel,
    PerComponentCostModel,
    UniformCostModel,
    ZeroCostModel,
)
from repro.storm.groupings import MarkerAwareGrouping, ShuffleGrouping
from repro.storm.local import LocalRunner
from repro.storm.simulator import Simulator
from repro.storm.topology import (
    Bolt,
    CaptureBolt,
    IteratorSpout,
    TopologyBuilder,
)


class Forward(Bolt):
    def execute(self, state, tup, collector):
        collector.emit(tup.event)


def chain_topology(events, bolt_parallelism=1, grouping=None):
    builder = TopologyBuilder("chain")
    builder.set_spout("src", IteratorSpout(lambda i, n: iter(events)), 1)
    builder.set_bolt("fwd", Forward(), bolt_parallelism).grouping(
        "src", grouping or MarkerAwareGrouping("rr")
    )
    sink = CaptureBolt()
    builder.set_bolt("sink", sink, 1).grouping("fwd", MarkerAwareGrouping("global"))
    return builder.build(), sink


class TestDelivery:
    def test_all_tuples_delivered(self):
        events = [KV("a", i) for i in range(50)] + [Marker(1)]
        topology, _ = chain_topology(events)
        report = Simulator(topology, Cluster(2)).run()
        data = [e for e in report.sink_events["sink"] if isinstance(e, KV)]
        assert len(data) == 50

    def test_fifo_per_link(self):
        """Tuples between a fixed producer and consumer task must arrive
        in emission order despite jittered network delays."""
        events = [KV("a", i) for i in range(200)]
        topology, _ = chain_topology(events, bolt_parallelism=1)
        report = Simulator(topology, Cluster(1), seed=5).run()
        values = [e.value for e in report.sink_events["sink"] if isinstance(e, KV)]
        assert values == sorted(values)

    def test_input_counters(self):
        events = [KV("a", 1), Marker(1), KV("b", 2)]
        topology, _ = chain_topology(events)
        report = Simulator(topology, Cluster(1)).run()
        assert report.input_data_tuples == 2
        assert report.input_all_tuples == 3

    def test_processed_counts(self):
        events = [KV("a", i) for i in range(10)]
        topology, _ = chain_topology(events, bolt_parallelism=2)
        report = Simulator(topology, Cluster(2)).run()
        assert report.processed["fwd"] == 10
        assert report.processed["sink"] == 10

    def test_runaway_guard(self):
        class Amplifier(Bolt):
            def execute(self, state, tup, collector):
                collector.emit(tup.event)
                collector.emit(tup.event)

        builder = TopologyBuilder("wide")
        builder.set_spout(
            "src", IteratorSpout(lambda i, n: iter([KV("a", 1)] * 40)), 1
        )
        previous = "src"
        for stage in range(12):
            builder.set_bolt(f"amp{stage}", Amplifier(), 1).grouping(
                previous, MarkerAwareGrouping("global")
            )
            previous = f"amp{stage}"
        topology = builder.build()
        with pytest.raises(SimulationError):
            Simulator(topology, Cluster(1), max_events=10_000).run()


class TestCostsAndScaling:
    def test_makespan_grows_with_cost(self):
        events = [KV("a", i) for i in range(100)]
        topology, _ = chain_topology(events)
        cheap = Simulator(topology, Cluster(1), cost_model=UniformCostModel(1e-6)).run()
        topology2, _ = chain_topology(events)
        costly = Simulator(
            topology2, Cluster(1), cost_model=UniformCostModel(100e-6)
        ).run()
        assert costly.makespan > cheap.makespan * 10

    def test_parallelism_improves_makespan(self):
        events = [KV("a", i) for i in range(300)]
        cost = PerComponentCostModel({"fwd": 50e-6})
        topology1, _ = chain_topology(events, bolt_parallelism=1)
        t1 = Simulator(topology1, Cluster(1), cost_model=cost, seed=1).run()
        topology4, _ = chain_topology(events, bolt_parallelism=4)
        t4 = Simulator(topology4, Cluster(4), cost_model=cost, seed=1).run()
        assert t4.makespan < t1.makespan / 2

    def test_throughput_definition(self):
        events = [KV("a", i) for i in range(10)]
        topology, _ = chain_topology(events)
        report = Simulator(topology, Cluster(1)).run()
        assert report.throughput() == pytest.approx(
            report.input_data_tuples / report.makespan
        )

    def test_cost_model_charges_per_component(self):
        model = PerComponentCostModel({"a": 5e-6, "b": lambda e: 7e-6})
        assert model.cpu_cost("a", KV("k", 1)) == 5e-6
        assert model.cpu_cost("b", KV("k", 1)) == 7e-6
        assert model.cpu_cost("other", KV("k", 1)) == model._default

    def test_network_locality(self):
        model = CostModel()
        import random as _random

        rng = _random.Random(0)
        assert model.network_delay(0, 0, rng) < model.network_delay(0, 1, rng)


class TestDeterminism:
    def test_same_seed_same_outputs(self):
        events = [KV("a", i) for i in range(30)] + [Marker(1)]
        topology, _ = chain_topology(
            events, bolt_parallelism=3, grouping=ShuffleGrouping()
        )
        r1 = Simulator(topology, Cluster(2), seed=7).run()
        topology2, _ = chain_topology(
            events, bolt_parallelism=3, grouping=ShuffleGrouping()
        )
        r2 = Simulator(topology2, Cluster(2), seed=7).run()
        assert r1.sink_events["sink"] == r2.sink_events["sink"]

    def test_different_seeds_can_differ(self):
        events = [KV("a", i) for i in range(30)] + [Marker(1)]
        orders = set()
        for seed in range(6):
            topology, _ = chain_topology(
                events, bolt_parallelism=3, grouping=ShuffleGrouping()
            )
            report = Simulator(topology, Cluster(2), seed=seed).run()
            orders.add(tuple(map(repr, report.sink_events["sink"])))
        assert len(orders) > 1


class TestPlacement:
    def test_round_robin_spreads_bolts(self):
        events = [KV("a", 1)]
        topology, _ = chain_topology(events, bolt_parallelism=4)
        cluster = Cluster(2)
        placement = round_robin_placement(topology, cluster)
        machines = {placement.machine_of("fwd", i) for i in range(4)}
        assert machines == {0, 1}

    def test_sources_offloaded(self):
        events = [KV("a", 1)]
        topology, _ = chain_topology(events)
        placement = round_robin_placement(topology, Cluster(2))
        assert placement.machine_of("src", 0) == Cluster.SOURCE_HOST
        assert placement.machine_of("sink", 0) == Cluster.SOURCE_HOST

    def test_missing_assignment_raises(self):
        placement = Placement()
        with pytest.raises(SimulationError):
            placement.machine_of("ghost", 0)

    def test_cluster_requires_machines(self):
        with pytest.raises(SimulationError):
            Cluster(0)


class TestLocalRunner:
    def test_runs_to_completion(self):
        events = [KV("a", 1), Marker(1)]
        topology, _ = chain_topology(events)
        report = LocalRunner(topology).run()
        assert report.input_data_tuples == 1

    def test_sweep_seeds_detects_invariance(self):
        events = [KV("a", 1), KV("a", 2), Marker(1)]
        topology, _ = chain_topology(events, bolt_parallelism=1)
        runner = LocalRunner(topology)
        traces = runner.sweep_seeds("sink", ordered=False, seeds=range(3))
        assert len(set(traces)) == 1


class TestReportEdgeCases:
    """Regression tests: empty or degenerate runs must degrade gracefully
    rather than raising KeyError / ZeroDivisionError."""

    def _empty_report(self):
        topology, _ = chain_topology([])  # spout exhausted immediately
        return Simulator(topology, Cluster(1), cost_model=ZeroCostModel()).run()

    def test_empty_run_throughput_is_zero(self):
        report = self._empty_report()
        assert report.makespan == 0.0
        assert report.throughput() == 0.0

    def test_nonempty_zero_makespan_throughput_is_inf(self):
        report = self._empty_report()
        report.input_data_tuples = 5  # data in zero simulated time
        assert report.throughput() == float("inf")

    def test_empty_run_utilization_is_zero(self):
        report = self._empty_report()
        assert report.mean_utilization() == 0.0
        assert report.utilization(0) == 0.0
        assert report.utilization(99) == 0.0  # unknown machine, no KeyError

    def test_marker_latencies_unknown_sink_is_empty(self):
        report = self._empty_report()
        assert report.marker_latencies("sink") == {}       # no deliveries
        assert report.marker_latencies("no-such-sink") == {}

    def test_marker_latencies_no_markers_is_empty(self):
        events = [KV("a", 1), KV("a", 2)]  # data only, no markers
        topology, _ = chain_topology(events)
        report = Simulator(topology, Cluster(1)).run()
        assert report.marker_latencies("sink") == {}

    def test_marker_latencies_normal_run_still_works(self):
        events = [KV("a", 1), Marker(1), KV("a", 2), Marker(2)]
        topology, _ = chain_topology(events)
        report = Simulator(topology, Cluster(1)).run()
        latencies = report.marker_latencies("sink")
        assert set(latencies) == {1, 2}
        assert all(v >= 0 for v in latencies.values())


class TestBatchingOptions:
    @pytest.mark.parametrize("max_batch", [0, -3])
    def test_non_positive_max_batch_is_rejected(self, max_batch):
        # A batch cap below one would drain empty batches forever.
        with pytest.raises(ValueError, match="max_batch"):
            BatchingOptions(max_batch=max_batch)
