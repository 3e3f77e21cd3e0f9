"""The experiment harness (cost models, sweeps, reporting) and the
visualization/CLI utilities."""

import statistics

import pytest

from repro.bench.harness import (
    DEFAULT_VERTEX_COST,
    GENERATED_GLUE_COST,
    HANDCRAFTED_GLUE_COST,
    FusedCostModel,
    MarkerTriggerCost,
    ScalingPoint,
    fused_cost_model,
    measure_throughput,
    sweep_machines,
)
from repro.bench.reporting import (
    format_comparison_table,
    format_scaling_table,
    quartiles,
    ratios,
    scaling_factor,
)
from repro.dag import TransductionDAG
from repro.dag.viz import dag_to_dot, render_dag, topology_to_dot
from repro.operators.base import KV, Marker
from repro.operators.library import map_values, tumbling_count
from repro.storm.simulator import SimulationReport
from repro.traces.trace_type import unordered_type

U = unordered_type()


class TestFusedCostModel:
    def test_single_vertex(self):
        model = FusedCostModel({"A": 5e-6}, glue_cost=1e-6)
        assert model.cpu_cost("A", KV("k", 1)) == pytest.approx(6e-6)

    def test_fused_chain_sums(self):
        model = FusedCostModel({"A": 5e-6, "B": 3e-6}, glue_cost=1e-6)
        assert model.cpu_cost("A;B", KV("k", 1)) == pytest.approx(9e-6)

    def test_unknown_vertex_uses_default(self):
        model = FusedCostModel({}, glue_cost=0.0, default=2e-6)
        assert model.cpu_cost("mystery", KV("k", 1)) == pytest.approx(2e-6)

    def test_dedup_suffix_resolved(self):
        model = FusedCostModel({"SORT": 4e-6}, glue_cost=0.0)
        assert model.cpu_cost("SORT.1", KV("k", 1)) == pytest.approx(4e-6)

    def test_callable_entry(self):
        model = FusedCostModel(
            {"A": lambda e: 7e-6 if isinstance(e, Marker) else 1e-6},
            glue_cost=0.0,
        )
        assert model.cpu_cost("A", Marker(1)) == pytest.approx(7e-6)
        assert model.cpu_cost("A", KV("k", 1)) == pytest.approx(1e-6)

    def test_vertex_cost_no_glue(self):
        model = FusedCostModel({"A": 5e-6}, glue_cost=1e-6)
        assert model.vertex_cost("A", KV("k", 1)) == pytest.approx(5e-6)
        assert model.glue_cost("A;B", KV("k", 1)) == pytest.approx(1e-6)

    def test_factory_glue_selection(self):
        generated = fused_cost_model({}, generated=True)
        hand = fused_cost_model({}, generated=False)
        assert generated.glue_cost("x", KV("k", 1)) == GENERATED_GLUE_COST
        assert hand.glue_cost("x", KV("k", 1)) == HANDCRAFTED_GLUE_COST


class TestMarkerTriggerCost:
    def test_items_charged_flat(self):
        entry = MarkerTriggerCost(1e-6, 50e-6)
        assert entry.cost(KV("k", 1), 0) == 1e-6

    def test_first_marker_triggers(self):
        entry = MarkerTriggerCost(1e-6, 50e-6, forward_cost=0.1e-6)
        assert entry.cost(Marker(1), 0) == 50e-6
        assert entry.cost(Marker(1), 0) == 0.1e-6  # repeat delivery
        assert entry.cost(Marker(2), 0) == 50e-6   # new timestamp
        assert entry.cost(Marker(1), 1) == 50e-6   # other task

    def test_plain_callable_fallback(self):
        entry = MarkerTriggerCost(1e-6, 50e-6)
        assert entry(KV("k", 1)) == 1e-6


def tiny_topology(parallelism=2):
    from repro.compiler import compile_dag
    from repro.compiler.compile import source_from_events

    dag = TransductionDAG("tiny")
    src = dag.add_source("src", output_type=U)
    op = dag.add_op(map_values(lambda v: v, name="M"), parallelism=parallelism,
                    upstream=[src], edge_types=[U])
    dag.add_sink("out", upstream=op)
    events = [KV("a", i) for i in range(50)] + [Marker(1)]
    return compile_dag(dag, {"src": source_from_events(events, 1)}).topology


class TestSweep:
    def test_measure_throughput(self):
        report = measure_throughput(
            tiny_topology(), 2, fused_cost_model({"M": 10e-6})
        )
        assert isinstance(report, SimulationReport)
        assert report.input_data_tuples == 50

    def test_sweep_machines_points(self):
        points = sweep_machines(
            lambda n: tiny_topology(parallelism=2 * n),
            lambda n: fused_cost_model({"M": 10e-6}),
            machines=(1, 2),
        )
        assert [p.machines for p in points] == [1, 2]
        assert all(p.throughput > 0 for p in points)

    def test_scaling_factor(self):
        points = [
            ScalingPoint(1, 100.0, 1.0, None),
            ScalingPoint(2, 250.0, 0.5, None),
        ]
        assert scaling_factor(points) == 2.5

    def test_ratios(self):
        hand = [ScalingPoint(1, 100.0, 1.0, None)]
        gen = [ScalingPoint(1, 90.0, 1.0, None)]
        assert ratios(hand, gen) == [0.9]


class TestReporting:
    def test_scaling_table_format(self):
        points = [ScalingPoint(1, 1_000_000.0, 1.0, None)]
        table = format_scaling_table("title", points)
        assert "title" in table and "1.000" in table

    def test_comparison_table_format(self):
        hand = [ScalingPoint(1, 1_000_000.0, 1.0, None)]
        gen = [ScalingPoint(1, 1_200_000.0, 1.0, None)]
        table = format_comparison_table("cmp", hand, gen)
        assert "1.200" in table and "1.200" in table.splitlines()[-1]

    @pytest.mark.parametrize("samples", [[3.0, 1.0, 2.0], [4.0, 1.0, 3.0, 2.0], [5.0] * 9])
    def test_quartiles_middle_cut_is_the_median(self, samples):
        q1, median, q3 = quartiles(samples)
        assert median == statistics.median(samples)
        assert min(samples) <= q1 <= median <= q3 <= max(samples)

    def test_quartiles_of_one_sample(self):
        assert quartiles([0.25]) == (0.25, 0.25, 0.25)


class TestViz:
    def test_dag_to_dot(self):
        dag = TransductionDAG("d")
        src = dag.add_source("src", output_type=U)
        op = dag.add_op(tumbling_count("C"), parallelism=2, upstream=[src],
                        edge_types=[U])
        dag.add_sink("out", upstream=op)
        dot = dag_to_dot(dag)
        assert dot.startswith('digraph "d"')
        assert "C[x2]" in dot
        assert "U(K,V)" in dot

    def test_topology_to_dot(self):
        dot = topology_to_dot(tiny_topology())
        assert "digraph" in dot
        assert "MarkerAware" in dot

    def test_render_dag_plain(self):
        dag = TransductionDAG("d")
        src = dag.add_source("src", output_type=U)
        op = dag.add_op(tumbling_count("C"), upstream=[src], edge_types=[U])
        dag.add_sink("out", upstream=op)
        assert "src" in render_dag(dag)


class TestCli:
    def test_show_dag_text(self, capsys):
        from repro.cli import main

        assert main(["show-dag", "iot"]) == 0
        out = capsys.readouterr().out
        assert "SENSOR" in out and "SORT" in out

    def test_show_dag_dot(self, capsys):
        from repro.cli import main

        assert main(["show-dag", "quickstart", "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_motivation_command(self, capsys):
        from repro.cli import main

        assert main(["motivation", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "equals denotation: True" in out


class TestAsciiChart:
    def test_bars_scale_with_throughput(self):
        from repro.bench.reporting import ascii_chart

        points = [
            ScalingPoint(1, 100_000.0, 1.0, None),
            ScalingPoint(2, 200_000.0, 0.5, None),
        ]
        chart = ascii_chart(points, width=10, title="demo")
        lines = chart.splitlines()
        assert lines[0] == "demo"
        assert lines[1].count("#") == 5
        assert lines[2].count("#") == 10

    def test_empty_points(self):
        from repro.bench.reporting import ascii_chart

        assert "(no data)" in ascii_chart([], title="t")
