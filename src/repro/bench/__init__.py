"""Shared experiment harness for the Section 6 reproductions.

- :mod:`repro.bench.harness` — cost-model assembly for compiled (fused)
  and hand-crafted topologies, throughput measurement on the simulated
  cluster, machine-count sweeps.
- :mod:`repro.bench.reporting` — renders the measured series as the
  rows/curves the paper's figures report.
"""

from repro.bench.harness import (
    fused_cost_model,
    measure_throughput,
    sweep_machines,
    MarkerTriggerCost,
    ScalingPoint,
)
from repro.bench.reporting import (
    ascii_chart,
    curve_summary,
    emit_bench_json,
    format_comparison_table,
    format_scaling_table,
    point_summary,
    quartiles,
)

__all__ = [
    "fused_cost_model",
    "measure_throughput",
    "sweep_machines",
    "MarkerTriggerCost",
    "ScalingPoint",
    "format_scaling_table",
    "format_comparison_table",
    "ascii_chart",
    "curve_summary",
    "point_summary",
    "emit_bench_json",
    "quartiles",
]
