"""Rendering of experiment results in the paper's figure shapes.

The paper's Figure 4 plots throughput (million tuples/sec) against
machines (1..8) with two curves — hand-crafted (blue) and
transduction-based (orange).  :func:`format_comparison_table` prints the
same series as rows; :func:`format_scaling_table` prints a single curve
(Figure 6).
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import ScalingPoint
from repro.obs.metrics import percentile


def _mtps(throughput: float) -> str:
    """Throughput in million tuples/sec, 3 decimals (the figure axis)."""
    return f"{throughput / 1e6:.3f}"


def format_scaling_table(title: str, points: Sequence[ScalingPoint]) -> str:
    """One-curve table: machines vs throughput (Figure 6 shape)."""
    lines = [title, "machines  throughput(Mtuples/s)"]
    for point in points:
        lines.append(f"{point.machines:>8}  {_mtps(point.throughput):>21}")
    return "\n".join(lines)


def format_comparison_table(
    title: str,
    handcrafted: Sequence[ScalingPoint],
    generated: Sequence[ScalingPoint],
) -> str:
    """Two-curve table: the Figure 4 shape, plus the generated/hand ratio."""
    lines = [
        title,
        "machines  handcrafted(M/s)  generated(M/s)  generated/handcrafted",
    ]
    for hand, gen in zip(handcrafted, generated):
        assert hand.machines == gen.machines
        ratio = gen.throughput / hand.throughput if hand.throughput else float("nan")
        lines.append(
            f"{hand.machines:>8}  {_mtps(hand.throughput):>16}  "
            f"{_mtps(gen.throughput):>14}  {ratio:>21.3f}"
        )
    return "\n".join(lines)


def scaling_factor(points: Sequence[ScalingPoint]) -> float:
    """Throughput gain from the first to the last machine count."""
    if not points or points[0].throughput == 0:
        return float("nan")
    return points[-1].throughput / points[0].throughput


def ratios(
    handcrafted: Sequence[ScalingPoint], generated: Sequence[ScalingPoint]
) -> List[float]:
    """Per-machine-count generated/hand-crafted throughput ratios."""
    return [
        g.throughput / h.throughput
        for h, g in zip(handcrafted, generated)
        if h.throughput
    ]


def ascii_chart(
    points: Sequence[ScalingPoint], width: int = 40, title: str = ""
) -> str:
    """A terminal bar chart of a scaling curve (one bar per machine
    count, length proportional to throughput) — the CLI's stand-in for
    the paper's line plots."""
    lines: List[str] = []
    if title:
        lines.append(title)
    peak = max((p.throughput for p in points), default=0.0)
    if peak <= 0:
        return "\n".join(lines + ["(no data)"])
    for point in points:
        bar = "#" * max(1, int(round(width * point.throughput / peak)))
        lines.append(
            f"{point.machines:>3} | {bar:<{width}} {_mtps(point.throughput)} M/s"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Machine-readable benchmark emission (BENCH_*.json)
#
# Every figure benchmark writes its measured series through here so the
# perf trajectory is tracked across PRs.  Files are merge-updated: the
# per-query Figure 4 tests each contribute their own top-level key to
# one BENCH_fig4.json.

#: Format marker for downstream tooling.
BENCH_SCHEMA = "repro-bench-v1"


def point_summary(
    point: ScalingPoint, sinks: Optional[Sequence[str]] = None
) -> Dict[str, Any]:
    """One scaling point as JSON-clean numbers.

    Marker latency percentiles pool every sink's per-timestamp
    end-to-end latencies (see ``SimulationReport.marker_latencies``)."""
    report = point.report
    latencies: List[float] = []
    for sink in (sinks if sinks is not None else sorted(report.sink_events)):
        latencies.extend(report.marker_latencies(sink).values())
    return {
        "machines": point.machines,
        "throughput_tps": point.throughput,
        "makespan_s": point.makespan,
        "mean_utilization": report.mean_utilization(),
        "marker_latency_p50_s": percentile(latencies, 50),
        "marker_latency_p99_s": percentile(latencies, 99),
        "marker_epochs": len(latencies),
    }


def curve_summary(
    points: Sequence[ScalingPoint], sinks: Optional[Sequence[str]] = None
) -> List[Dict[str, Any]]:
    """A whole throughput-vs-machines curve as point summaries."""
    return [point_summary(point, sinks) for point in points]


def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of repeated measurements: the median every
    benchmark reports and the spread beside it (``statistics.quantiles``'
    default method, whose middle cut is the median)."""
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return q1, median, q3


def bench_output_dir() -> Path:
    """Where BENCH_*.json land: ``$REPRO_BENCH_DIR`` or the cwd."""
    return Path(os.environ.get("REPRO_BENCH_DIR", "."))


def emit_bench_json(
    filename: str,
    entries: Dict[str, Any],
    out_dir: Optional[Path] = None,
) -> Path:
    """Merge ``entries`` into ``filename`` (read-modify-write).

    Merging lets parametrized benchmarks (one pytest case per query)
    accumulate into a single file; an unparsable existing file is
    replaced rather than crashing the benchmark."""
    directory = Path(out_dir) if out_dir is not None else bench_output_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / filename
    data: Dict[str, Any] = {}
    if path.exists():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(loaded, dict):
                data = loaded
        except ValueError:
            data = {}
    data.update(entries)
    data["schema"] = BENCH_SCHEMA
    path.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path
