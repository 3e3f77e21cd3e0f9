"""Snapshot exporters: Prometheus text exposition and JSONL telemetry.

:func:`prometheus_text` renders a :class:`~repro.obs.metrics.MetricsRegistry`
(and, optionally, a :class:`~repro.obs.monitor.MonitorHub`) in the
Prometheus text exposition format, version 0.0.4: counters as ``_total``
series, gauges with an extra ``_max`` series, histograms as summaries
with ``quantile`` labels.  The output is a point-in-time scrape of a
finished (or in-flight) simulated run — suitable for pushing to a
Pushgateway or diffing in CI.

JSONL telemetry lives on :meth:`MonitorHub.telemetry_records`; this
module only adds the file-writing convenience wrappers so the CLI has a
single import for both formats.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional

from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.tracing import _open_for_write


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labels, extra=()) -> str:
    pairs = [*labels, *extra]
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in pairs)
    return "{" + body + "}"


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def prometheus_text(metrics: Any, monitors: Any = None,
                    namespace: str = "repro") -> str:
    """Render metrics (and monitor state) as Prometheus exposition text.

    ``metrics`` is a registry with ``.metrics()`` (a
    :class:`~repro.obs.metrics.NullRegistry` renders nothing);
    ``monitors`` is an optional :class:`~repro.obs.monitor.MonitorHub`
    contributing violation/alert/watermark series.
    """
    lines: List[str] = []
    families: dict = {}
    for metric in (metrics.metrics() if metrics is not None else []):
        families.setdefault(metric.name, []).append(metric)

    for name in sorted(families):
        group = families[name]
        metric_name = f"{namespace}_{_sanitize(name)}"
        sample = group[0]
        if isinstance(sample, Counter):
            lines.append(f"# TYPE {metric_name}_total counter")
            for m in group:
                lines.append(
                    f"{metric_name}_total{_label_str(m.labels)} {_fmt(m.value)}"
                )
        elif isinstance(sample, Gauge):
            lines.append(f"# TYPE {metric_name} gauge")
            for m in group:
                if m.value is not None:
                    lines.append(
                        f"{metric_name}{_label_str(m.labels)} {_fmt(m.value)}"
                    )
            maxes = [m for m in group if m.max is not None]
            if maxes:
                lines.append(f"# TYPE {metric_name}_max gauge")
                for m in maxes:
                    lines.append(
                        f"{metric_name}_max{_label_str(m.labels)} {_fmt(m.max)}"
                    )
        elif isinstance(sample, Histogram):
            lines.append(f"# TYPE {metric_name} summary")
            for m in group:
                for q, p in (("0.5", 50), ("0.9", 90), ("0.99", 99)):
                    lines.append(
                        f"{metric_name}"
                        f"{_label_str(m.labels, [('quantile', q)])} "
                        f"{_fmt(m.percentile(p))}"
                    )
                lines.append(
                    f"{metric_name}_sum{_label_str(m.labels)} {_fmt(m.sum())}"
                )
                lines.append(
                    f"{metric_name}_count{_label_str(m.labels)} "
                    f"{float(m.count()):g}"
                )

    if monitors is not None:
        lines.extend(_monitor_series(monitors, namespace))
    return "\n".join(lines) + ("\n" if lines else "")


def _monitor_series(monitors: Any, namespace: str) -> List[str]:
    lines: List[str] = []
    name = f"{namespace}_monitor_violations_total"
    lines.append(f"# HELP {name} Data-trace type invariant violations observed.")
    lines.append(f"# TYPE {name} counter")
    per_edge: dict = {}
    for v in monitors.violations:
        key = (v.invariant, v.edge)
        per_edge[key] = per_edge.get(key, 0) + 1
    # Capped storage can undercount per-edge; fall back to the by-kind
    # totals for the label-free series so the grand total stays exact.
    for (invariant, edge), count in sorted(per_edge.items()):
        lines.append(
            f"{name}{_label_str((), [('invariant', invariant), ('edge', edge)])}"
            f" {float(count):g}"
        )
    lines.append(f"{name} {float(monitors.violation_count()):g}")

    name = f"{namespace}_monitor_alerts_total"
    lines.append(f"# TYPE {name} counter")
    by_kind: dict = {}
    for a in monitors.alerts:
        by_kind[a.kind] = by_kind.get(a.kind, 0) + 1
    for kind, count in sorted(by_kind.items()):
        lines.append(
            f"{name}{_label_str((), [('kind', kind)])} {float(count):g}"
        )
    lines.append(f"{name} {float(len(monitors.alerts)):g}")

    name = f"{namespace}_monitor_frontier_epochs"
    lines.append(f"# TYPE {name} gauge")
    lines.append(f"{name} {float(monitors.summary()['frontier_epochs']):g}")

    name = f"{namespace}_monitor_watermark_lag_epochs"
    lines.append(f"# TYPE {name} gauge")
    for (component, task) in sorted(monitors.watermarks):
        lag = monitors.watermark_lag(component, task)
        if lag is None:
            continue
        labels = [("component", component), ("task", task)]
        lines.append(f"{name}{_label_str((), labels)} {float(lag):g}")
    return lines


def write_prometheus(path: str, metrics: Any, monitors: Any = None,
                     namespace: str = "repro") -> None:
    with _open_for_write(path) as fh:
        fh.write(prometheus_text(metrics, monitors, namespace))


def render_watch_line(row: dict) -> Optional[str]:
    """One compact dashboard line for a telemetry row (``repro obs watch``)."""
    if row.get("type") == "recovery":
        return (
            f"t={row['time']:>10.4f}  ROLLBACK to epoch "
            f"{row.get('epoch')!s} (recovery #{row.get('recoveries_total')})"
        )
    if row.get("type") != "telemetry":
        return None
    lag = row.get("max_watermark_lag")
    lag_str = "-" if lag is None else f"{lag}@{row.get('max_watermark_lag_task')}"
    return (
        f"t={row['time']:>10.4f}  epoch#{row['frontier_index']:>4} "
        f"{str(row.get('frontier_epoch')):>12}  lag={lag_str:<16} "
        f"qmax={row.get('max_queue_depth', 0):>5.0f}  "
        f"violations={row.get('violations_total', 0)}  "
        f"alerts={row.get('alerts_total', 0)}"
    )
