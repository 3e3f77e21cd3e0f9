"""The simulator's instrumentation probe.

:class:`SimulatorProbe` is what an observed simulator run records: busy
spans, queue depths, marker-epoch alignment, merge skew, spout spans and
rollback metrics, plus the taps feeding an attached
:class:`~repro.obs.monitor.MonitorHub`.  The simulator builds one only
for an enabled :class:`~repro.obs.ObsContext`; it never touches the RNG
or the schedule.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.operators.base import Marker


class SimulatorProbe:
    """One run's instrumentation, called by the event loop on delivery,
    execution, seal, spout emission and run end, and by the fault
    coordinator on checkpoint and rollback."""

    def __init__(self, obs, tasks, machines, marker_emit_times: Dict[Any, float],
                 machine_busy: Dict[int, float]):
        self.tracer, self.metrics = obs.tracer, obs.metrics
        monitors = obs.monitors
        self.monitors = monitors if monitors is not None and monitors.enabled else None
        self.metrics_on = self.metrics.enabled
        # Trace/measure instrumentation (spans, frontend stats, member
        # breakdowns) is skipped wholesale when only monitors are on, so
        # a monitors-only run pays just the edge/progress taps.
        self.tm_on = self.tracer.enabled or self.metrics_on
        self.machines, self.machine_busy = machines, machine_busy
        self.marker_emit_times = marker_emit_times
        # Tasks whose payload aligns its inputs through a merge frontend
        # (CompiledBolt, AlignedCaptureBolt) get epoch alignment tracing;
        # `sealed` holds the epochs the running execution sealed.
        self.frontends = {
            runtime: runtime.payload for runtime in tasks.values()
            if hasattr(runtime.payload, "frontend_stats")
        }
        self.sealed: List[Any] = []

    def on_deliver(self, runtime, tup, time_now: float) -> None:
        comp, idx = runtime.component, runtime.index
        depth = len(runtime.queue)
        if self.monitors is not None:
            self.monitors.on_delivery(comp, idx, tup, time_now, depth)
        if not self.tm_on:
            return
        self.tracer.sample("queue_depth", comp, idx, time_now, depth)
        self.metrics.gauge("queue_depth", component=comp, task=idx).set_max(depth)
        if runtime in self.frontends and isinstance(tup.event, Marker):
            self.tracer.epoch_arrival(
                comp, idx, runtime.machine, tup.event.timestamp, time_now
            )

    def on_seal(self, runtime, ts: Any) -> None:
        if runtime in self.frontends:
            self.sealed.append(ts)

    def on_checkpoint(self, component: str) -> None:
        self.metrics.counter("checkpoints_taken", component=component).inc()

    def on_execute(
        self, runtime, batch: List[Tuple[Any, bool]], start: float,
        finish: float, cost: float, breakdown: List[Tuple[str, float, int]],
        fanout: int,
    ) -> None:
        """One bolt execution — a tuple or a micro-batch — whose cost
        ``breakdown`` rows are ``(member, seconds, events)``."""
        comp, idx, machine = runtime.component, runtime.index, runtime.machine
        tracer, metrics, sealed = self.tracer, self.metrics, self.sealed
        if self.tm_on:
            tracer.sample("queue_depth", comp, idx, start, len(runtime.queue))
            tracer.exec_span(
                comp, idx, machine, start, finish,
                {"event": type(batch[-1][0].event).__name__, "fanout": fanout},
            )
            metrics.counter("tuples_processed", component=comp).inc(len(batch))
            metrics.counter("task_busy_seconds", component=comp, task=idx).inc(cost)
            metrics.counter("emit_fanout", component=comp).inc(fanout)
            # Per-fused-member sub-spans tile the execution interval in
            # chain order (glue first), so chrome://tracing shows where
            # inside the chain the time went.
            if len(breakdown) > 1:
                cursor = start
                for vertex, vertex_cost, n_events in breakdown:
                    tracer.member_span(comp, idx, machine, vertex, cursor,
                                       cursor + vertex_cost, n_events)
                    cursor += vertex_cost
                    if vertex != "glue":
                        metrics.counter(
                            "member_events", component=comp, vertex=vertex
                        ).inc(n_events)
                        metrics.counter(
                            "member_cpu_seconds", component=comp, vertex=vertex
                        ).inc(vertex_cost)
        hooks = self.frontends.get(runtime)
        if hooks is None:
            return
        # Marker-epoch alignment: each epoch this execution sealed (the
        # delivered marker was the laggard completing it) closes its span.
        if self.monitors is not None:
            for ts in sealed:
                self.monitors.on_epoch_sealed(comp, idx, ts, finish)
        if self.tm_on:
            stats = hooks.frontend_stats(runtime.state)
            for ts in sealed:
                wait = tracer.epoch_release(
                    comp, idx, ts, finish, {"buffered_after": stats["buffered_tuples"]}
                )
                metrics.counter("epochs_aligned", component=comp, task=idx).inc()
                if wait is not None:
                    metrics.histogram("epoch_wait_seconds", component=comp).observe(wait)
        sealed.clear()
        if not self.metrics_on:  # implies tm_on, so `stats` is set
            return
        metrics.gauge("merge_skew", component=comp, task=idx).set_max(
            stats["skew"],
            note=str(stats["laggard"]) if stats["laggard"] is not None else None,
        )
        buffered = stats["buffered_tuples"]
        gauge = metrics.gauge("merge_buffered_tuples", component=comp, task=idx)
        new_peak = buffered > 0 and (gauge.max is None or buffered > gauge.max)
        gauge.set_max(buffered)
        if new_peak:
            # Sizing walks every buffered event, so only do it when the
            # buffer hits a new high-water mark.
            metrics.gauge("merge_buffered_bytes", component=comp, task=idx).set_max(
                hooks.frontend_stats(runtime.state, with_bytes=True)["buffered_bytes"]
            )

    def on_spout_emit(self, runtime, outputs: List[Any], live: bool,
                      start: float, finish: float) -> None:
        """A spout emitted ``outputs`` (a replay when not ``live``)."""
        comp = runtime.component
        if live and self.monitors is not None:
            for event in outputs:
                if isinstance(event, Marker):
                    self.monitors.on_source_marker(comp, event.timestamp, finish)
        if self.tm_on and outputs:
            self.tracer.exec_span(comp, runtime.index, runtime.machine, start,
                                  finish, {"fanout": len(outputs)})
            self.metrics.counter("spout_emitted", component=comp).inc(len(outputs))

    def on_rollback(self, epoch: Any, now: float, recoveries: int) -> None:
        """The fault coordinator rolled every task back to ``epoch``."""
        self.sealed.clear()
        if self.monitors is not None:
            self.monitors.on_rollback(epoch, now)
        self.metrics.counter("recoveries").inc()
        self.metrics.histogram("recovery_rollback_seconds").observe(
            max(0.0, now - self.marker_emit_times.get(epoch, now))
        )
        self.tracer.sample("recovery", "<coordinator>", 0, now, recoveries)

    def finalize(self, makespan: float) -> None:
        self.tracer.finalize(makespan)
        if self.monitors is not None:
            self.monitors.close(makespan)
        for machine in self.machines:
            self.metrics.gauge("machine_busy_seconds", machine=machine.machine_id).set(
                self.machine_busy.get(machine.machine_id, 0.0)
            )
