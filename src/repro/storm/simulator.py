"""Discrete-event simulation of a topology on a cluster.

The engine executes *real* spout/bolt code, so outputs are genuine; only
time is simulated.  The model:

- every machine has ``cores`` cores; a core executes one tuple at a time;
- every task (component instance) is single-threaded: its tuples are
  processed serially in arrival order, one tuple (or, with
  micro-batching, one epoch-capped batch) per execution;
- an execution costs one ``framework_overhead`` plus ``cpu_cost(component,
  event)`` per tuple, in seconds on a core;
- a tuple emitted at time *t* arrives at a consumer task at
  ``t + network_delay(src_machine, dst_machine)``, with seeded jitter on
  remote hops — jitter (plus shuffle-grouping randomness) is the source
  of interleaving nondeterminism, so a seed sweep explores the
  "arbitrary interleavings imposed by the network" of Section 2;
- spout tasks and capture sinks live on an unbounded implicit host by
  default (see :mod:`repro.storm.cluster`), so the 1..N worker machines
  measure the processing stages, as in the paper's experiments.

The simulation drains the workload to completion; *makespan* is the time
the last tuple finishes anywhere, and throughput = data tuples injected /
makespan.
"""

from __future__ import annotations

import copy
import heapq
from collections import deque
import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SimulationError, TaskFailureError
from repro.operators.base import Event, KV, Marker
from repro.operators.keyed_unordered import CombinedAgg
from repro.storm.batching import BatchingOptions
from repro.storm.cluster import Cluster, Placement, round_robin_placement
from repro.storm.costs import CostModel, UniformCostModel
from repro.storm.faults import FaultPlan, Resequencer
from repro.storm.groupings import Grouping
from repro.storm.recovery import CheckpointStore, RecoveryOptions, RecoveryStats
from repro.storm.recovery import RESTART_DELAY, RETRANSMIT_TIMEOUT
from repro.storm.topology import CaptureBolt, OutputCollector, Spout, Topology
from repro.obs import ObsContext
from repro.storm.tuples import StormTuple

TaskKey = Tuple[str, int]

# Heap actions, in dispatch (frequency) order; rollback keeps the
# injected faults (codes >= CRASH) armed.
RDELIVER, DELIVER, DONE, SPOUT, CRASH, MACHINE_FAULT = range(6)


@dataclass
class SimulationReport:
    """Outcome of one simulated run."""

    makespan: float
    input_data_tuples: int
    input_all_tuples: int
    processed: Dict[str, int]
    emitted: Dict[str, int]
    #: events delivered to each CaptureBolt component, in delivery order.
    sink_events: Dict[str, List[Event]]
    #: delivered (event, src_component, src_task) per sink, for provenance checks.
    sink_tuples: Dict[str, List[StormTuple]]
    #: simulated delivery time of each sink tuple (parallel to sink_events).
    sink_delivery_times: Dict[str, List[float]]
    #: per marker timestamp: simulated time of first spout emission.
    marker_emit_times: Dict[Any, float]
    #: per machine id: total core-seconds of CPU charged.
    machine_busy: Dict[int, float]
    #: cores per machine id (for utilization).
    machine_cores: Dict[int, int]
    #: fault-tolerance accounting (a :class:`~repro.storm.recovery.
    #: RecoveryStats`) when the run had faults or recovery enabled, else
    #: ``None``.  Under recovery the raw ``sink_events``/``sink_tuples``
    #: views are at-least-once (replayed epochs re-deliver); exactly-once
    #: reads go through the capture bolts' aligned/received records,
    #: which roll back with the checkpoints.
    recovery: Optional[Any] = None

    def throughput(self) -> float:
        """Input data tuples per simulated second.

        An empty run (nothing injected, zero makespan) reports 0.0; a
        run that injected data in zero simulated time reports ``inf``.
        """
        if self.makespan <= 0:
            return 0.0 if self.input_data_tuples == 0 else float("inf")
        return self.input_data_tuples / self.makespan

    def utilization(self, machine_id: int) -> float:
        """Fraction of the machine's core-time spent busy over the run."""
        if self.makespan <= 0:
            return 0.0
        capacity = self.machine_cores.get(machine_id, 0) * self.makespan
        if capacity <= 0:
            return 0.0
        return min(1.0, self.machine_busy.get(machine_id, 0.0) / capacity)

    def mean_utilization(self) -> float:
        """Average utilization over the worker machines."""
        machines = [m for m in self.machine_cores if m >= 0]
        if not machines:
            return 0.0
        return sum(self.utilization(m) for m in machines) / len(machines)

    def marker_latencies(self, sink: str) -> Dict[Any, float]:
        """End-to-end latency per marker timestamp at a sink.

        Latency of timestamp ``t`` = time of the *last* delivery of a
        ``t``-marker to the sink (when alignment completes) minus the
        time a spout first emitted it.  The marker traverses every stage,
        so this is the pipeline's synchronization latency.

        A sink with no deliveries — or a name that is not a capture sink
        at all — yields ``{}`` rather than raising."""
        if sink not in self.sink_delivery_times or sink not in self.sink_tuples:
            return {}
        last_arrival: Dict[Any, float] = {}
        for time, tup in zip(self.sink_delivery_times[sink], self.sink_tuples[sink]):
            if isinstance(tup.event, Marker):
                last_arrival[tup.event.timestamp] = time
        return {
            ts: arrival - self.marker_emit_times.get(ts, 0.0)
            for ts, arrival in last_arrival.items()
        }


class _TaskRuntime:
    """Mutable per-task execution state."""

    __slots__ = (
        "component",
        "index",
        "machine",
        "is_spout",
        "payload",
        "state",
        "free_at",
        "routes",
        "collector",
        "queue",
        "running",
        "batchable",
        "compiled",
        "sink",
        "executions",
        "crash_after",
        "last_marker",
        "emit_log",
        "replay_cursor",
        "seal_on_marker",
    )

    def __init__(self, component, index, machine, is_spout, payload, state):
        self.component = component
        self.index = index
        self.machine = machine
        self.is_spout = is_spout
        self.payload = payload
        self.state = state
        self.free_at = 0.0
        # One _Route per downstream component, in topology order.
        self.routes: List[_Route] = []
        self.collector = OutputCollector()
        # FIFO of pending (tuple, remote) deliveries; `running` marks an
        # in-flight execution (a scheduled DONE event).
        self.queue: "deque" = deque()
        self.running = False
        # Micro-batching eligibility; whether the payload reports
        # per-vertex work (`cost_events`); the sink's delivery record.
        self.batchable = False
        self.compiled = hasattr(payload, "cost_events")
        self.sink: Optional[List[Tuple[float, int, StormTuple]]] = None
        # Fault-tolerance bookkeeping (see repro.storm.recovery):
        # pending injected-crash thresholds (lifetime execution counts,
        # ascending; each fires once and is consumed) and the execution
        # count they are compared with, last sealed epoch timestamp, the
        # spout's emission log for replay, the replay cursor into it
        # (None = live), and whether a plain single-channel bolt seals
        # an epoch on each executed marker.
        self.crash_after: List[int] = []
        self.executions = 0
        self.last_marker: Any = None
        self.emit_log: Optional[List[Event]] = None
        self.replay_cursor: Optional[int] = None
        self.seal_on_marker = False


class _Route:
    """One sender task's link state towards one consumer component.

    Bound once per run: the grouping's ``select``, the consumer's task
    runtimes, the edge's :class:`~repro.storm.faults.EdgeFaults`
    (``None`` when healthy) and the sender-side combiner buffer
    (``{key: pending monoid aggregate}``, or ``None``).  Per target
    task it keeps the link's FIFO floor, the reliability layer's
    sequence counter and the receiver's resequencer (the latter two
    are used only on fault-injected links under recovery).
    """

    __slots__ = ("select", "n_tasks", "targets", "edge", "head", "pending",
                 "floors", "seqs", "reseqs")

    def __init__(self, grouping: Grouping, n_tasks: int):
        self.select = grouping.select
        self.n_tasks = n_tasks
        self.targets: List[_TaskRuntime] = []
        self.edge: Any = None
        self.head: Any = None
        self.pending: Optional[Dict[Any, Any]] = None
        self.reseqs: List[Resequencer] = []
        self.reset()

    def reset(self) -> int:
        """Start a new link incarnation after a rollback: floors,
        numbering, resequencers and combiner buffers restart.  Returns
        the duplicates the old resequencers filtered."""
        duplicates = sum(r.duplicates for r in self.reseqs)
        if self.pending:
            self.pending.clear()
        self.floors = [0.0] * self.n_tasks
        self.seqs = [0] * self.n_tasks
        self.reseqs = [Resequencer() for _ in range(self.n_tasks)]
        return duplicates


class Simulator:
    """Run a topology on a simulated cluster.

    Parameters
    ----------
    topology: the component graph.
    cluster: worker machines (see :class:`Cluster`).
    cost_model: CPU/network costs; default charges 1 us per tuple.
    placement: task->machine map; defaults to round-robin with sources
        and capture sinks offloaded.
    seed: RNG seed controlling shuffle groupings and network jitter.
    max_events: safety valve against runaway topologies.
    obs: optional :class:`~repro.obs.ObsContext`; when enabled, the run
        records per-task busy spans, queue-depth timelines, marker-epoch
        alignment spans, and merge channel-skew gauges, and feeds any
        attached :class:`~repro.obs.monitor.MonitorHub` every delivery
        (type-conformance checks), source marker (frontier), and sealed
        epoch (watermarks).  Instrumentation is read-only on both
        schedules, per tuple and batched — it never touches the RNG or
        the schedule, so an instrumented run produces bit-identical
        results; with micro-batching one execution span covers a batch.
    batching: optional :class:`~repro.storm.batching.BatchingOptions`
        enabling the epoch-batched fast paths — receiver-side
        micro-batching through ``execute_batch`` (one framework overhead
        per batch instead of per tuple) and sender-side per-key
        combiners on type-licensed ``U(K,V)`` hash edges.  Batching
        changes the simulated *schedule* (fewer invocations, fewer
        shipped tuples) but never the canonical sink traces.
    faults: optional :class:`~repro.storm.faults.FaultPlan` injecting
        task crashes, machine failures, and per-edge message
        drop/duplicate/reorder.  Fault randomness draws from the plan's
        own seeded RNG, never the scheduling RNG, so enabling the
        machinery without faults leaves the simulated schedule
        unchanged.  Without ``recovery``, a crash raises
        :class:`~repro.errors.TaskFailureError` and message faults are
        raw (drops lose tuples).
    recovery: optional :class:`~repro.storm.recovery.RecoveryOptions`
        enabling epoch-aligned checkpointing and global rollback
        recovery: tasks snapshot at marker boundaries, crashes restore
        the last complete epoch and replay sources from it, and links
        become exactly-once via per-link sequence numbers and
        resequencing (drops turn into retransmissions).  The recovered
        run's canonical sink traces are trace-equivalent to the
        fault-free run's.
    """

    def __init__(
        self,
        topology: Topology,
        cluster: Cluster,
        cost_model: Optional[CostModel] = None,
        placement: Optional[Placement] = None,
        seed: int = 0,
        max_events: int = 50_000_000,
        obs: Optional[ObsContext] = None,
        batching: Optional[BatchingOptions] = None,
        faults: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryOptions] = None,
    ):
        topology.validate()
        self.topology = topology
        self.cluster = cluster
        self.cost_model = cost_model or UniformCostModel()
        self.placement = placement or round_robin_placement(topology, cluster)
        self.seed = seed
        self.max_events = max_events
        self.obs = obs
        self.batching = batching
        self.faults = faults
        self.recovery = recovery

    # ------------------------------------------------------------------

    def run(self) -> SimulationReport:
        rng = random.Random(self.seed)
        topology = self.topology
        tasks: Dict[TaskKey, _TaskRuntime] = {}

        # Instantiate tasks.
        for spec in topology.components.values():
            for index in range(spec.parallelism):
                machine = self.placement.machine_of(spec.name, index)
                if spec.is_spout:
                    spout: Spout = copy.copy(spec.payload)
                    spout.open(index, spec.parallelism)
                    runtime = _TaskRuntime(
                        spec.name, index, machine, True, spout, None
                    )
                else:
                    state = spec.payload.prepare(index, spec.parallelism)
                    runtime = _TaskRuntime(
                        spec.name, index, machine, False, spec.payload, state
                    )
                # One route, with its own grouping instance, per
                # downstream bolt (bound to its targets further down).
                for consumer, grouping in topology.downstream_of(spec.name):
                    instance = copy.deepcopy(grouping)
                    instance.bind(random.Random(rng.randrange(2**62)))
                    runtime.routes.append(_Route(
                        instance, topology.components[consumer].parallelism
                    ))
                tasks[(spec.name, index)] = runtime

        # Fault tolerance: a dedicated RNG (never the scheduling RNG, so
        # a recovery-enabled fault-free run draws the identical schedule)
        # plus per-task crash thresholds (edge faults go on the routes).
        faults = self.faults
        recovery = self.recovery
        recovery_on = recovery is not None
        fault_random = random.Random(faults.seed).random if faults is not None else None
        stats = RecoveryStats() if faults is not None or recovery_on else None
        if faults is not None:
            for crash in faults.crashes:
                crash_key = (crash.component, crash.task)
                if crash_key not in tasks:
                    raise SimulationError(
                        f"fault plan names unknown task {crash_key}"
                    )
                if crash.after_executions is not None:
                    thresholds = tasks[crash_key].crash_after
                    thresholds.append(crash.after_executions)
                    thresholds.sort()

        # Observability: precompute everything so the disabled path pays
        # exactly one `if obs_on` check per instrumentation site.
        obs = self.obs
        obs_on = obs is not None and obs.enabled
        tracer = obs.tracer if obs_on else None
        metrics = obs.metrics if obs_on else None
        tracer_on = obs_on and tracer.enabled
        metrics_on = obs_on and metrics.enabled
        # Trace/measure instrumentation (spans, frontend stats, member
        # breakdowns) is skipped wholesale when only monitors are on, so
        # a monitors-only run pays just the edge/progress taps.
        tm_on = tracer_on or metrics_on
        monitors = obs.monitors if obs_on else None
        monitors_on = monitors is not None and monitors.enabled
        # Tasks whose payload aligns its inputs through a merge frontend
        # (CompiledBolt, AlignedCaptureBolt) seal epochs themselves, and
        # get marker-epoch alignment tracing.
        frontend_hooks: Dict[_TaskRuntime, Any] = {
            runtime: runtime.payload
            for runtime in tasks.values()
            if hasattr(runtime.payload, "frontend_stats")
        }

        # Type-licensed batching (see repro.storm.batching).
        batching = self.batching
        max_batch = batching.max_batch if batching is not None else 1
        combiner_plan = batching.combiners if batching is not None else {}
        if batching is not None and batching.micro_batch:
            for runtime in tasks.values():
                runtime.batchable = hasattr(runtime.payload, "execute_batch")

        # Bind each route once: its consumer's task runtimes, the edge's
        # faults and the sender-side combiner; and each sink's record.
        sink_deliveries: Dict[str, List[Tuple[float, int, StormTuple]]] = {
            spec.name: []
            for spec in topology.components.values()
            if isinstance(spec.payload, CaptureBolt)
        }
        routes: List[_Route] = []
        for runtime in tasks.values():
            component = runtime.component
            runtime.sink = sink_deliveries.get(component)
            for out, (consumer, _) in zip(
                runtime.routes, topology.downstream_of(component)
            ):
                out.targets = [tasks[(consumer, i)] for i in range(out.n_tasks)]
                if faults is not None:
                    edge = faults.edge_faults(component, consumer)
                    if edge is not None and edge.active():
                        out.edge = edge
                out.head = combiner_plan.get((component, consumer))
                if out.head is not None:
                    out.pending = {}
                routes.append(out)

        # Per-machine core availability heaps (source host unbounded).
        core_free: Dict[int, List[float]] = {}
        for machine in self.cluster.machines:
            core_free[machine.machine_id] = [0.0] * machine.cores

        # Entries: (time, seq, action, task runtime, item, remote); the
        # seq tiebreak makes pop order total.
        heap: List[Tuple[float, int, int, Any, Any, bool]] = []
        push, pop = heapq.heappush, heapq.heappop
        tick = itertools.count().__next__

        # Time-triggered faults enter the heap as their own actions (a
        # machine fault has no task).
        if faults is not None:
            for crash in faults.crashes:
                if crash.at_time is not None:
                    runtime = tasks[(crash.component, crash.task)]
                    push(heap, (crash.at_time, tick(), CRASH, runtime, None,
                                False))
            for machine_fault in faults.machine_faults:
                push(heap, (machine_fault.at_time, tick(), MACHINE_FAULT, None,
                            machine_fault, False))

        # Epoch-aligned checkpointing: epoch timestamps are indexed in
        # marker order as spouts first emit them; a snapshot epoch is
        # complete once every task has contributed its state at that
        # marker boundary.
        epoch_index: Dict[Any, int] = {}
        ck_every = recovery.checkpoint_every if recovery_on else 1
        store = (
            CheckpointStore(len(tasks), index_of=epoch_index.__getitem__)
            if recovery_on else None
        )

        def checkpoint_epoch(ts: Any) -> bool:
            index = epoch_index.get(ts)
            return index is not None and (index + 1) % ck_every == 0

        def record_snapshot(key: TaskKey, ts: Any, snapshot: Any) -> None:
            completed = store.add(ts, key, snapshot)
            stats.checkpoints_taken += 1
            if completed:
                stats.complete_epochs = epoch_index[ts] + 1
            if metrics_on:
                metrics.counter(
                    "checkpoints_taken", component=key[0]
                ).inc()

        # Epochs sealed by the running execution, for the instrumentation
        # to close once it finishes (instrumented frontend tasks only).
        sealed: List[Any] = []

        def make_seal_cb(key: TaskKey, runtime: "_TaskRuntime"):
            """A bolt task's one epoch-seal signal (``collector.on_seal``):
            failure context, checkpoints and epoch tracing all hang off
            it.  It lives on the task's collector, so rollback keeps it."""
            traced = obs_on and runtime in frontend_hooks

            def on_seal(ts: Any) -> None:
                runtime.last_marker = ts
                if recovery_on and checkpoint_epoch(ts):
                    record_snapshot(
                        key, ts, runtime.payload.snapshot_state(runtime.state)
                    )
                if traced:
                    sealed.append(ts)

            return on_seal

        for key, runtime in tasks.items():
            if runtime.is_spout:
                if recovery_on:
                    runtime.emit_log = []
                continue
            runtime.collector.on_seal = make_seal_cb(key, runtime)
            if recovery_on and runtime not in frontend_hooks:
                spec = topology.components[runtime.component]
                n_channels = sum(
                    topology.components[upstream].parallelism
                    for upstream in spec.inputs
                )
                if n_channels > 1:
                    raise SimulationError(
                        "recovery needs aligned epoch snapshots, but plain "
                        f"bolt {runtime.component!r} merges {n_channels} "
                        "upstream task channels without a merge frontend; "
                        "use a compiled topology or AlignedCaptureBolt"
                    )
                if isinstance(runtime.payload, CaptureBolt) and spec.parallelism > 1:
                    raise SimulationError(
                        f"recovery requires CaptureBolt {runtime.component!r} "
                        "to run with parallelism 1 (its record is shared "
                        "across tasks); use AlignedCaptureBolt"
                    )
                runtime.seal_on_marker = True

        # Kick off all spout tasks at t=0.
        for runtime in tasks.values():
            if runtime.is_spout:
                push(heap, (0.0, tick(), SPOUT, runtime, None, False))

        processed: Dict[str, int] = {name: 0 for name in topology.components}
        emitted: Dict[str, int] = {name: 0 for name in topology.components}
        marker_emit_times: Dict[Any, float] = {}
        machine_busy: Dict[int, float] = {}
        input_data = 0
        input_all = 0
        makespan = 0.0
        events_handled = 0

        # Cost-model methods, bound per run (after any instance-level
        # wrapping) instead of looked up per tuple.
        model = self.cost_model
        overhead, remote_cpu = model.framework_overhead, model.remote_cpu
        cpu_cost, glue_cost = model.cpu_cost, model.glue_cost
        vertex_cost, spout_cost = model.vertex_cost, model.spout_cost
        network_delay = model.network_delay
        tuple_new = tuple.__new__

        def build_report() -> SimulationReport:
            """The run's report so far (also attached to failures)."""
            return SimulationReport(
                makespan=makespan,
                input_data_tuples=input_data,
                input_all_tuples=input_all,
                processed=processed,
                emitted=emitted,
                sink_events={
                    name: [t.event for _, _, t in deliveries]
                    for name, deliveries in sink_deliveries.items()
                },
                sink_tuples={
                    name: [t for _, _, t in deliveries]
                    for name, deliveries in sink_deliveries.items()
                },
                sink_delivery_times={
                    name: [time for time, _, _ in deliveries]
                    for name, deliveries in sink_deliveries.items()
                },
                marker_emit_times=marker_emit_times,
                machine_busy=machine_busy,
                machine_cores={
                    m.machine_id: m.cores for m in self.cluster.machines
                },
                recovery=stats,
            )

        def task_failure(
            runtime: _TaskRuntime, exc: BaseException
        ) -> TaskFailureError:
            """Wrap a task's exception with its failure context."""
            epoch = runtime.last_marker
            return TaskFailureError(
                f"task {runtime.component}[{runtime.index}] on machine "
                f"{runtime.machine} failed (last sealed epoch {epoch!r}): "
                f"{exc}",
                component=runtime.component,
                task_index=runtime.index,
                machine=runtime.machine,
                epoch=epoch,
                report=build_report(),
            )

        def fail_task(runtime: _TaskRuntime, now: float, detail: str) -> None:
            """An injected task crash: recover, or surface with context."""
            if not recovery_on:
                raise task_failure(runtime, RuntimeError(detail))
            recover_all(now, detail)

        def crashes_now(runtime: _TaskRuntime, now: float) -> bool:
            """Count one execution of a task with pending crash
            thresholds; fire the next threshold once it is passed."""
            runtime.executions += 1
            if runtime.executions <= runtime.crash_after[0]:
                return False
            runtime.crash_after.pop(0)  # each threshold fires once
            fail_task(runtime, now, "injected crash")
            return True

        def recover_all(now: float, detail: str) -> None:
            """Global rollback to the last complete epoch snapshot.

            Every task restores its checkpoint (or re-prepares, if the
            restored epoch predates its first snapshot), all in-flight
            messages are discarded, every route's link state is reset
            (numbering restarts per incarnation — consistent, because
            *all* state rolls back together), and spouts replay their
            emission logs from the snapshot's boundary.
            """
            stats.recoveries += 1
            if stats.recoveries > recovery.max_recoveries:
                raise TaskFailureError(
                    f"gave up after {recovery.max_recoveries} recoveries "
                    f"(last cause: {detail})",
                    report=build_report(),
                )
            latest = store.latest()
            epoch, snapshots = latest if latest is not None else (None, {})
            stats.last_restored_epoch = epoch
            # Bank duplicate counts as the resequencers reset.
            for out in routes:
                stats.duplicates_filtered += out.reset()
            # Purge in-flight traffic and stale task wakeups; injected
            # future faults stay armed.
            heap[:] = [e for e in heap if e[2] >= CRASH]
            heapq.heapify(heap)
            store.drop_after(epoch)
            restart = now + RESTART_DELAY
            for key, runtime in tasks.items():
                runtime.queue.clear()
                runtime.running = False
                runtime.collector.drain()
                runtime.free_at = restart
                runtime.last_marker = epoch
                snapshot = snapshots.get(key)
                if runtime.is_spout:
                    runtime.replay_cursor = (
                        snapshot["log_pos"] if snapshot is not None else 0
                    )
                    push(heap, (restart, tick(), SPOUT, runtime, None, False))
                    continue
                payload = runtime.payload
                if snapshot is not None:
                    runtime.state = payload.restore_state(snapshot)
                else:
                    spec = topology.components[runtime.component]
                    runtime.state = payload.prepare(
                        runtime.index, spec.parallelism
                    )
            if monitors_on:
                monitors.on_rollback(epoch, now)
            if metrics_on:
                metrics.counter("recoveries").inc()
                metrics.histogram("recovery_rollback_seconds").observe(
                    max(0.0, now - marker_emit_times.get(epoch, now))
                )
            if tm_on:
                tracer.sample(
                    "recovery", "<coordinator>", 0, now, stats.recoveries
                )

        def handle_machine_fault(fault, now: float) -> None:
            """Crash every task on a machine; permanent faults also
            remove the machine and re-place its tasks on survivors."""
            if fault.permanent and fault.machine in core_free:
                core_free.pop(fault.machine)
                survivors = sorted(core_free)
                if not survivors:
                    raise SimulationError(
                        "machine fault left no worker machines"
                    )
                displaced = 0
                for runtime in tasks.values():
                    if runtime.machine == fault.machine:
                        runtime.machine = survivors[
                            displaced % len(survivors)
                        ]
                        displaced += 1
            if not recovery_on:
                raise TaskFailureError(
                    f"machine {fault.machine} failed at t={now:.6f}",
                    machine=fault.machine,
                    report=build_report(),
                )
            recover_all(now, f"machine {fault.machine} fault")

        def execution_cost(
            runtime: _TaskRuntime, batch: List[Tuple[StormTuple, bool]],
            breakdown: Optional[List[Tuple[str, float, int]]] = None,
        ) -> float:
            """Simulated CPU seconds of one execution: a tuple or a batch.

            The per-invocation framework overhead is paid once per
            execution — that is the entire point of micro-batching —
            while the per-tuple charges (remote deserialization, glue or
            ``cpu_cost``) and the per-vertex work reported by compiled
            bolts' ``cost_events`` do not depend on the batch size, so a
            batch's simulated speedup comes only from amortized overhead,
            never from dropped work.  Compiled bolts report per-vertex
            work, so cardinality changes inside a fused chain are charged
            faithfully.

            Instrumented runs pass ``breakdown``, which receives
            ``(member label, cost seconds, events consumed)`` rows; the
            total is summed in the same order either way."""
            component, index = runtime.component, runtime.index
            compiled = runtime.compiled
            cost = overhead
            member = 0.0
            for tup, remote in batch:
                if remote:
                    cost += remote_cpu
                if compiled:
                    charge = glue_cost(component, tup.event)
                else:
                    charge = cpu_cost(component, tup.event, index)
                cost += charge
                member += charge
            if breakdown is not None:
                breakdown.append(
                    ("glue" if compiled else component, member, len(batch))
                )
            if compiled:
                for vertex, events in runtime.payload.cost_events(runtime.state):
                    member = 0.0
                    for event in events:
                        charge = vertex_cost(vertex, event, index)
                        cost += charge
                        member += charge
                    if breakdown is not None:
                        breakdown.append((vertex, member, len(events)))
            return cost

        def record_execution(
            runtime: _TaskRuntime, batch: List[Tuple[StormTuple, bool]],
            start: float, finish: float, cost: float,
            breakdown: Optional[List[Tuple[str, float, int]]], fanout: int,
        ) -> None:
            """Trace/measure one bolt execution — a tuple or a micro-batch
            (instrumented runs only)."""
            comp, idx = runtime.component, runtime.index
            if tm_on:
                tracer.sample(
                    "queue_depth", comp, idx, start, len(runtime.queue)
                )
                tracer.exec_span(
                    comp, idx, runtime.machine, start, finish,
                    {"event": type(batch[-1][0].event).__name__,
                     "fanout": fanout},
                )
                if metrics_on:
                    metrics.counter(
                        "tuples_processed", component=comp
                    ).inc(len(batch))
                    metrics.counter(
                        "task_busy_seconds", component=comp, task=idx
                    ).inc(cost)
                    metrics.counter("emit_fanout", component=comp).inc(fanout)
                # Per-fused-member sub-spans tile the execution interval in
                # chain order (glue first), so chrome://tracing shows where
                # inside the chain the time went.
                if len(breakdown) > 1:
                    cursor = start
                    for vertex, vertex_cost, n_events in breakdown:
                        tracer.member_span(
                            comp, idx, runtime.machine, vertex,
                            cursor, cursor + vertex_cost, n_events,
                        )
                        cursor += vertex_cost
                        if metrics_on and vertex != "glue":
                            metrics.counter(
                                "member_events", component=comp, vertex=vertex
                            ).inc(n_events)
                            metrics.counter(
                                "member_cpu_seconds", component=comp,
                                vertex=vertex,
                            ).inc(vertex_cost)
            hooks = frontend_hooks.get(runtime)
            if hooks is None:
                return
            # Marker-epoch alignment: each epoch this execution sealed
            # (the delivered marker was the laggard completing it) closes
            # its epoch span.
            if monitors_on:
                for ts in sealed:
                    monitors.on_epoch_sealed(comp, idx, ts, finish)
            if not tm_on:
                return
            stats = hooks.frontend_stats(runtime.state)
            for ts in sealed:
                wait = tracer.epoch_release(
                    comp, idx, ts, finish,
                    {"buffered_after": stats["buffered_tuples"]},
                )
                if metrics_on:
                    metrics.counter(
                        "epochs_aligned", component=comp, task=idx
                    ).inc()
                    if wait is not None:
                        metrics.histogram(
                            "epoch_wait_seconds", component=comp
                        ).observe(wait)
            if metrics_on:
                skew_gauge = metrics.gauge("merge_skew", component=comp, task=idx)
                skew_gauge.set_max(
                    stats["skew"],
                    note=str(stats["laggard"])
                    if stats["laggard"] is not None else None,
                )
                buffered = stats["buffered_tuples"]
                buffered_gauge = metrics.gauge(
                    "merge_buffered_tuples", component=comp, task=idx
                )
                new_peak = buffered > 0 and (
                    buffered_gauge.max is None or buffered > buffered_gauge.max
                )
                buffered_gauge.set_max(buffered)
                if new_peak:
                    # Sizing walks every buffered event, so only do it
                    # when the buffer hits a new high-water mark.
                    metrics.gauge(
                        "merge_buffered_bytes", component=comp, task=idx
                    ).set_max(
                        hooks.frontend_stats(runtime.state, with_bytes=True)[
                            "buffered_bytes"
                        ]
                    )

        def maybe_start(runtime: _TaskRuntime, now: float) -> None:
            """Begin the task's next execution if it is idle.

            An execution is one queued tuple or, for a batchable task,
            one micro-batch through ``execute_batch``.  A batch stops
            after the first marker (epoch granularity), so marker
            alignment is timed exactly as in the per-tuple engine, and
            at ``max_batch`` tuples, so one deep queue cannot monopolize
            a core arbitrarily long.

            The core is reserved only when the task actually starts — a
            task waiting on its own serial stream must not hold cores
            hostage (that would serialize co-located pipeline stages)."""
            nonlocal makespan
            queue = runtime.queue
            if runtime.running or not queue:
                return
            if runtime.crash_after and crashes_now(runtime, now):
                return
            batchable = runtime.batchable
            if batchable:
                batch: List[Tuple[StormTuple, bool]] = []
                while queue and len(batch) < max_batch:
                    entry = queue.popleft()
                    batch.append(entry)
                    if isinstance(entry[0].event, Marker):
                        break
            else:
                batch = [queue.popleft()]
            tup = batch[-1][0]
            start = now
            cores = core_free.get(runtime.machine)
            if cores is not None:
                start = max(start, heapq.heappop(cores))
            try:
                if batchable:
                    runtime.payload.execute_batch(
                        runtime.state, [entry[0] for entry in batch],
                        runtime.collector,
                    )
                else:
                    runtime.payload.execute(runtime.state, tup, runtime.collector)
            except Exception as exc:
                if cores is not None:
                    heapq.heappush(cores, start)
                runtime.collector.drain()
                sealed.clear()
                if recovery_on:
                    recover_all(now, f"operator exception: {exc}")
                    return
                raise task_failure(runtime, exc) from exc
            outputs = runtime.collector.drain()
            if runtime.seal_on_marker and isinstance(tup.event, Marker):
                # Plain single-channel bolt under recovery: every
                # executed marker seals an epoch (nothing to align).
                runtime.collector.on_seal(tup.event.timestamp)
            breakdown = [] if tm_on else None
            cost = execution_cost(runtime, batch, breakdown)
            finish = start + cost
            machine_busy[runtime.machine] = (
                machine_busy.get(runtime.machine, 0.0) + cost
            )
            if cores is not None:
                heapq.heappush(cores, finish)
            runtime.free_at = finish
            runtime.running = True
            makespan = max(makespan, finish)
            processed[runtime.component] += len(batch)
            if obs_on:
                record_execution(
                    runtime, batch, start, finish, cost, breakdown,
                    len(outputs),
                )
                sealed.clear()
            route(runtime, outputs, finish)
            push(heap, (finish, tick(), DONE, runtime, None, False))

        def send(
            runtime: _TaskRuntime, out: _Route, tup: StormTuple, at: float
        ) -> None:
            """Ship one tuple to every task of ``out``'s consumer that
            its grouping selects.

            Every link is FIFO: Storm guarantees in-order delivery
            between a fixed producer task and consumer task, so jittered
            delays never reorder tuples on the same link (the route
            keeps one floor per target).  On a fault-injected link under
            recovery, every transmission is numbered per link and
            delivered through the receiver's resequencer (RDELIVER): the
            link is at-least-once, so an injected drop becomes a late
            retransmission, a duplicate is filtered on arrival, and a
            reorder (which deliberately bypasses the FIFO floor) is
            buffered until the gap fills.  Only those links pay for the
            reliability layer: a healthy link is already exactly-once,
            because rollback purges everything in flight and the sources
            replay from the checkpoint boundary.  Without recovery the
            faults are raw — drops lose the tuple outright — and hit
            only data tuples: a lost or duplicated marker would kill
            alignment outright rather than corrupt output.
            """
            event = tup.event
            machine = runtime.machine
            targets, floors, edge = out.targets, out.floors, out.edge
            for target in out.select(event, out.n_tasks):
                dst = targets[target]
                arrival = at + network_delay(machine, dst.machine, rng)
                arrival = floors[target] = max(arrival, floors[target])
                remote = machine != dst.machine
                if edge is None or (
                    not recovery_on and isinstance(event, Marker)
                ):
                    push(heap, (arrival, tick(), DELIVER, dst, tup, remote))
                    continue
                # A fault-injected link; each mode keeps its own draw
                # order on the fault RNG.
                if recovery_on:
                    seq_no = out.seqs[target]
                    out.seqs[target] = seq_no + 1
                    action, item = RDELIVER, (out.reseqs[target], seq_no, tup)
                else:
                    action, item = DELIVER, tup
                if edge.drop:
                    if recovery_on:
                        retransmits = 0
                        while (
                            retransmits < edge.max_retransmits
                            and fault_random() < edge.drop
                        ):
                            retransmits += 1
                        if retransmits:
                            arrival += retransmits * RETRANSMIT_TIMEOUT
                            stats.retransmissions += retransmits
                    elif fault_random() < edge.drop:
                        continue  # raw mode: the tuple is simply lost
                if edge.reorder and fault_random() < edge.reorder:
                    arrival += fault_random() * edge.reorder_delay
                    stats.reordered += 1
                if edge.duplicate and fault_random() < edge.duplicate:
                    duplicate_at = arrival + fault_random() * edge.reorder_delay
                    push(heap, (duplicate_at, tick(), action, dst, item, remote))
                push(heap, (arrival, tick(), action, dst, item, remote))

        def route(runtime: _TaskRuntime, events: List[Event], at: float) -> None:
            component, index = runtime.component, runtime.index
            emitted[component] += len(events)
            for event in events:
                # Flyweight: skips the namedtuple's Python-level __new__.
                tup = tuple_new(StormTuple, (event, component, index))
                for out in runtime.routes:
                    pending = out.pending
                    if pending is not None:
                        if isinstance(event, KV):
                            # Fold instead of shipping: the U(K,V) edge
                            # type makes between-marker items mutually
                            # independent, and the consumer's head
                            # operator folds them through a commutative
                            # monoid — so one pre-combined aggregate per
                            # key per epoch denotes the same trace.
                            head = out.head
                            folded = head.fold_in(event.key, event.value)
                            if event.key in pending:
                                pending[event.key] = head.combine(
                                    pending[event.key], folded
                                )
                            else:
                                pending[event.key] = folded
                            continue
                        if isinstance(event, Marker) and pending:
                            # Flush the epoch's aggregates ahead of the
                            # marker; link FIFO keeps them in its block.
                            for key, agg in pending.items():
                                send(
                                    runtime, out,
                                    StormTuple(
                                        KV(key, CombinedAgg(agg)),
                                        component, index,
                                    ),
                                    at,
                                )
                            pending.clear()
                    send(runtime, out, tup, at)

        def deliver_one(
            runtime: _TaskRuntime, tup: StormTuple, remote: bool,
            time_now: float,
        ) -> None:
            """Hand one arrived tuple to its task (queue + taps)."""
            if runtime.sink is not None:
                runtime.sink.append((time_now, runtime.index, tup))
            runtime.queue.append((tup, remote))
            if obs_on:
                depth = len(runtime.queue)
                if monitors_on:
                    monitors.on_delivery(
                        runtime.component, runtime.index, tup, time_now,
                        depth,
                    )
                if tm_on:
                    tracer.sample(
                        "queue_depth", runtime.component, runtime.index,
                        time_now, depth,
                    )
                    if metrics_on:
                        metrics.gauge(
                            "queue_depth", component=runtime.component,
                            task=runtime.index,
                        ).set_max(depth)
                    if (
                        runtime in frontend_hooks
                        and isinstance(tup.event, Marker)
                    ):
                        tracer.epoch_arrival(
                            runtime.component, runtime.index,
                            runtime.machine, tup.event.timestamp, time_now,
                        )

        max_events = self.max_events
        while heap:
            events_handled += 1
            if events_handled > max_events:
                raise SimulationError("simulation exceeded max_events; runaway?")
            time_now, _, action, runtime, item, remote = pop(heap)

            if action == RDELIVER:
                # Reliability layer: resequence, filter duplicates, then
                # deliver every released tuple in order.
                resequencer, seq_no, tup = item
                if seq_no == resequencer.expected and not resequencer.buffer:
                    resequencer.expected = seq_no + 1  # in order: release
                    deliver_one(runtime, tup, remote, time_now)
                else:
                    for released_tup, released_remote in resequencer.offer(
                        seq_no, (tup, remote)
                    ):
                        deliver_one(
                            runtime, released_tup, released_remote, time_now
                        )
            elif action == DELIVER:
                deliver_one(runtime, item, remote, time_now)
            elif action == DONE:  # the running execution finished
                runtime.running = False
            elif action == SPOUT:
                if runtime.crash_after and crashes_now(runtime, time_now):
                    continue
                # log_start: emission-log position of this wakeup's first
                # output (the log exists only under recovery).
                log_start = runtime.replay_cursor
                if log_start is not None and log_start >= len(runtime.emit_log):
                    log_start = runtime.replay_cursor = None  # caught up: go live
                live = log_start is None
                if live:
                    try:
                        alive = runtime.payload.next_tuple(runtime.collector)
                    except Exception as exc:
                        runtime.collector.drain()
                        if recovery_on:
                            recover_all(time_now, f"spout exception: {exc}")
                            continue
                        raise task_failure(runtime, exc) from exc
                    outputs = runtime.collector.drain()
                    input_all += len(outputs)
                    if recovery_on:
                        log_start = len(runtime.emit_log)
                        runtime.emit_log.extend(outputs)
                else:
                    # Replay one logged event per wakeup; skip the input
                    # counters and frontier taps — this traffic was
                    # already accounted the first time.
                    outputs = [runtime.emit_log[log_start]]
                    runtime.replay_cursor = log_start + 1
                    alive = True
                    stats.replayed_events += 1
                component = runtime.component
                cost = sum(map(spout_cost, itertools.repeat(component), outputs))
                # Spout emissions are self-paced: the wakeup time *is*
                # when the task wants the core, so reserve it now.
                start = max(time_now, runtime.free_at)
                cores = core_free.get(runtime.machine)
                if cores is not None:
                    start = max(start, heapq.heappop(cores))
                finish = start + cost
                runtime.free_at = finish
                if cores is not None:
                    heapq.heappush(cores, finish)
                makespan = max(makespan, finish)
                for position, event in enumerate(outputs):
                    if live and isinstance(event, KV):
                        input_data += 1
                    elif isinstance(event, Marker):
                        ts = event.timestamp
                        if live:
                            marker_emit_times.setdefault(ts, finish)
                            if monitors_on:
                                monitors.on_source_marker(component, ts, finish)
                        if recovery_on:
                            epoch_index.setdefault(ts, len(epoch_index))
                            runtime.last_marker = ts
                            if checkpoint_epoch(ts):
                                record_snapshot(
                                    (component, runtime.index), ts,
                                    {"log_pos": log_start + position + 1},
                                )
                if tm_on and outputs:
                    tracer.exec_span(
                        component, runtime.index, runtime.machine,
                        start, finish, {"fanout": len(outputs)},
                    )
                    if metrics_on:
                        metrics.counter(
                            "spout_emitted", component=component
                        ).inc(len(outputs))
                route(runtime, outputs, finish)
                if alive:
                    push(heap, (finish, tick(), SPOUT, runtime, None, False))
                continue
            elif action == CRASH:
                fail_task(runtime, time_now, "injected crash")
                continue
            else:  # MACHINE_FAULT
                handle_machine_fault(item, time_now)
                continue
            if not runtime.running:
                maybe_start(runtime, time_now)

        if obs_on:
            tracer.finalize(makespan)
            if monitors_on:
                monitors.close(makespan)
            if metrics_on:
                for machine in self.cluster.machines:
                    metrics.gauge(
                        "machine_busy_seconds", machine=machine.machine_id
                    ).set(machine_busy.get(machine.machine_id, 0.0))

        if recovery_on:
            for out in routes:
                stats.duplicates_filtered += out.reset()

        return build_report()
