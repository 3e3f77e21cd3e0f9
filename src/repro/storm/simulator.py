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

``Simulator.run`` is the marker-driven event-loop core: task runtimes,
bound routes, the event heap and its dispatch, execution, healthy-link
sends, routing and delivery.  Two feature objects, each built only when
its feature is on, hang off it: the fault coordinator
(:class:`~repro.storm.recovery.FaultCoordinator`: faults, checkpoints,
faulty links, rollback) and the instrumentation probe
(:class:`~repro.obs.probe.SimulatorProbe`).  The core calls them with one
``is not None`` check per protocol point: on-deliver, on-execute, on-seal,
spout emission and run end; the coordinator tells the probe of each
checkpoint and on-rollback.
"""

from __future__ import annotations

import copy
import functools
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
from repro.storm.recovery import FaultCoordinator, RecoveryOptions
from repro.storm.recovery import CRASH, DELIVER, DONE, RDELIVER, SPOUT
from repro.storm.topology import CaptureBolt, OutputCollector, Spout, Topology
from repro.obs import ObsContext
from repro.obs.probe import SimulatorProbe
from repro.storm.tuples import StormTuple

TaskKey = Tuple[str, int]


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
        "component", "index", "machine", "is_spout", "payload", "state",
        "free_at", "routes", "collector", "queue", "running", "batchable",
        "compiled", "sink", "executions", "crash_after", "last_marker",
        "emit_log", "replay_cursor", "seal_on_marker",
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
        # Last sealed epoch (failure context), and the fault
        # coordinator's bookkeeping: crash thresholds and the execution
        # count they are compared with, a spout's emission log and
        # replay cursor (None = live), and whether a plain bolt seals an
        # epoch on each executed marker.
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
    obs: optional :class:`~repro.obs.ObsContext`; when enabled, a
        :class:`~repro.obs.probe.SimulatorProbe` records spans, queue
        depths, epoch alignment and metrics, and feeds any attached
        :class:`~repro.obs.monitor.MonitorHub`.  It is read-only on the
        schedule, per tuple and batched, so an instrumented run produces
        bit-identical results.
    batching: optional :class:`~repro.storm.batching.BatchingOptions`
        enabling the epoch-batched fast paths — receiver-side
        micro-batching through ``execute_batch`` (one framework overhead
        per batch instead of per tuple) and sender-side per-key
        combiners on type-licensed ``U(K,V)`` hash edges.  Batching
        changes the simulated *schedule* (fewer invocations, fewer
        shipped tuples) but never the canonical sink traces.
    faults, recovery: optional :class:`~repro.storm.faults.FaultPlan`
        (task crashes, machine failures, per-edge drop/duplicate/reorder
        drawn from the plan's own seeded RNG) and
        :class:`~repro.storm.recovery.RecoveryOptions` (epoch-aligned
        checkpoints, global rollback, exactly-once links), run by a
        :class:`~repro.storm.recovery.FaultCoordinator`.  Without
        ``recovery`` a crash raises
        :class:`~repro.errors.TaskFailureError` and message faults are
        raw (drops lose tuples); with it, the recovered run's canonical
        sink traces are trace-equivalent to the fault-free run's.
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

        # Type-licensed batching (see repro.storm.batching).
        batching = self.batching
        max_batch = batching.max_batch if batching is not None else 1
        combiner_plan = batching.combiners if batching is not None else {}
        if batching is not None and batching.micro_batch:
            for runtime in tasks.values():
                runtime.batchable = hasattr(runtime.payload, "execute_batch")

        # Bind each route once: its consumer's task runtimes and the
        # sender-side combiner; and each sink's record.
        sink_deliveries: Dict[str, List[Tuple[float, int, StormTuple]]] = {
            spec.name: []
            for spec in topology.components.values()
            if isinstance(spec.payload, CaptureBolt)
        }
        for runtime in tasks.values():
            component = runtime.component
            runtime.sink = sink_deliveries.get(component)
            for out, (consumer, _) in zip(
                runtime.routes, topology.downstream_of(component)
            ):
                out.targets = [tasks[(consumer, i)] for i in range(out.n_tasks)]
                out.head = combiner_plan.get((component, consumer))
                if out.head is not None:
                    out.pending = {}

        # Per-machine core availability heaps (source host unbounded).
        core_free: Dict[int, List[float]] = {}
        for machine in self.cluster.machines:
            core_free[machine.machine_id] = [0.0] * machine.cores

        # Entries: (time, seq, action, task runtime, item, remote); the
        # seq tiebreak makes pop order total.
        heap: List[Tuple[float, int, int, Any, Any, bool]] = []
        push, pop = heapq.heappush, heapq.heappop
        tick = itertools.count().__next__

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
                recovery=ft.stats if ft is not None else None,
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

        # The two feature objects, each built only when its feature is
        # on; the loop checks each once per protocol point.
        obs = self.obs
        probe = (SimulatorProbe(obs, tasks, self.cluster.machines, marker_emit_times,
                                machine_busy) if obs is not None and obs.enabled else None)
        ft = (FaultCoordinator(self.faults, self.recovery, topology, tasks, core_free, heap,
                               tick, probe, task_failure, build_report)
              if self.faults is not None or self.recovery is not None else None)

        def on_seal(key: TaskKey, runtime: _TaskRuntime, ts: Any) -> None:
            """A bolt task's one epoch-seal signal (``collector.on_seal``):
            failure context, checkpoints and epoch tracing all hang off
            it.  It lives on the task's collector, so rollback keeps it."""
            runtime.last_marker = ts
            if ft is not None:
                ft.on_seal(key, runtime, ts)
            if probe is not None:
                probe.on_seal(runtime, ts)

        for key, runtime in tasks.items():
            if not runtime.is_spout:
                runtime.collector.on_seal = functools.partial(on_seal, key, runtime)

        # Kick off all spout tasks at t=0.
        for runtime in tasks.values():
            if runtime.is_spout:
                push(heap, (0.0, tick(), SPOUT, runtime, None, False))

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
            if runtime.crash_after and ft.crashes_now(runtime, now):
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
                if ft is None:
                    raise task_failure(runtime, exc) from exc
                ft.fail_task(runtime, now, f"operator exception: {exc}", exc)
                return
            outputs = runtime.collector.drain()
            if runtime.seal_on_marker and isinstance(tup.event, Marker):
                # Plain single-channel bolt under recovery: every
                # executed marker seals an epoch (nothing to align).
                runtime.collector.on_seal(tup.event.timestamp)
            breakdown = [] if probe is not None else None
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
            if probe is not None:
                probe.on_execute(runtime, batch, start, finish, cost, breakdown, len(outputs))
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
            keeps one floor per target).  A fault-injected link hands
            the transmission to the fault coordinator; a healthy link is
            exactly-once even under recovery, because rollback purges
            everything in flight and the sources replay from the
            checkpoint boundary.
            """
            machine = runtime.machine
            targets, floors, edge = out.targets, out.floors, out.edge
            for target in out.select(tup.event, out.n_tasks):
                dst = targets[target]
                arrival = at + network_delay(machine, dst.machine, rng)
                arrival = floors[target] = max(arrival, floors[target])
                remote = machine != dst.machine
                if edge is None:
                    push(heap, (arrival, tick(), DELIVER, dst, tup, remote))
                else:
                    ft.send(out, target, dst, tup, arrival, remote)

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
            if probe is not None:
                probe.on_deliver(runtime, tup, time_now)

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
                if runtime.crash_after and ft.crashes_now(runtime, time_now):
                    continue
                # A spout rolled back by recovery replays one logged
                # event per wakeup until it has caught up.
                outputs = ft.replay(runtime) if runtime.replay_cursor is not None else None
                live = outputs is None
                if live:
                    try:
                        alive = runtime.payload.next_tuple(runtime.collector)
                    except Exception as exc:
                        runtime.collector.drain()
                        if ft is None:
                            raise task_failure(runtime, exc) from exc
                        ft.fail_task(runtime, time_now, f"spout exception: {exc}", exc)
                        continue
                    outputs = runtime.collector.drain()
                    input_all += len(outputs)
                    if ft is not None:
                        ft.on_spout_emit(runtime, outputs)
                else:
                    alive = True
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
                if live:
                    # Replayed traffic was accounted the first time.
                    for event in outputs:
                        if isinstance(event, KV):
                            input_data += 1
                        elif isinstance(event, Marker):
                            marker_emit_times.setdefault(event.timestamp, finish)
                if probe is not None:
                    probe.on_spout_emit(runtime, outputs, live, start, finish)
                route(runtime, outputs, finish)
                if alive:
                    push(heap, (finish, tick(), SPOUT, runtime, None, False))
                continue
            elif action == CRASH:
                ft.fail_task(runtime, time_now, "injected crash")
                continue
            else:  # MACHINE_FAULT
                ft.handle_machine_fault(item, time_now)
                continue
            if not runtime.running:
                maybe_start(runtime, time_now)

        if probe is not None:
            probe.finalize(makespan)
        if ft is not None:
            ft.finish()
        return build_report()
