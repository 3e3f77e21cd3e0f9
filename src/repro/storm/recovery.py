"""Epoch-aligned checkpointing and exactly-once recovery.

The paper's synchronization markers cut every stream into linearly
ordered epochs, and an epoch boundary is a *consistent cut*: when a
vertex has consumed the epoch-``ts`` markers from all of its input
channels, every tuple of that epoch (and none of a later one) has
passed through it.  Snapshotting each task's state exactly at that
point — and remembering, per source, how far into its emission log the
boundary lies — yields a Chandy-Lamport-style aligned snapshot without
any extra coordination traffic: the markers the type system already
mandates *are* the snapshot barriers.

Recovery is global rollback, Flink-style: on any task failure the
coordinator restores the last epoch whose snapshot is complete across
all tasks, discards in-flight messages, replays sources from the
snapshot's log position, and relies on two mechanisms for exactly-once
*semantics*:

- per-link sequence numbering + :class:`~repro.storm.faults.Resequencer`
  filtering turns the at-least-once links into exactly-once links;
- the data-trace types absorb the remaining nondeterminism — unordered
  (U) edges tolerate replay-induced reorder because the canonical trace
  is compared modulo the dependence relation, and ordered (O) edges are
  replayed per-key in order.

Correctness criterion (and the headline test): the recovered run's
canonical sink traces are *trace-equivalent* to the fault-free run's —
not byte-equal, which would be both unattainable and unnecessary.

:class:`FaultCoordinator` runs all of this (and fault injection) for
the simulator.

This module also hosts the in-process twin: :func:`drive_epochs` is the
one epoch loop of an :class:`~repro.compiler.inprocess.InProcessPipeline`
(serial or batched), and :func:`run_with_recovery` runs it with
``snapshot()`` / ``restore()`` around injected crashes and optional link
faults on the ingest streams.
"""

from __future__ import annotations

import bisect
import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError, TaskFailureError
from repro.operators.base import Marker
from repro.storm.faults import (
    EdgeFaults, FaultPlan, apply_edge_faults, check_fault_plan, recover_stream,
)
from repro.storm.topology import CaptureBolt


#: Simulated seconds a dropped transmission adds per retransmission.
RETRANSMIT_TIMEOUT = 1e-3
#: Simulated seconds between a crash and the tasks' restart.
RESTART_DELAY = 0.0

#: The simulator's heap actions, in dispatch (frequency) order; rollback
#: keeps the injected faults (codes >= CRASH) armed.
RDELIVER, DELIVER, DONE, SPOUT, CRASH, MACHINE_FAULT = range(6)


@dataclass(frozen=True)
class RecoveryOptions:
    """Knobs for the simulator's recovery coordinator.

    ``checkpoint_every`` snapshots every N-th epoch (1 = every epoch);
    ``max_recoveries`` bounds total rollbacks so a pathological plan
    fails loudly instead of looping.
    """

    checkpoint_every: int = 1
    max_recoveries: int = 25

    def __post_init__(self):
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.max_recoveries < 1:
            raise ValueError("max_recoveries must be >= 1")


@dataclass
class RecoveryStats:
    """What the fault-tolerance machinery actually did during a run."""

    recoveries: int = 0
    checkpoints_taken: int = 0
    complete_epochs: int = 0
    last_restored_epoch: Optional[Any] = None
    duplicates_filtered: int = 0
    retransmissions: int = 0
    reordered: int = 0
    replayed_events: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "recoveries": self.recoveries,
            "checkpoints_taken": self.checkpoints_taken,
            "complete_epochs": self.complete_epochs,
            "last_restored_epoch": self.last_restored_epoch,
            "duplicates_filtered": self.duplicates_filtered,
            "retransmissions": self.retransmissions,
            "reordered": self.reordered,
            "replayed_events": self.replayed_events,
        }


class CheckpointStore:
    """Aligned snapshots, keyed by epoch timestamp then task.

    An epoch's snapshot is *complete* once all ``n_tasks`` tasks have
    contributed their piece.  Markers drain past tasks in epoch order,
    so when an epoch completes every strictly older snapshot is
    superseded and pruned.  ``index_of`` maps an epoch timestamp to its
    position in the marker order (timestamps themselves may be any
    comparable or even non-comparable payload).
    """

    def __init__(self, n_tasks: int,
                 index_of: Optional[Callable[[Any], int]] = None):
        self.n_tasks = n_tasks
        self._index_of = index_of if index_of is not None else lambda ts: ts
        self._snapshots: Dict[Any, Dict[Any, Any]] = {}
        self._complete: List[Any] = []

    def add(self, ts: Any, task_key: Any, snapshot: Any) -> bool:
        """Record one task's snapshot; True when ``ts`` just completed."""
        epoch = self._snapshots.setdefault(ts, {})
        epoch[task_key] = snapshot
        if len(epoch) < self.n_tasks:
            return False
        self._complete.append(ts)
        idx = self._index_of(ts)
        for old in [t for t in self._snapshots if self._index_of(t) < idx]:
            del self._snapshots[old]
        return True

    def latest(self) -> Optional[Tuple[Any, Dict[Any, Any]]]:
        """The newest complete snapshot as ``(ts, {task: state})``."""
        if not self._complete:
            return None
        ts = self._complete[-1]
        return ts, self._snapshots[ts]

    def drop_after(self, ts: Optional[Any]) -> None:
        """Forget snapshots newer than ``ts`` (all of them if None).

        Called on rollback: partially accumulated snapshots for epochs
        past the restore point refer to a timeline that no longer
        exists.  The restored epoch's own complete snapshot is kept.
        """
        if ts is None:
            self._snapshots.clear()
            self._complete.clear()
            return
        idx = self._index_of(ts)
        for newer in [t for t in self._snapshots if self._index_of(t) > idx]:
            del self._snapshots[newer]
        self._complete = [t for t in self._complete if self._index_of(t) <= idx]

    @property
    def completed(self) -> int:
        return len(self._complete)


class FaultCoordinator:
    """The simulator's fault tolerance, built only for runs with a
    :class:`~repro.storm.faults.FaultPlan` or :class:`RecoveryOptions`.

    It owns the fault RNG (seeded by the plan, never by the scheduler),
    crash thresholds and time-triggered fault actions, checkpoints, the
    spouts' emission logs, faulty-link transmissions and global
    rollback, which it reports to the instrumentation ``probe`` (if
    any).  ``task_failure(runtime, exc)`` and ``report()`` build the
    run's failure context.
    """

    def __init__(self, faults: Optional[FaultPlan],
                 recovery: Optional[RecoveryOptions], topology, tasks,
                 core_free: Dict[int, List[float]], heap: List[Any],
                 tick: Callable[[], int], probe: Any,
                 task_failure: Callable, report: Callable):
        plan = faults if faults is not None else FaultPlan()
        self.recovery, self.random = recovery, random.Random(plan.seed).random
        self.stats = RecoveryStats()
        self.topology, self.tasks, self.core_free = topology, tasks, core_free
        self.heap, self.tick, self.probe = heap, tick, probe
        self.task_failure, self.report = task_failure, report
        check_fault_plan(plan, topology, core_free)
        for crash in plan.crashes:
            key = (crash.component, crash.task)
            if crash.after_executions is not None:
                bisect.insort(tasks[key].crash_after, crash.after_executions)
            else:
                self.push(crash.at_time, CRASH, tasks[key], None)
        for fault in plan.machine_faults:
            self.push(fault.at_time, MACHINE_FAULT, None, fault)
        self.routes = []
        for runtime in tasks.values():
            src = runtime.component
            for out, (dst, _) in zip(runtime.routes, topology.downstream_of(src)):
                edge = plan.edge_faults(src, dst)
                if edge is not None and edge.active():
                    out.edge = edge
                self.routes.append(out)
        # Epoch timestamps are indexed in marker order as spouts first
        # emit them (under recovery only); a snapshot epoch is complete
        # once every task has contributed its state at that boundary.
        self.epoch_index: Dict[Any, int] = {}
        self.every = recovery.checkpoint_every if recovery is not None else 1
        self.store = CheckpointStore(len(tasks), self.epoch_index.__getitem__)
        if recovery is None:
            return
        for runtime in tasks.values():
            if runtime.is_spout:
                runtime.emit_log = []
            elif not hasattr(runtime.payload, "frontend_stats"):
                self._check_plain_bolt(runtime)
                runtime.seal_on_marker = True

    def _check_plain_bolt(self, runtime) -> None:
        """A bolt without a merge frontend can snapshot on its own
        markers only if it reads one channel and holds its own record."""
        components = self.topology.components
        spec = components[runtime.component]
        n_channels = sum(components[upstream].parallelism for upstream in spec.inputs)
        if n_channels > 1:
            raise SimulationError(
                f"recovery needs aligned epoch snapshots, but plain bolt {runtime.component!r} "
                f"merges {n_channels} upstream task channels without a merge frontend; "
                "use a compiled topology or AlignedCaptureBolt"
            )
        if isinstance(runtime.payload, CaptureBolt) and spec.parallelism > 1:
            raise SimulationError(
                f"recovery requires CaptureBolt {runtime.component!r} to run with "
                "parallelism 1 (its record is shared across tasks); use AlignedCaptureBolt"
            )

    def push(self, time: float, action: int, runtime, item) -> None:
        heapq.heappush(self.heap, (time, self.tick(), action, runtime, item, False))

    def checkpoint_epoch(self, ts: Any) -> bool:
        index = self.epoch_index.get(ts)
        return index is not None and (index + 1) % self.every == 0

    def record_snapshot(self, key: Any, ts: Any, snapshot: Any) -> None:
        if self.store.add(ts, key, snapshot):
            self.stats.complete_epochs = self.epoch_index[ts] + 1
        self.stats.checkpoints_taken += 1
        if self.probe is not None:
            self.probe.on_checkpoint(key[0])

    def on_seal(self, key: Any, runtime, ts: Any) -> None:
        """A bolt task sealed epoch ``ts``: snapshot it if due."""
        if self.checkpoint_epoch(ts):
            self.record_snapshot(key, ts, runtime.payload.snapshot_state(runtime.state))

    def replay(self, runtime) -> Optional[List[Any]]:
        """The next logged event a rolled-back spout re-emits, or ``None``
        once it has caught up (it then goes live)."""
        log, cursor = runtime.emit_log, runtime.replay_cursor
        if cursor >= len(log):
            runtime.replay_cursor = None
            return None
        runtime.replay_cursor = cursor + 1
        self.stats.replayed_events += 1
        event = log[cursor]
        if isinstance(event, Marker):
            self._spout_marker(runtime, event.timestamp, cursor + 1)
        return [event]

    def on_spout_emit(self, runtime, outputs: List[Any]) -> None:
        """Log a live emission (under recovery)."""
        log = runtime.emit_log
        if log is not None:
            for log_pos, event in enumerate(outputs, len(log) + 1):
                if isinstance(event, Marker):
                    self._spout_marker(runtime, event.timestamp, log_pos)
            log.extend(outputs)

    def _spout_marker(self, runtime, ts: Any, log_pos: int) -> None:
        """A spout's marker is its snapshot: how far into its emission
        log the epoch boundary lies."""
        self.epoch_index.setdefault(ts, len(self.epoch_index))
        runtime.last_marker = ts
        if self.checkpoint_epoch(ts):
            self.record_snapshot((runtime.component, runtime.index), ts, {"log_pos": log_pos})

    def fail_task(self, runtime, now: float, detail: str,
                  exc: Optional[BaseException] = None) -> None:
        """A task crashed: recover, or surface it with its context."""
        if self.recovery is None:
            raise self.task_failure(runtime, exc or RuntimeError(detail)) from exc
        self.recover_all(now, detail)

    def crashes_now(self, runtime, now: float) -> bool:
        """Count one execution of a task with pending crash thresholds
        (ascending lifetime execution counts); fire the next threshold,
        once, when it is passed."""
        runtime.executions += 1
        if runtime.executions <= runtime.crash_after[0]:
            return False
        runtime.crash_after.pop(0)
        self.fail_task(runtime, now, "injected crash")
        return True

    def handle_machine_fault(self, fault, now: float) -> None:
        """Crash every task on a machine; permanent faults also remove
        the machine and re-place its tasks on survivors."""
        core_free = self.core_free
        if fault.permanent and fault.machine in core_free:
            core_free.pop(fault.machine)
            survivors = sorted(core_free)
            if not survivors:
                raise SimulationError("machine fault left no worker machines")
            displaced = 0
            for runtime in self.tasks.values():
                if runtime.machine == fault.machine:
                    runtime.machine = survivors[displaced % len(survivors)]
                    displaced += 1
        if self.recovery is None:
            raise TaskFailureError(f"machine {fault.machine} failed at t={now:.6f}",
                                   machine=fault.machine, report=self.report())
        self.recover_all(now, f"machine {fault.machine} fault")

    def recover_all(self, now: float, detail: str) -> None:
        """Global rollback to the last complete epoch snapshot.

        Every task restores its checkpoint (or re-prepares, if the
        restored epoch predates its first snapshot), all in-flight
        messages are discarded, every route's link state is reset
        (numbering restarts per incarnation — consistent, because *all*
        state rolls back together), and spouts replay their emission
        logs from the snapshot's boundary.
        """
        stats, heap = self.stats, self.heap
        stats.recoveries += 1
        if stats.recoveries > self.recovery.max_recoveries:
            raise TaskFailureError(
                f"gave up after {self.recovery.max_recoveries} recoveries "
                f"(last cause: {detail})", report=self.report(),
            )
        latest = self.store.latest()
        epoch, snapshots = latest if latest is not None else (None, {})
        stats.last_restored_epoch = epoch
        self.finish()
        # Purge in-flight traffic and stale task wakeups; injected future
        # faults stay armed.
        heap[:] = [e for e in heap if e[2] >= CRASH]
        heapq.heapify(heap)
        self.store.drop_after(epoch)
        restart = now + RESTART_DELAY
        for key, runtime in self.tasks.items():
            runtime.queue.clear()
            runtime.running = False
            runtime.collector.drain()
            runtime.free_at = restart
            runtime.last_marker = epoch
            snapshot = snapshots.get(key)
            if runtime.is_spout:
                runtime.replay_cursor = snapshot["log_pos"] if snapshot is not None else 0
                self.push(restart, SPOUT, runtime, None)
            elif snapshot is not None:
                runtime.state = runtime.payload.restore_state(snapshot)
            else:
                spec = self.topology.components[runtime.component]
                runtime.state = runtime.payload.prepare(runtime.index, spec.parallelism)
        if self.probe is not None:
            self.probe.on_rollback(epoch, now, stats.recoveries)

    def send(self, out, target: int, dst, tup, arrival: float,
             remote: bool) -> None:
        """Ship one tuple over a fault-injected link (``out.edge``).

        Under recovery, transmissions are numbered per link and pass the
        receiver's resequencer (RDELIVER): a drop becomes a late
        retransmission, a duplicate is filtered, and a reorder (which
        bypasses the FIFO floor) is held until the gap fills.  Without
        recovery the faults are raw (a drop loses the tuple) and spare
        markers, whose loss would kill alignment rather than corrupt
        output.  Each mode keeps its own draw order on the fault RNG.
        """
        edge, draw, heap, tick = out.edge, self.random, self.heap, self.tick
        if self.recovery is not None:
            seq_no = out.seqs[target]
            out.seqs[target] = seq_no + 1
            action, item = RDELIVER, (out.reseqs[target], seq_no, tup)
            if edge.drop:
                retransmits = 0
                while retransmits < edge.max_retransmits and draw() < edge.drop:
                    retransmits += 1
                if retransmits:
                    arrival += retransmits * RETRANSMIT_TIMEOUT
                    self.stats.retransmissions += retransmits
        elif isinstance(tup.event, Marker):
            heapq.heappush(heap, (arrival, tick(), DELIVER, dst, tup, remote))
            return
        else:
            action, item = DELIVER, tup
            if edge.drop and draw() < edge.drop:
                return  # raw mode: the tuple is simply lost
        if edge.reorder and draw() < edge.reorder:
            arrival += draw() * edge.reorder_delay
            self.stats.reordered += 1
        if edge.duplicate and draw() < edge.duplicate:
            duplicate_at = arrival + draw() * edge.reorder_delay
            heapq.heappush(heap, (duplicate_at, tick(), action, dst, item, remote))
        heapq.heappush(heap, (arrival, tick(), action, dst, item, remote))

    def finish(self) -> None:
        """Reset every route's link state (at rollback and at run end),
        banking the duplicates its resequencers filtered."""
        for out in self.routes:
            self.stats.duplicates_filtered += out.reset()


def split_epochs(events: Sequence[Any]) -> List[List[Any]]:
    """Cut an event stream into epoch blocks, each ending with its
    marker; a trailing marker-less partial block is kept as-is."""
    blocks: List[List[Any]] = []
    current: List[Any] = []
    for event in events:
        current.append(event)
        if isinstance(event, Marker):
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    return blocks


def drive_epochs(pipe, blocks: Dict[str, List[List[Any]]], *,
                 checkpoint_every: int = 0,
                 crash_epochs: Sequence[int] = (),
                 crash_fraction: float = 0.5,
                 stats: Optional[RecoveryStats] = None) -> None:
    """Push each source's epoch blocks through ``pipe`` in rounds of one
    block per source; a source drops out of the rotation once its blocks
    run out.

    The one epoch loop of the in-process backend.  With
    ``checkpoint_every`` set, the pipeline is snapshotted initially and
    after every ``checkpoint_every``-th epoch; at each epoch index in
    ``crash_epochs`` it then "crashes" after ``crash_fraction`` of the
    epoch's events, is restored from the last checkpoint, and replays
    from there.  Checkpoints, recoveries and replayed events are counted
    into ``stats``.
    """
    stats = stats if stats is not None else RecoveryStats()
    n_epochs = max((len(b) for b in blocks.values()), default=0)
    pending_crashes = sorted(set(crash_epochs))
    checkpoint, ck_epoch = None, -1
    if checkpoint_every:
        checkpoint = pipe.snapshot()  # epoch -1: the initial state
        stats.checkpoints_taken += 1
    furthest = -1  # highest epoch index ever fully pushed
    epoch = 0
    while epoch < n_epochs:
        crash = bool(pending_crashes) and pending_crashes[0] == epoch
        for name, source_blocks in blocks.items():
            if epoch < len(source_blocks):
                block = source_blocks[epoch]
                if crash:
                    # The prefix is thrown away with the rollback and
                    # delivered again when this epoch re-runs.
                    block = block[: int(len(block) * crash_fraction)]
                if crash or epoch <= furthest:
                    stats.replayed_events += len(block)
                pipe.push_block(name, block)
        if crash:
            pending_crashes.pop(0)
            pipe.restore(checkpoint)
            stats.recoveries += 1
            stats.last_restored_epoch = ck_epoch
            epoch = ck_epoch + 1
            continue
        furthest = max(furthest, epoch)
        if checkpoint_every and (epoch + 1) % checkpoint_every == 0:
            checkpoint = pipe.snapshot()
            ck_epoch = epoch
            stats.checkpoints_taken += 1
            stats.complete_epochs = epoch + 1
        epoch += 1


@dataclass
class RecoveredRun:
    """Result of :func:`run_with_recovery`."""

    outputs: Dict[str, List[Any]]
    stats: RecoveryStats
    pipeline: Any = field(repr=False, default=None)


def run_with_recovery(dag, source_events: Dict[str, Sequence[Any]], *,
                      batched: bool = False,
                      checkpoint_every: int = 1,
                      crash_epochs: Sequence[int] = (),
                      crash_fraction: float = 0.5,
                      edge_faults: Optional[EdgeFaults] = None,
                      seed: int = 0) -> RecoveredRun:
    """Drive an in-process pipeline epoch-by-epoch with checkpointing,
    injected crashes, and optional ingest-link faults.

    ``crash_epochs`` lists epoch indices at which the pipeline "crashes"
    after consuming ``crash_fraction`` of that epoch's events: the live
    pipeline state is thrown away, the last checkpoint is restored, and
    the sources replay from the checkpoint boundary.  ``edge_faults``
    runs each source stream through the at-least-once link model
    (:func:`~repro.storm.faults.apply_edge_faults`) and the receiver-side
    :class:`~repro.storm.faults.Resequencer` before ingestion.

    The returned outputs must be canonically trace-equivalent to a plain
    ``compile_inprocess(dag, batched).run(source_events)``.

    Raises ``ValueError`` when ``checkpoint_every < 1``, when
    ``crash_fraction`` lies outside ``[0, 1]``, or when a crash epoch
    lies outside ``[0, n_epochs)`` (it could never fire).
    """
    from repro.compiler.inprocess import compile_inprocess

    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    if not 0.0 <= crash_fraction <= 1.0:
        raise ValueError("crash_fraction must lie in [0, 1]")

    stats = RecoveryStats()
    rng = random.Random(seed)

    streams: Dict[str, Sequence[Any]] = {}
    for name, events in source_events.items():
        events = list(events)
        if edge_faults is not None and edge_faults.active():
            transmissions = apply_edge_faults(events, edge_faults, rng)
            recovered, dups = recover_stream(transmissions)
            stats.duplicates_filtered += dups
            if recovered != events:
                raise SimulationError(
                    f"link recovery failed to reproduce source {name!r}"
                )
            events = recovered
        streams[name] = events

    blocks = {name: split_epochs(events) for name, events in streams.items()}
    n_epochs = max((len(b) for b in blocks.values()), default=0)
    for crash in crash_epochs:
        if not 0 <= crash < n_epochs:
            raise ValueError(
                f"crash epoch {crash} outside [0, {n_epochs}) epochs"
            )

    pipe = compile_inprocess(dag, batched=batched)
    drive_epochs(pipe, blocks, checkpoint_every=checkpoint_every,
                 crash_epochs=crash_epochs, crash_fraction=crash_fraction,
                 stats=stats)
    outputs = {name: pipe.outputs(name) for name in pipe.sink_names()}
    return RecoveredRun(outputs=outputs, stats=stats, pipeline=pipe)
