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

This module also hosts the in-process twin: :func:`run_with_recovery`
drives a :class:`~repro.compiler.inprocess.InProcessPipeline` (serial or
batched) epoch-by-epoch with ``snapshot()`` / ``restore()`` around
injected crashes and optional link faults on the ingest streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.operators.base import Marker
from repro.storm.faults import EdgeFaults, apply_edge_faults, recover_stream


#: Simulated seconds a dropped transmission adds per retransmission.
RETRANSMIT_TIMEOUT = 1e-3
#: Simulated seconds between a crash and the tasks' restart.
RESTART_DELAY = 0.0


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
    pending_crashes = sorted(set(crash_epochs))
    checkpoint = pipe.snapshot()  # epoch -1: the initial state
    ck_epoch = -1
    stats.checkpoints_taken += 1
    furthest = -1  # highest epoch index ever fully pushed

    epoch = 0
    while epoch < n_epochs:
        if pending_crashes and pending_crashes[0] == epoch:
            pending_crashes.pop(0)
            for name, source_blocks in blocks.items():
                if epoch < len(source_blocks):
                    block = source_blocks[epoch]
                    prefix = block[: int(len(block) * crash_fraction)]
                    pipe.push_block(name, prefix)
                    # The prefix is thrown away with the rollback and
                    # delivered again when this epoch re-runs.
                    stats.replayed_events += len(prefix)
            pipe.restore(checkpoint)
            stats.recoveries += 1
            stats.last_restored_epoch = ck_epoch
            epoch = ck_epoch + 1
            continue
        for name, source_blocks in blocks.items():
            if epoch < len(source_blocks):
                block = source_blocks[epoch]
                if epoch <= furthest:
                    stats.replayed_events += len(block)
                pipe.push_block(name, block)
        furthest = max(furthest, epoch)
        if (epoch + 1) % checkpoint_every == 0:
            checkpoint = pipe.snapshot()
            ck_epoch = epoch
            stats.checkpoints_taken += 1
            stats.complete_epochs = epoch + 1
        epoch += 1

    outputs = {name: pipe.outputs(name) for name in pipe.sink_names()}
    return RecoveredRun(outputs=outputs, stats=stats, pipeline=pipe)
