"""Declarative fault injection for the simulated cluster.

A :class:`FaultPlan` describes *what goes wrong* during a run, separately
from the topology and the cost model, so the same pipeline can be swept
over fault scenarios exactly like it is swept over seeds:

- :class:`CrashFault` — one task loses its in-memory state, either after
  a fixed number of executions or at a simulated time;
- :class:`MachineFault` — every task on a machine crashes at once;
  ``permanent=True`` additionally removes the machine, forcing the
  recovery coordinator to re-place its tasks on the survivors;
- :class:`EdgeFaults` — per-edge message-level faults: independent
  drop / duplicate / reorder probabilities applied to every tuple
  shipped on matching ``src component -> dst component`` links.

All randomness comes from the plan's own ``seed`` (a dedicated RNG in
the simulator), never from the simulator's scheduling RNG — so a run
with recovery enabled but no faults draws exactly the same schedule as
a plain run, and the checkpointing overhead can be measured in
isolation.

The plan round-trips through JSON (:meth:`FaultPlan.to_dict` /
:meth:`FaultPlan.from_dict`, :func:`load_fault_plan`) for the CLI's
``repro sim --faults plan.json``.

:class:`Resequencer` is the receiver half of the reliability layer the
recovery coordinator installs on every fault-injected link: senders
number their transmissions per link, and the resequencer releases
tuples in sequence order exactly once — duplicates are filtered, gaps
(in-flight retransmissions) are held.  Healthy links stay on the plain
path: global rollback already discards their in-flight traffic, so
they are exactly-once without numbering.  See
``docs/fault_tolerance.md``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SimulationError


@dataclass(frozen=True)
class EdgeFaults:
    """Message-fault probabilities for one (or every) topology edge.

    ``drop``, ``duplicate``, and ``reorder`` are independent per-tuple
    probabilities in ``[0, 1)``.  Under the recovery coordinator a
    "dropped" transmission is retransmitted after a timeout (the link is
    at-least-once, like a TCP stream or an acking Storm topology), so a
    drop manifests as delay; without recovery it is simply lost.
    ``reorder_delay`` bounds the extra delay a reordered tuple picks up
    (it bypasses the link's FIFO floor, so later tuples can overtake
    it).  ``max_retransmits`` caps consecutive drops of one tuple so a
    high drop rate cannot livelock a link.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_delay: float = 5e-4
    max_retransmits: int = 5

    def __post_init__(self):
        for name in ("drop", "duplicate", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} probability must be in [0, 1), got {p}")
        if self.reorder_delay < 0:
            raise ValueError("reorder_delay must be non-negative")
        if self.max_retransmits < 1:
            raise ValueError("max_retransmits must be >= 1")

    def active(self) -> bool:
        return self.drop > 0 or self.duplicate > 0 or self.reorder > 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "drop": self.drop,
            "duplicate": self.duplicate,
            "reorder": self.reorder,
            "reorder_delay": self.reorder_delay,
            "max_retransmits": self.max_retransmits,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EdgeFaults":
        return cls(**data)


def _check_time(at_time: float) -> None:
    """A fault time orders the simulator's heap, so NaN is unusable."""
    if not (math.isfinite(at_time) and at_time >= 0):
        raise ValueError(f"at_time must be finite and non-negative, got {at_time}")


@dataclass(frozen=True)
class CrashFault:
    """One task crash: the task loses all in-memory state.

    Fires once, either after the task's ``after_executions``-th
    execution or at simulated time ``at_time`` (exactly one must be
    set).  ``kind`` is descriptive ("transient" tasks restart in place;
    the machine-level permanent failures live in :class:`MachineFault`).
    """

    component: str
    task: int = 0
    after_executions: Optional[int] = None
    at_time: Optional[float] = None
    kind: str = "transient"

    def __post_init__(self):
        if (self.after_executions is None) == (self.at_time is None):
            raise ValueError(
                "exactly one of after_executions / at_time must be set"
            )
        if self.after_executions is not None and self.after_executions < 0:
            raise ValueError("after_executions must be non-negative")
        if self.at_time is not None:
            _check_time(self.at_time)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "component": self.component,
            "task": self.task,
            "after_executions": self.after_executions,
            "at_time": self.at_time,
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CrashFault":
        return cls(**data)


@dataclass(frozen=True)
class MachineFault:
    """All tasks on ``machine`` crash at ``at_time``.

    ``permanent=True`` removes the machine from the cluster; the
    recovery coordinator re-places its tasks round-robin over the
    surviving worker machines before the global rollback.
    """

    machine: int
    at_time: float
    permanent: bool = False

    def __post_init__(self):
        _check_time(self.at_time)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "machine": self.machine,
            "at_time": self.at_time,
            "permanent": self.permanent,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MachineFault":
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """Everything that goes wrong during one simulated run.

    ``edges`` maps ``(src component, dst component)`` to that edge's
    :class:`EdgeFaults`; ``default_edge`` (optional) applies to every
    edge without an explicit entry.  ``seed`` feeds the dedicated fault
    RNG.
    """

    crashes: Tuple[CrashFault, ...] = ()
    machine_faults: Tuple[MachineFault, ...] = ()
    edges: Dict[Tuple[str, str], EdgeFaults] = field(default_factory=dict)
    default_edge: Optional[EdgeFaults] = None
    seed: int = 0

    def edge_faults(self, src: str, dst: str) -> Optional[EdgeFaults]:
        """The faults configured for the ``src -> dst`` edge, if any."""
        faults = self.edges.get((src, dst))
        return faults if faults is not None else self.default_edge

    # -- JSON round-trip -----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "crashes": [c.to_dict() for c in self.crashes],
            "machine_faults": [m.to_dict() for m in self.machine_faults],
            "edges": [
                {"src": src, "dst": dst, **faults.to_dict()}
                for (src, dst), faults in sorted(self.edges.items())
            ],
            "default_edge": (
                None if self.default_edge is None else self.default_edge.to_dict()
            ),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        edges: Dict[Tuple[str, str], EdgeFaults] = {}
        for entry in data.get("edges", ()):
            entry = dict(entry)
            src = entry.pop("src")
            dst = entry.pop("dst")
            edges[(src, dst)] = EdgeFaults.from_dict(entry)
        default = data.get("default_edge")
        return cls(
            crashes=tuple(
                CrashFault.from_dict(c) for c in data.get("crashes", ())
            ),
            machine_faults=tuple(
                MachineFault.from_dict(m) for m in data.get("machine_faults", ())
            ),
            edges=edges,
            default_edge=None if default is None else EdgeFaults.from_dict(default),
            seed=data.get("seed", 0),
        )


def load_fault_plan(path: str) -> FaultPlan:
    """Read a :class:`FaultPlan` from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SimulationError(f"fault plan {path!r} is not a JSON object")
    return FaultPlan.from_dict(data)


def check_fault_plan(plan: FaultPlan, topology, machine_ids) -> None:
    """Reject a plan naming a task, machine or edge the run does not have.

    ``machine_ids`` holds the cluster's machine ids.  Raises
    :class:`~repro.errors.SimulationError` naming the first unknown one.
    """
    components = topology.components
    for crash in plan.crashes:
        spec = components.get(crash.component)
        if spec is None or crash.task not in range(spec.parallelism):
            raise SimulationError(
                f"fault plan names unknown task {(crash.component, crash.task)}"
            )
    for fault in plan.machine_faults:
        if fault.machine not in machine_ids:
            raise SimulationError(f"fault plan names unknown machine {fault.machine}")
    edges = {(src, spec.name) for spec in components.values() for src in spec.inputs}
    unknown = set(plan.edges) - edges
    if unknown:
        raise SimulationError(f"fault plan names unknown edges {sorted(unknown)}")


def demo_plan(topology, seed: int = 0) -> FaultPlan:
    """A representative plan for a topology: crash the first processing
    bolt's task 0 mid-run, plus mild drop/duplicate/reorder everywhere.

    Used by ``repro sim`` when no ``--faults`` file is given.
    """
    target = None
    for spec in topology.components.values():
        if not spec.is_spout and spec.inputs:
            # Prefer a mid-pipeline bolt (one that itself has consumers).
            if topology.downstream_of(spec.name):
                target = spec.name
                break
            if target is None:
                target = spec.name
    crashes = ()
    if target is not None:
        crashes = (CrashFault(target, task=0, after_executions=40),)
    return FaultPlan(
        crashes=crashes,
        default_edge=EdgeFaults(drop=0.02, duplicate=0.02, reorder=0.05),
        seed=seed,
    )


class Resequencer:
    """Exactly-once, in-order release of a link's numbered transmissions.

    ``offer(seq, item)`` returns the (possibly empty) run of items that
    became releasable: duplicates (a sequence number at or below the
    watermark, or already buffered) are dropped and counted; gaps are
    held until the missing transmission arrives.  On an at-least-once
    link every sequence number eventually arrives, so the resequencer
    always drains.
    """

    __slots__ = ("expected", "buffer", "duplicates")

    def __init__(self):
        self.expected = 0
        self.buffer: Dict[int, Any] = {}
        self.duplicates = 0

    def offer(self, seq: int, item: Any) -> List[Any]:
        if seq == self.expected and not self.buffer:
            # In-order arrival on a healthy link: release immediately.
            self.expected = seq + 1
            return [item]
        if seq < self.expected or seq in self.buffer:
            self.duplicates += 1
            return []
        self.buffer[seq] = item
        released: List[Any] = []
        while self.expected in self.buffer:
            released.append(self.buffer.pop(self.expected))
            self.expected += 1
        return released

    def pending(self) -> int:
        """Transmissions buffered behind a gap."""
        return len(self.buffer)


def apply_edge_faults(events, faults: EdgeFaults, rng,
                      displacement: float = 8.0) -> List[Tuple[int, Any]]:
    """Model an at-least-once faulty link over an event sequence.

    Returns the *transmission order* as ``[(seq, event), ...]``: every
    event is numbered in stream order, then drops (modelled as late
    retransmissions), duplicates, and reorders perturb the order in
    which the transmissions arrive.  Feeding the result through
    :func:`recover_stream` must reproduce the original sequence exactly
    — the in-process backend's link-recovery parity check.
    """
    transmissions: List[Tuple[float, int, int, Any]] = []
    for seq, event in enumerate(events):
        offset = 0.0
        if faults.drop and rng.random() < faults.drop:
            # Lost then retransmitted: arrives a whole window later.
            offset += displacement * (1.0 + rng.random())
        if faults.reorder and rng.random() < faults.reorder:
            offset += 1.0 + rng.random() * displacement * 0.5
        transmissions.append((seq + offset, len(transmissions), seq, event))
        if faults.duplicate and rng.random() < faults.duplicate:
            dup_offset = offset + rng.random() * displacement * 0.5
            transmissions.append(
                (seq + dup_offset, len(transmissions), seq, event)
            )
    transmissions.sort(key=lambda t: (t[0], t[1]))
    return [(seq, event) for _, _, seq, event in transmissions]


def recover_stream(transmissions) -> Tuple[List[Any], int]:
    """Run a faulty transmission order through a :class:`Resequencer`.

    Returns ``(events in original order, duplicates filtered)``.
    """
    reseq = Resequencer()
    out: List[Any] = []
    for seq, event in transmissions:
        out.extend(reseq.offer(seq, event))
    return out, reseq.duplicates
