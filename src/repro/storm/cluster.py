"""Cluster model: machines, cores, and task placement.

The evaluation's unit of scaling is the virtual machine (2 CPUs each in
the paper).  A :class:`Machine` has a number of cores; each core executes
one tuple at a time.  A :class:`Placement` pins every task (component
instance) to a machine; :func:`round_robin_placement` reproduces the
default even spreading a Storm scheduler would do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import SimulationError
from repro.storm.topology import Topology


@dataclass(frozen=True)
class Machine:
    """One worker machine."""

    machine_id: int
    cores: int = 2

    def __repr__(self):
        return f"Machine({self.machine_id}, cores={self.cores})"


class Cluster:
    """A set of worker machines, plus an implicit source/sink host.

    Spout and capture-sink tasks run on the implicit host (id ``-1``,
    unbounded cores) by default: the paper's sources (Kafka/generators)
    are not part of the 1..8 machines "assigned to the computation".
    """

    SOURCE_HOST = -1

    def __init__(self, n_machines: int, cores_per_machine: int = 2):
        if n_machines < 1:
            raise SimulationError("cluster needs at least one machine")
        self.machines: List[Machine] = [
            Machine(i, cores_per_machine) for i in range(n_machines)
        ]

    @property
    def n_machines(self) -> int:
        return len(self.machines)


TaskId = Tuple[str, int]  # (component name, task index)


class Placement:
    """Assignment of tasks to machines."""

    def __init__(self):
        self._assignment: Dict[TaskId, int] = {}

    def assign(self, component: str, task_index: int, machine_id: int) -> None:
        self._assignment[(component, task_index)] = machine_id

    def machine_of(self, component: str, task_index: int) -> int:
        try:
            return self._assignment[(component, task_index)]
        except KeyError:
            raise SimulationError(
                f"task {component}[{task_index}] has no machine assignment"
            )

    def items(self):
        return self._assignment.items()


def _is_offloaded(spec, offload_sources: bool) -> bool:
    from repro.storm.topology import CaptureBolt

    return offload_sources and (
        spec.is_spout or isinstance(spec.payload, CaptureBolt)
    )


def round_robin_placement(
    topology: Topology, cluster: Cluster, offload_sources: bool = True
) -> Placement:
    """Spread bolt tasks across machines round-robin, component-major.

    With ``offload_sources`` (default) spout tasks and any
    :class:`~repro.storm.topology.CaptureBolt` sink tasks are placed on
    the implicit source host so that scaling experiments measure the
    processing stages only (matching the paper's setup).
    """
    placement = Placement()
    next_machine = 0
    for spec in topology.components.values():
        offloaded = _is_offloaded(spec, offload_sources)
        for task_index in range(spec.parallelism):
            if offloaded:
                placement.assign(spec.name, task_index, Cluster.SOURCE_HOST)
            else:
                placement.assign(spec.name, task_index, next_machine)
                next_machine = (next_machine + 1) % cluster.n_machines
    return placement


def packed_placement(
    topology: Topology, cluster: Cluster, offload_sources: bool = True
) -> Placement:
    """Fill machines one at a time (the anti-pattern baseline).

    Packs each component's tasks densely onto the lowest-numbered
    machines instead of spreading them.  A topology whose stage
    parallelism is below the machine count then leaves machines idle —
    useful as the negative control in placement experiments.
    """
    placement = Placement()
    for spec in topology.components.values():
        offloaded = _is_offloaded(spec, offload_sources)
        for task_index in range(spec.parallelism):
            if offloaded:
                placement.assign(spec.name, task_index, Cluster.SOURCE_HOST)
            else:
                machine = min(task_index // max(1, cluster.machines[0].cores),
                              cluster.n_machines - 1)
                placement.assign(spec.name, task_index, machine)
    return placement


def aligned_placement(
    topology: Topology, cluster: Cluster, offload_sources: bool = True
) -> Placement:
    """Co-locate equal task indexes of every component.

    Task ``i`` of every stage lands on machine ``i mod n``: when
    consecutive stages are hash-partitioned on the same key space with
    the same parallelism, task ``i`` tends to feed task ``i``, turning
    inter-stage hops into local deliveries (lower latency; lower remote
    CPU when the cost model charges it).
    """
    placement = Placement()
    for spec in topology.components.values():
        offloaded = _is_offloaded(spec, offload_sources)
        for task_index in range(spec.parallelism):
            if offloaded:
                placement.assign(spec.name, task_index, Cluster.SOURCE_HOST)
            else:
                placement.assign(
                    spec.name, task_index, task_index % cluster.n_machines
                )
    return placement
