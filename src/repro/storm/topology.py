"""Topologies: spouts, bolts, and the builder API (Section 5).

Mirrors Storm's programming model: a :class:`TopologyBuilder` declares
spouts and bolts with parallelism hints and input groupings, producing an
immutable :class:`Topology` that the simulator instantiates into tasks.

Bolts receive :class:`~repro.storm.tuples.StormTuple` values and emit
events through an :class:`OutputCollector`.  :class:`CaptureBolt` is the
standard sink — it records everything it receives so experiments can
compare delivered traces.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import TopologyError
from repro.operators.base import Event
from repro.storm.groupings import Grouping, ShuffleGrouping
from repro.storm.tuples import StormTuple


def _ignore_seal(timestamp: Any) -> None:
    return None


class OutputCollector:
    """Collects the events a spout/bolt emits during one invocation.

    ``on_seal(ts)`` is the runtime's epoch-seal signal: a bolt that
    aligns its input channels calls it once its state reflects epoch
    ``ts`` and nothing newer.  The simulator binds it once per task (it
    survives rollback); the default ignores it.
    """

    def __init__(self):
        self._buffer: List[Event] = []
        self.on_seal: Callable[[Any], None] = _ignore_seal

    def emit(self, event: Event) -> None:
        self._buffer.append(event)

    def drain(self) -> List[Event]:
        out, self._buffer = self._buffer, []
        return out


class Spout:
    """A stream source.  Subclasses override :meth:`next_tuple`.

    ``next_tuple`` emits zero or more events via the collector and
    returns ``False`` when the source is exhausted (simulation drains all
    spouts to completion — experiments run a finite workload).
    """

    def open(self, task_index: int, n_tasks: int) -> None:
        """Per-task initialization (partitioning state etc.)."""

    def next_tuple(self, collector: OutputCollector) -> bool:
        raise NotImplementedError


class IteratorSpout(Spout):
    """A spout fed by a factory of per-task event iterators.

    ``make_iterator(task_index, n_tasks)`` returns this task's partition
    of the source stream (markers included — every partition carries the
    full marker sequence, as the compiled sources require).
    """

    def __init__(self, make_iterator: Callable[[int, int], Iterator[Event]]):
        self._make_iterator = make_iterator
        self._iterator: Optional[Iterator[Event]] = None

    def open(self, task_index: int, n_tasks: int) -> None:
        self._iterator = self._make_iterator(task_index, n_tasks)

    def next_tuple(self, collector: OutputCollector) -> bool:
        assert self._iterator is not None, "open() must run before next_tuple()"
        try:
            event = next(self._iterator)
        except StopIteration:
            return False
        collector.emit(event)
        return True


class Bolt:
    """A processing vertex.  Subclasses override :meth:`execute`.

    Bolts are *factories*: per-task state is created by :meth:`prepare`
    (returning the state object) and threaded through :meth:`execute`,
    so one Bolt object can back many task instances.
    """

    def prepare(self, task_index: int, n_tasks: int) -> Any:
        """Create per-task state."""
        return None

    def execute(self, state: Any, tup: StormTuple, collector: OutputCollector) -> None:
        raise NotImplementedError

    def snapshot_state(self, state: Any) -> Any:
        """Capture per-task state for an epoch-aligned checkpoint.

        The default deep copy is always correct; bolts with structured
        state override it (see :class:`~repro.compiler.glue.CompiledBolt`).
        """
        return copy.deepcopy(state)

    def restore_state(self, snapshot: Any) -> Any:
        """Rebuild per-task state from a :meth:`snapshot_state` result;
        the snapshot must survive for possible later restores."""
        return copy.deepcopy(snapshot)


class CaptureBolt(Bolt):
    """Sink bolt recording every received event (and its provenance).

    The simulator also reports sink deliveries in its
    :class:`~repro.storm.simulator.SimulationReport` (in global delivery
    order), which is the preferred way to read results; the bolt-local
    record is reset at the start of each run by :meth:`prepare`.
    """

    def __init__(self):
        self.received: List[StormTuple] = []

    def prepare(self, task_index: int, n_tasks: int) -> Any:
        if task_index == 0:
            self.received.clear()
        return None

    def execute(self, state, tup: StormTuple, collector: OutputCollector) -> None:
        self.received.append(tup)

    def snapshot_state(self, state: Any) -> Any:
        # The capture list lives on the instance (there is one task); a
        # checkpoint is just its length, and restore truncates back.
        return {"received": len(self.received)}

    def restore_state(self, snapshot: Any) -> Any:
        del self.received[snapshot["received"]:]
        return None

    def events(self) -> List[Event]:
        """The received events, in arrival order."""
        return [t.event for t in self.received]


@dataclass
class ComponentSpec:
    """Declaration of one spout or bolt."""

    name: str
    payload: Any  # Spout or Bolt
    parallelism: int
    is_spout: bool
    #: upstream component name -> grouping, in declaration order.
    inputs: Dict[str, Grouping] = field(default_factory=dict)


@dataclass
class Topology:
    """An immutable component graph ready for execution."""

    name: str
    components: Dict[str, ComponentSpec]

    def spouts(self) -> List[ComponentSpec]:
        return [c for c in self.components.values() if c.is_spout]

    def bolts(self) -> List[ComponentSpec]:
        return [c for c in self.components.values() if not c.is_spout]

    def downstream_of(self, component: str) -> List[Tuple[str, Grouping]]:
        """Consumers of ``component`` with their groupings."""
        result = []
        for spec in self.components.values():
            if component in spec.inputs:
                result.append((spec.name, spec.inputs[component]))
        return result

    def validate(self) -> None:
        for spec in self.components.values():
            if spec.parallelism < 1:
                raise TopologyError(f"{spec.name}: parallelism must be >= 1")
            for upstream in spec.inputs:
                if upstream not in self.components:
                    raise TopologyError(
                        f"{spec.name} consumes unknown component {upstream!r}"
                    )
                if self.components[upstream] is spec:
                    raise TopologyError(f"{spec.name} cannot consume itself")
        # Reject cycles (Storm allows them; our semantics does not).
        order: List[str] = []
        marks: Dict[str, int] = {}

        def visit(name: str) -> None:
            mark = marks.get(name, 0)
            if mark == 1:
                raise TopologyError("topology contains a cycle")
            if mark == 2:
                return
            marks[name] = 1
            for upstream in self.components[name].inputs:
                visit(upstream)
            marks[name] = 2
            order.append(name)

        for name in self.components:
            visit(name)


class _BoltDeclarer:
    """Fluent input declaration, as in Storm's API."""

    def __init__(self, spec: ComponentSpec, builder: "TopologyBuilder"):
        self._spec = spec
        self._builder = builder

    def shuffle_grouping(self, upstream: str) -> "_BoltDeclarer":
        return self.grouping(upstream, ShuffleGrouping())

    def global_grouping(self, upstream: str) -> "_BoltDeclarer":
        from repro.storm.groupings import GlobalGrouping

        return self.grouping(upstream, GlobalGrouping())

    def grouping(self, upstream: str, grouping: Grouping) -> "_BoltDeclarer":
        if upstream in self._spec.inputs:
            raise TopologyError(
                f"{self._spec.name} already consumes {upstream!r}"
            )
        self._spec.inputs[upstream] = grouping
        return self


class TopologyBuilder:
    """Builder mirroring ``org.apache.storm.topology.TopologyBuilder``."""

    def __init__(self, name: str = "topology"):
        self._name = name
        self._components: Dict[str, ComponentSpec] = {}

    def set_spout(self, name: str, spout: Spout, parallelism: int = 1) -> None:
        self._add(ComponentSpec(name, spout, parallelism, is_spout=True))

    def set_bolt(
        self, name: str, bolt: Bolt, parallelism: int = 1
    ) -> _BoltDeclarer:
        spec = ComponentSpec(name, bolt, parallelism, is_spout=False)
        self._add(spec)
        return _BoltDeclarer(spec, self)

    def _add(self, spec: ComponentSpec) -> None:
        if spec.name in self._components:
            raise TopologyError(f"duplicate component name {spec.name!r}")
        self._components[spec.name] = spec

    def build(self) -> Topology:
        topology = Topology(self._name, dict(self._components))
        topology.validate()
        return topology
