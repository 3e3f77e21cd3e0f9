"""Runtime event and operator plumbing shared by all templates.

Runtime streams carry two kinds of *events*:

- :class:`KV` — a key-value pair;
- :class:`Marker` — a synchronization marker with its timestamp.

An :class:`Operator` is a *factory of stateful instances*: the object
itself holds only configuration (so one operator can be instantiated many
times for data parallelism); all mutable state lives in the value returned
by :meth:`Operator.initial_state` and is threaded through the operator's
one kernel, :meth:`Operator.handle_batch`, which consumes a block of
events and returns the output events, forwarding markers automatically —
in the paper's templates the programmer never emits markers; the runtime
propagates them (Table 3's ``emit(m)``).  The per-event entry point
:meth:`Operator.handle` is defined once, here: one event is a one-event
block, so the event-at-a-time and the epoch-batched engines run the same
kernel code.
"""

from __future__ import annotations

import copy
from typing import Any, List, NamedTuple, Sequence, Union


class KV(NamedTuple):
    """A key-value event.

    A ``NamedTuple`` rather than a (frozen) dataclass: events are
    created once per emission in every stage of every engine, and tuple
    construction is several times cheaper than a frozen dataclass's
    ``object.__setattr__`` init — measurably so on the batched hot
    paths.  Still immutable and hashable, same field names."""

    key: Any
    value: Any

    def __repr__(self):
        return f"KV({self.key!r}, {self.value!r})"


class Marker(NamedTuple):
    """A synchronization-marker event with its timestamp."""

    timestamp: Any

    def __repr__(self):
        return f"Marker({self.timestamp!r})"


Event = Union[KV, Marker]


def is_marker_event(event: Event) -> bool:
    """Whether a runtime event is a synchronization marker."""
    return isinstance(event, Marker)


class Operator:
    """Base class for single-input single-output operators.

    Subclasses (the Table 1 templates) implement :meth:`initial_state`
    and one kernel, :meth:`handle_batch`; an operator written event at a
    time may implement :meth:`handle` instead.  The kernel must be a
    pure function of ``(configuration, state, events)`` up to mutation
    of ``state`` — no hidden instance-level mutable state — so that
    parallel instances are independent.
    """

    #: Optional data-trace types for DAG type checking.
    input_type = None
    output_type = None

    #: Stream kinds for the DAG type checker: "U" (unordered between
    #: markers), "O" (per-key ordered between markers), or ``None`` for
    #: kind-polymorphic operators (identity).
    input_kind = None
    output_kind = None

    #: Human-readable name used in topologies and renderings.
    name: str = ""

    def initial_state(self) -> Any:
        """Create the state for a fresh operator instance."""
        return None

    def handle(self, state: Any, event: Event) -> List[Event]:
        """Consume one event; return output events (markers included)."""
        return self.handle_batch(state, [event])

    def handle_batch(self, state: Any, events: Sequence[Event]) -> List[Event]:
        """Consume a block of events at once; return all output events.

        The operator's kernel.  Blocks may be cut anywhere, markers
        included, and a kernel may reorder within a block only what the
        input type declares invisible: for a ``U`` input between-marker
        items are independent, for an ``O`` input per-key order must be
        preserved.  So feeding a stream one event at a time or in any
        blocking yields the same canonical output trace, which is what
        licenses the engines to pick either.  The default loops a
        subclass's own per-event :meth:`handle`.
        """
        if type(self).handle is Operator.handle:
            raise NotImplementedError(
                f"{type(self).__name__} must override handle_batch(state, events) "
                "or handle(state, event)"
            )
        handle = self.handle
        out: List[Event] = []
        for event in events:
            out.extend(handle(state, event))
        return out

    def snapshot_state(self, state: Any) -> Any:
        """Capture ``state`` for an epoch-aligned checkpoint.

        The snapshot must be *independent* of the live state: mutating
        either afterwards must not affect the other.  The default deep
        copy is always correct; the template subclasses override it with
        cheaper structure-aware copies.
        """
        return copy.deepcopy(state)

    def restore_state(self, snapshot: Any) -> Any:
        """Rebuild a live state from a :meth:`snapshot_state` result.

        The snapshot itself must survive intact (it may be restored
        again after a second failure), so the default deep-copies on the
        way out too.
        """
        return copy.deepcopy(snapshot)

    def run(self, events) -> List[Event]:
        """Evaluate sequentially over an event iterable (testing aid)."""
        state = self.initial_state()
        out: List[Event] = []
        for event in events:
            out.extend(self.handle(state, event))
        return out

    def label(self) -> str:
        return self.name or type(self).__name__

    def __repr__(self):
        return f"<{self.label()}>"
