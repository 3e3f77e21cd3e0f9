"""Tuples in flight between topology components.

A :class:`StormTuple` wraps one runtime event (a
:class:`~repro.operators.base.KV` or :class:`~repro.operators.base.Marker`)
with its provenance: which component and which task instance emitted it.
Provenance is what lets a receiving bolt treat each upstream task as a
separate logical channel — the basis of marker-aligned merging in the
compiled topologies.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.operators.base import Event


class StormTuple(NamedTuple):
    """One tuple on the wire (immutable; compares and hashes by value)."""

    event: Event
    src_component: str
    src_task: int

    def channel(self) -> Any:
        """The logical upstream channel this tuple belongs to."""
        return (self.src_component, self.src_task)

    def __repr__(self):
        return f"Tuple({self.event!r} from {self.src_component}[{self.src_task}])"
