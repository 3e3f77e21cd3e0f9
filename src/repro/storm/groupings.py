"""Stream groupings: how emitted tuples are partitioned across the tasks
of a consuming component.

Storm's built-in groupings (shuffle, fields, global, broadcast — see
Section 5) are provided, plus the :class:`MarkerAwareGrouping` family the
compiler substitutes for them: the paper notes that Storm's own groupings
"inhibit the propagation of the synchronization markers", so compiled
topologies use groupings that *broadcast every marker to all tasks* while
routing key-value pairs by hash, round-robin, or to a single task.

A grouping maps one emitted event to the list of destination task indexes
(within the consuming component).
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Optional

from repro.operators.base import Event, KV, Marker
from repro.operators.split import default_key_hash


class Grouping:
    """Base class.  ``select(event, n_tasks) -> [task indexes]``."""

    def bind(self, rng: random.Random) -> None:
        """Supply the seeded RNG (called once at topology start)."""
        self._rng = rng

    def select(self, event: Event, n_tasks: int) -> List[int]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class ShuffleGrouping(Grouping):
    """Storm's shuffle grouping: route each tuple to a random task.

    Markers are routed like any tuple — this is exactly why naive Storm
    parallelization loses marker alignment and ordering (Section 2).
    """

    def select(self, event: Event, n_tasks: int) -> List[int]:
        return [self._rng.randrange(n_tasks)]


class FieldsGrouping(Grouping):
    """Storm's fields grouping: partition by a key extracted per tuple."""

    def __init__(self, key_fn: Optional[Callable[[Event], Any]] = None):
        self._key_fn = key_fn or _default_key

    def select(self, event: Event, n_tasks: int) -> List[int]:
        return [default_key_hash(self._key_fn(event)) % n_tasks]


class GlobalGrouping(Grouping):
    """Storm's global grouping: the entire stream goes to task 0."""

    def select(self, event: Event, n_tasks: int) -> List[int]:
        return [0]


class BroadcastGrouping(Grouping):
    """Every tuple is replicated to all tasks."""

    def select(self, event: Event, n_tasks: int) -> List[int]:
        return list(range(n_tasks))


class MarkerAwareGrouping(Grouping):
    """Compiler grouping: markers broadcast, data routed by a policy.

    ``policy`` is one of:

    - ``"hash"`` — route ``KV`` by key hash (the ``HASH`` splitter);
    - ``"rr"`` — route ``KV`` round-robin (the ``RR`` splitter);
    - ``"global"`` — route all ``KV`` to task 0 (the ``UNQ`` splitter).
    """

    def __init__(self, policy: str = "hash",
                 key_hash: Optional[Callable[[Any], int]] = None):
        if policy not in ("hash", "rr", "global"):
            raise ValueError(f"unknown marker-aware policy {policy!r}")
        self.policy = policy
        self._key_hash = key_hash or default_key_hash
        self._rr_next = 0

    def select(self, event: Event, n_tasks: int) -> List[int]:
        if isinstance(event, Marker):
            return list(range(n_tasks))
        if self.policy == "hash":
            return [self._key_hash(event.key) % n_tasks]
        if self.policy == "rr":
            target = self._rr_next
            self._rr_next = (target + 1) % n_tasks
            return [target]
        return [0]  # "global"

    def describe(self) -> str:
        return f"MarkerAware({self.policy})"


def _default_key(event: Event) -> Any:
    if isinstance(event, KV):
        return event.key
    return "#"
