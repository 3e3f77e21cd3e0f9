"""The ``OpKeyedUnordered`` template (Table 1) and its Table 3 algorithm.

Per-key stateful computation over *unordered* between-marker input:
to keep the result independent of arrival order, item processing never
updates the state.  Instead the between-marker items of each key are
folded through a **commutative monoid** ``(A, id, combine)``; at each
marker the aggregate is incorporated into the per-key state by the pure
``update_state`` and ``on_marker`` may emit.

The runtime below is a direct transcription of Table 3, including the
subtle ``startS`` bookkeeping: a key first seen after ``k`` markers must
start from ``initial_state`` advanced by ``k`` empty aggregates, so that
all keys stay logically synchronized.  The template has one kernel,
:meth:`OpKeyedUnordered.handle_batch` (``handle`` is a one-event block),
whose marker step is :meth:`OpKeyedUnordered.seal`; a fused marker
kernel overrides only that (``library.SlidingAggregate`` advances a
two-stacks record of block aggregates per key there).

The programmer overrides the seven pure/side-effecting pieces:
``fold_in`` (Table 1's ``in``), ``identity`` (``id``), ``combine``,
``init`` (``initialState``), ``update_state``, ``on_item`` (reads only
the *last snapshot* of the state), and ``on_marker``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.operators.base import KV, Event, Marker, Operator


@dataclass
class CommutativeMonoid:
    """An explicit commutative monoid ``(A, identity, combine)``.

    ``combine`` must be associative and commutative; :meth:`spot_check`
    verifies both on sampled elements (used by tests and by the optional
    template validation).
    """

    identity: Any
    combine: Callable[[Any, Any], Any]

    def fold(self, values) -> Any:
        acc = self.identity
        for value in values:
            acc = self.combine(acc, value)
        return acc

    def spot_check(self, samples) -> bool:
        """Check associativity/commutativity/identity on given samples."""
        samples = list(samples)
        for x in samples:
            if self.combine(x, self.identity) != x:
                return False
            if self.combine(self.identity, x) != x:
                return False
        for x in samples:
            for y in samples:
                if self.combine(x, y) != self.combine(y, x):
                    return False
                for z in samples:
                    left = self.combine(self.combine(x, y), z)
                    right = self.combine(x, self.combine(y, z))
                    if left != right:
                        return False
        return True


@dataclass(frozen=True)
class CombinedAgg:
    """A pre-aggregated monoid value travelling in place of raw items.

    Sender-side combiners (see :mod:`repro.storm.batching`) fold the
    between-marker items of a key into one monoid element ``A`` before
    the network hop; the receiving :class:`OpKeyedUnordered` then folds
    it into the key's block aggregate with ``combine`` directly instead
    of ``fold_in``.  Legal exactly on ``U(K, V)`` edges into operators
    whose ``on_item`` is the default no-op, because then the only use of
    the block's items is the commutative-monoid fold.
    """

    agg: Any


class _Record:
    """Table 3's record type ``R = { agg: A, state: S }``."""

    __slots__ = ("agg", "state")

    def __init__(self, agg: Any, state: Any):
        self.agg = agg
        self.state = state


class _KeyedUnorderedState:
    """Table 3's memory: the state map plus ``startS``."""

    __slots__ = ("state_map", "start_state")

    def __init__(self, start_state: Any):
        self.state_map: Dict[Any, _Record] = {}
        self.start_state = start_state


class OpKeyedUnordered(Operator):
    """Per-key unordered stateful transduction ``U(K, V) -> U(L, W)``.

    All of :meth:`fold_in`, :meth:`identity`, :meth:`combine`,
    :meth:`init`, and :meth:`update_state` must be pure; only
    :meth:`on_item` and :meth:`on_marker` may emit.
    """

    input_kind = "U"
    output_kind = "U"

    # ------------------------------------------------------------------
    # The seven template functions (Table 1).
    # ------------------------------------------------------------------

    def fold_in(self, key: Any, value: Any) -> Any:
        """``in(key, value) -> A``: inject one item into the monoid."""
        raise NotImplementedError

    def identity(self) -> Any:
        """``id() -> A``: the monoid identity."""
        raise NotImplementedError

    def combine(self, x: Any, y: Any) -> Any:
        """``combine(x, y) -> A``: associative and commutative."""
        raise NotImplementedError

    def init(self) -> Any:
        """``initialState() -> S``."""
        raise NotImplementedError

    def update_state(self, old_state: Any, agg: Any) -> Any:
        """``updateState(S, A) -> S``: fold a block aggregate into the state."""
        raise NotImplementedError

    def on_item(
        self, last_state: Any, key: Any, value: Any, emit: Callable[[Any, Any], None]
    ) -> None:
        """Per-item output hook; sees only the last marker-snapshot state."""

    def on_marker(
        self, new_state: Any, key: Any, m: Marker, emit: Callable[[Any, Any], None]
    ) -> None:
        """Per-key marker output hook; sees the freshly updated state."""

    # ------------------------------------------------------------------
    # Table 3 runtime.
    # ------------------------------------------------------------------

    def monoid(self) -> CommutativeMonoid:
        """The template's monoid as an explicit object (for validation)."""
        return CommutativeMonoid(self.identity(), self.combine)

    def initial_state(self) -> _KeyedUnorderedState:
        return _KeyedUnorderedState(self.init())

    def snapshot_state(self, state: _KeyedUnorderedState) -> Any:
        # The per-key ``agg`` / ``state`` values may be arbitrary user
        # objects, so they deep-copy — the saving is skipping the
        # slotted wrappers.
        return (
            copy.deepcopy(state.start_state),
            {
                key: (copy.deepcopy(r.agg), copy.deepcopy(r.state))
                for key, r in state.state_map.items()
            },
        )

    def restore_state(self, snapshot: Any) -> _KeyedUnorderedState:
        start_state, records = snapshot
        state = _KeyedUnorderedState(copy.deepcopy(start_state))
        for key, (agg, key_state) in records.items():
            state.state_map[key] = _Record(
                copy.deepcopy(agg), copy.deepcopy(key_state)
            )
        return state

    def seal(self, state: _KeyedUnorderedState, m: Marker, out: List[Event]) -> None:
        """Table 3's marker step, in ``state_map`` order; emits into ``out``."""

        def emit(key, value, _append=out.append, _new=tuple.__new__):
            _append(_new(KV, (key, value)))

        update_state, identity = self.update_state, self.identity
        for key, record in state.state_map.items():
            record.state = update_state(record.state, record.agg)
            record.agg = identity()
            self.on_marker(record.state, key, m, emit)
        state.start_state = update_state(state.start_state, identity())

    def handle_batch(self, state: _KeyedUnorderedState, events) -> List[Event]:
        """The kernel: Table 3's item step per item, :meth:`seal` per
        marker.

        Each item folds into its key's block aggregate (a key first seen
        starts from ``startS``); a :class:`CombinedAgg` folds in with
        ``combine`` directly.  ``on_item`` sees the key's last-marker
        state; when it is the template default (the common,
        pure-aggregation case) the kernel skips it.
        """
        out: List[Event] = []
        state_map = state.state_map
        combine, fold_in, identity = self.combine, self.fold_in, self.identity
        on_item = None
        if type(self).on_item is not OpKeyedUnordered.on_item:
            on_item = self.on_item

            def emit(key, value, _append=out.append, _new=tuple.__new__):
                _append(_new(KV, (key, value)))

        for event in events:
            if type(event) is Marker:
                self.seal(state, event, out)
                out.append(event)
                continue
            key, value = event
            record = state_map.get(key)
            if record is None:
                record = state_map[key] = _Record(identity(), state.start_state)
            if type(value) is CombinedAgg:
                record.agg = combine(record.agg, value.agg)
                continue
            if on_item is not None:
                on_item(record.state, key, value, emit)
            record.agg = combine(record.agg, fold_in(key, value))
        return out
