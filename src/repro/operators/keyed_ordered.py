"""The ``OpKeyedOrdered`` template (Table 1): ``O(K, V) -> O(K, W)``.

A stateful computation per key, order-dependent within each key.  The
programmer overrides:

- :meth:`OpKeyedOrdered.init` — the initial per-key state;
- :meth:`OpKeyedOrdered.on_item` — consume one value for a key, emit
  output pairs, and return the new state;
- :meth:`OpKeyedOrdered.on_marker` — per-key marker handling, returning
  the new state.

**Restriction (enforced):** every emission must preserve the input key;
otherwise the output could not be viewed as per-key ordered (the paper's
explicit restriction in Table 1).  Violations raise
:class:`~repro.errors.TraceTypeError`.

Consistency: same-key items are processed in arrival order (which the
``O`` input type fixes), different keys touch disjoint state and emit
under different (independent) output tags, so equivalent inputs give
equivalent outputs.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List

from repro.errors import TraceTypeError
from repro.operators.base import KV, Emitter, Event, Marker, Operator


class _KeyedOrderedState:
    """Runtime state: per-key user states plus the set of seen keys."""

    __slots__ = ("per_key", "emitter")

    def __init__(self):
        self.per_key: Dict[Any, Any] = {}
        self.emitter = Emitter()


class OpKeyedOrdered(Operator):
    """Per-key ordered stateful transduction ``O(K, V) -> O(K, W)``."""

    input_kind = "O"
    output_kind = "O"

    def init(self) -> Any:
        """The state a key starts with when first seen."""
        raise NotImplementedError

    def on_item(
        self, state: Any, key: Any, value: Any, emit: Callable[[Any, Any], None]
    ) -> Any:
        """Consume one value for ``key``; return the key's new state."""
        raise NotImplementedError

    def on_marker(
        self, state: Any, key: Any, m: Marker, emit: Callable[[Any, Any], None]
    ) -> Any:
        """Per-key marker handling; return the key's new state.

        Default: state unchanged, no output (the common case, e.g.
        ``linearInterpolation`` in Table 2).
        """
        return state

    # ------------------------------------------------------------------

    def initial_state(self) -> _KeyedOrderedState:
        return _KeyedOrderedState()

    def copy_state(self, state: Any) -> Any:
        """Independent copy of one key's user state, for checkpointing.

        User states may be arbitrary, so the default deep-copies.
        Subclasses whose state is a known shallow structure (a list of
        scalars, a deque of immutable tuples) should override this with
        the cheap structural copy — it runs once per key per epoch
        snapshot, which makes it the checkpointing hot path.
        """
        return copy.deepcopy(state)

    def snapshot_state(self, state: _KeyedOrderedState) -> Any:
        # The emitter is drained between invocations; only per_key is
        # durable.
        cp = self.copy_state
        return {key: cp(v) for key, v in state.per_key.items()}

    def restore_state(self, snapshot: Any) -> _KeyedOrderedState:
        state = _KeyedOrderedState()
        cp = self.copy_state
        state.per_key = {key: cp(v) for key, v in snapshot.items()}
        return state

    def handle(self, state: _KeyedOrderedState, event: Event) -> List[Event]:
        if isinstance(event, Marker):
            for key in list(state.per_key):
                guarded = _KeyGuardedEmit(state.emitter, key)
                state.per_key[key] = self.on_marker(
                    state.per_key[key], key, event, guarded.emit
                )
            out: List[Event] = list(state.emitter.drain())
            out.append(event)
            return out
        key = event.key
        if key not in state.per_key:
            state.per_key[key] = self.init()
        guarded = _KeyGuardedEmit(state.emitter, key)
        state.per_key[key] = self.on_item(
            state.per_key[key], key, event.value, guarded.emit
        )
        return list(state.emitter.drain())

    def handle_batch(self, state: _KeyedOrderedState, events) -> List[Event]:
        """Epoch kernel: group each between-marker run by key once.

        Per-key arrival order is preserved (the ``O`` type's only
        obligation); grouping reorders items *across* keys, which the
        per-key-ordered output type declares invisible.  Each key then
        pays one state probe and one guarded-emit wrapper per block
        instead of one per item, then folds :meth:`on_item` over its
        values in arrival order.
        """
        out: List[Event] = []
        append = out.append
        per_key = state.per_key
        on_item = self.on_item
        # The default on_marker keeps state and emits nothing, so the
        # per-key marker loop is a no-op the kernel can skip outright.
        on_marker_active = type(self).on_marker is not OpKeyedOrdered.on_marker
        i, n = 0, len(events)
        while i < n:
            event = events[i]
            if type(event) is Marker:
                if on_marker_active:
                    for key in list(per_key):
                        per_key[key] = self.on_marker(
                            per_key[key], key, event, _guarded_append(append, key)
                        )
                append(event)
                i += 1
                continue
            j = i
            while j < n and type(events[j]) is not Marker:
                j += 1
            groups: Dict[Any, List[Any]] = {}
            setdefault = groups.setdefault
            for key, value in events[i:j]:
                setdefault(key, []).append(value)
            i = j
            for key, values in groups.items():
                key_state = per_key[key] if key in per_key else self.init()
                emit = _guarded_append(append, key)
                for value in values:
                    key_state = on_item(key_state, key, value, emit)
                per_key[key] = key_state
        return out


def _guarded_append(append, key):
    """Key-guarded emit writing straight into an output list.

    The batch kernel's replacement for ``_KeyGuardedEmit`` + the state
    emitter: same key-preservation enforcement, one call layer instead
    of two, no intermediate buffer to drain."""

    def emit(k, v, _key=key, _append=append, _new=tuple.__new__):
        if k != _key:
            raise TraceTypeError(
                "OpKeyedOrdered must preserve the input key: "
                f"got emit({k!r}, ...) while processing key {_key!r}"
            )
        _append(_new(KV, (k, v)))

    return emit


class _KeyGuardedEmit:
    """Emit wrapper enforcing the key-preservation restriction."""

    __slots__ = ("_emitter", "_key")

    def __init__(self, emitter: Emitter, key: Any):
        self._emitter = emitter
        self._key = key

    def emit(self, key: Any, value: Any) -> None:
        if key != self._key:
            raise TraceTypeError(
                "OpKeyedOrdered must preserve the input key: "
                f"got emit({key!r}, ...) while processing key {self._key!r}"
            )
        self._emitter.emit(key, value)
