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
from repro.operators.base import KV, Event, Marker, Operator


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

    def initial_state(self) -> Dict[Any, Any]:
        # The runtime state: each seen key's user state.
        return {}

    def copy_state(self, state: Any) -> Any:
        """Independent copy of one key's user state, for checkpointing.

        User states may be arbitrary, so the default deep-copies.
        Subclasses whose state is a known shallow structure (a list of
        scalars, a deque of immutable tuples) should override this with
        the cheap structural copy — it runs once per key per epoch
        snapshot, which makes it the checkpointing hot path.
        """
        return copy.deepcopy(state)

    def snapshot_state(self, state: Dict[Any, Any]) -> Any:
        cp = self.copy_state
        return {key: cp(v) for key, v in state.items()}

    def restore_state(self, snapshot: Any) -> Dict[Any, Any]:
        cp = self.copy_state
        return {key: cp(v) for key, v in snapshot.items()}

    def handle_batch(self, state: Dict[Any, Any], events) -> List[Event]:
        """The kernel: fold each item into its key's state, in arrival
        order.

        One ``emit`` serves the whole block: it enforces key
        preservation against a cell holding the key being processed, and
        appends straight to the output list.
        """
        out: List[Event] = []
        append = out.append
        on_item, init = self.on_item, self.init
        current = [None]

        def emit(k, v, _current=current, _append=append, _new=tuple.__new__):
            if k != _current[0]:
                raise TraceTypeError(
                    "OpKeyedOrdered must preserve the input key: "
                    f"got emit({k!r}, ...) while processing key {_current[0]!r}"
                )
            _append(_new(KV, (k, v)))

        # The default on_marker keeps state and emits nothing, so the
        # per-key marker loop is a no-op the kernel can skip outright.
        on_marker_active = type(self).on_marker is not OpKeyedOrdered.on_marker
        for event in events:
            if type(event) is Marker:
                if on_marker_active:
                    for key in list(state):
                        current[0] = key
                        state[key] = self.on_marker(state[key], key, event, emit)
                append(event)
                continue
            key, value = event
            current[0] = key
            state[key] = on_item(
                state[key] if key in state else init(), key, value, emit
            )
        return out
