"""The ``OpStateless`` template (Table 1): ``U(K, V) -> U(L, W)``.

Only the current event — never the input history — determines the output.
The programmer overrides :meth:`OpStateless.on_item` and (optionally)
:meth:`OpStateless.on_marker`; both may emit output key-value pairs via
the supplied emitter and nothing else.  Because there is no state, any
interleaving of between-marker items yields the same bag of outputs per
block, which is exactly (U, U)-consistency.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.operators.base import KV, Event, Marker, Operator


class OpStateless(Operator):
    """Stateless transduction ``U(K, V) -> U(L, W)``.

    Override :meth:`on_item` (required) and :meth:`on_marker` (optional —
    stateless marker output is rarely meaningful but the template allows
    it, e.g. for heartbeat enrichment).  The runtime forwards each marker
    downstream after :meth:`on_marker` returns.
    """

    input_kind = "U"
    output_kind = "U"

    def on_item(self, key: Any, value: Any, emit: Callable[[Any, Any], None]) -> None:
        """Process one key-value pair; emit any number of output pairs."""
        raise NotImplementedError

    def on_marker(self, m: Marker, emit: Callable[[Any, Any], None]) -> None:
        """Process one marker (output only; the marker itself is forwarded
        automatically)."""

    def handle_batch(self, state: None, events) -> List[Event]:
        # The kernel maps the block in one loop, emitting straight into
        # the output list; output order is input order, so this is safe
        # for any input kind.
        out: List[Event] = []

        def emit(key, value, _append=out.append, _new=tuple.__new__):
            _append(_new(KV, (key, value)))

        on_item = self.on_item
        for event in events:
            if type(event) is Marker:
                self.on_marker(event, emit)
                out.append(event)
            else:
                on_item(event.key, event.value, emit)
        return out


class StatelessFn(OpStateless):
    """Adapter: build an ``OpStateless`` from a plain function.

    ``fn(key, value)`` returns an iterable of output ``(key, value)``
    pairs (or ``None`` for no output).  Convenient for map/filter stages:

    >>> double = StatelessFn(lambda k, v: [(k, 2 * v)], name="double")
    """

    def __init__(self, fn: Callable[[Any, Any], Optional[Any]], name: str = ""):
        self._fn = fn
        self.name = name or "StatelessFn"

    def on_item(self, key, value, emit):
        result = self._fn(key, value)
        if result is None:
            return
        for out_key, out_value in result:
            emit(out_key, out_value)

    def handle_batch(self, state: None, events) -> List[Event]:
        # The adapter's shape is fully known (a pure pair-list function,
        # no marker hook), so the kernel calls the function directly and
        # skips the on_item/emit dispatch per event.  A subclass that
        # overrides on_marker or on_item gets the generic OpStateless
        # kernel.
        cls = type(self)
        if (
            cls.on_marker is not OpStateless.on_marker
            or cls.on_item is not StatelessFn.on_item
        ):
            return super().handle_batch(state, events)
        fn = self._fn
        out: List[Event] = []
        append = out.append
        tuple_new = tuple.__new__
        for event in events:
            if type(event) is Marker:
                append(event)
                continue
            key, value = event
            result = fn(key, value)
            if result is not None:
                for pair in result:
                    append(tuple_new(KV, pair))
        return out
