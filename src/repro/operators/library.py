"""A library of common streaming operators built from the Table 1 templates.

Everything here is expressed through :class:`OpStateless`,
:class:`OpKeyedOrdered`, or :class:`OpKeyedUnordered`, so each operator
inherits the template's consistency guarantee (Theorem 4.2).  These are
the building blocks the evaluation queries are assembled from:

- :func:`map_values`, :func:`filter_items`, :func:`rekey` — stateless
  per-item transforms.
- :class:`TumblingAggregate` — per-key aggregation over each
  between-marker block (Query V's tumbling windows; also the
  ``sumOp`` of Figure 2 with one-block windows).
- :class:`SlidingAggregate` — per-key aggregation over the last ``w``
  blocks, emitted at every marker (Query IV's 10-second windows with
  1-second markers).  It is the paper conclusion's specialized
  sliding-window template: it overrides only the template's marker step,
  with one loop that advances each key's two-stacks record of block
  aggregates.  :func:`sliding_window` and :func:`sliding_max` build it.
- :class:`RunningAggregate` — per-key aggregation over the entire
  history, emitted at every marker (Query III's whole-history
  summarization; the ``maxOfAvgPerID`` pattern of Table 2).
- :class:`TableJoin` — stateless stream-table join (the JFM stages).
- :class:`KeyedSequenceOp` — adapter turning a per-key function over
  ordered values into an ``OpKeyedOrdered``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.operators.base import KV, Event, Marker
from repro.operators.keyed_ordered import OpKeyedOrdered
from repro.operators.keyed_unordered import OpKeyedUnordered
from repro.operators.stateless import OpStateless, StatelessFn


# ----------------------------------------------------------------------
# Stateless transforms.
# ----------------------------------------------------------------------


class MapPairsFn(StatelessFn):
    """A :class:`StatelessFn` for exactly-one-output-pair functions.

    ``pair_fn(key, value)`` returns a single ``(key', value')`` pair.
    Semantically identical to ``StatelessFn(lambda k, v: [pair_fn(k, v)])``
    but its kernel maps the block with one call per event — no
    wrapper lambda, no one-element list per item.
    """

    def __init__(self, pair_fn: Callable[[Any, Any], Tuple[Any, Any]], name: str = ""):
        super().__init__(lambda k, v: [pair_fn(k, v)], name=name)
        self._pair_fn = pair_fn

    def handle_batch(self, state, events) -> List[Event]:
        cls = type(self)
        if (
            cls.on_marker is not OpStateless.on_marker
            or cls.on_item is not StatelessFn.on_item
        ):
            return super().handle_batch(state, events)
        fn = self._pair_fn
        out: List[Event] = []
        append = out.append
        tuple_new = tuple.__new__
        for event in events:
            if type(event) is Marker:
                append(event)
            else:
                append(tuple_new(KV, fn(event[0], event[1])))
        return out


def map_values(fn: Callable[[Any], Any], name: str = "map") -> OpStateless:
    """Apply ``fn`` to every value, keeping keys."""
    return MapPairsFn(lambda k, v: (k, fn(v)), name=name)


def map_pairs(fn: Callable[[Any, Any], Tuple[Any, Any]], name: str = "map") -> OpStateless:
    """Apply ``fn(key, value) -> (key', value')`` to every pair."""
    return MapPairsFn(fn, name=name)


def filter_items(predicate: Callable[[Any, Any], bool], name: str = "filter") -> OpStateless:
    """Keep only pairs satisfying ``predicate(key, value)``."""
    return StatelessFn(lambda k, v: [(k, v)] if predicate(k, v) else [], name=name)


def rekey(key_fn: Callable[[Any, Any], Any], name: str = "rekey") -> OpStateless:
    """Replace each pair's key with ``key_fn(key, value)``."""
    return MapPairsFn(lambda k, v: (key_fn(k, v), v), name=name)


def flat_map(fn: Callable[[Any, Any], Iterable[Tuple[Any, Any]]], name: str = "flatMap") -> OpStateless:
    """Emit zero or more output pairs per input pair."""
    return StatelessFn(lambda k, v: list(fn(k, v)), name=name)


class TableJoin(OpStateless):
    """Stateless stream-table join: enrich each pair via a lookup.

    ``lookup(key, value)`` returns an iterable of output pairs (empty to
    drop the item — join-filter-map in one stage, as in the JFM vertices
    of Example 4.1 and Figure 5).
    """

    def __init__(
        self,
        lookup: Callable[[Any, Any], Iterable[Tuple[Any, Any]]],
        name: str = "JFM",
    ):
        self._lookup = lookup
        self.name = name

    def on_item(self, key, value, emit):
        for out_key, out_value in self._lookup(key, value):
            emit(out_key, out_value)

    def handle_batch(self, state, events) -> List[Event]:
        # The kernel calls the lookup directly per event and appends its
        # pairs, skipping the on_item/emit dispatch layer.  A subclass
        # that customizes the hooks gets the generic OpStateless kernel.
        cls = type(self)
        if (
            cls.on_marker is not OpStateless.on_marker
            or cls.on_item is not TableJoin.on_item
        ):
            return super().handle_batch(state, events)
        lookup = self._lookup
        out: List[Event] = []
        append = out.append
        tuple_new = tuple.__new__
        for event in events:
            if type(event) is Marker:
                append(event)
            else:
                for pair in lookup(event[0], event[1]):
                    append(tuple_new(KV, pair))
        return out


# ----------------------------------------------------------------------
# Keyed unordered aggregation.
# ----------------------------------------------------------------------


class TumblingAggregate(OpKeyedUnordered):
    """Per-key aggregate of each between-marker block, emitted per marker.

    Parameters
    ----------
    inject: ``(key, value) -> A``
    identity_elem: the monoid identity of ``A``
    combine_fn: associative commutative ``(A, A) -> A``
    finish: ``(key, A, marker_ts) -> output value`` or ``None`` to skip
        emission for a block (e.g. skip empty blocks).
    emit_empty: whether blocks with no items for a key still emit.
    """

    def __init__(
        self,
        inject: Callable[[Any, Any], Any],
        identity_elem: Any,
        combine_fn: Callable[[Any, Any], Any],
        finish: Callable[[Any, Any, Any], Any],
        emit_empty: bool = False,
        name: str = "tumbling",
    ):
        self._inject = inject
        self._identity = identity_elem
        self._combine = combine_fn
        self._finish = finish
        self._emit_empty = emit_empty
        self.name = name

    def fold_in(self, key, value):
        return self._inject(key, value)

    def identity(self):
        return self._identity

    def combine(self, x, y):
        return self._combine(x, y)

    def init(self):
        # State is the last block's aggregate (or None before any marker).
        return None

    def update_state(self, old_state, agg):
        return agg

    def on_marker(self, new_state, key, m: Marker, emit):
        if new_state == self._identity and not self._emit_empty:
            return
        result = self._finish(key, new_state, m.timestamp)
        if result is not None:
            emit(key, result)


class RunningAggregate(OpKeyedUnordered):
    """Per-key aggregate over the whole history, emitted at every marker.

    ``finish(key, acc, marker_ts)`` maps the accumulated monoid value to
    the emitted output value (or ``None`` to suppress emission).
    """

    def __init__(
        self,
        inject: Callable[[Any, Any], Any],
        identity_elem: Any,
        combine_fn: Callable[[Any, Any], Any],
        finish: Callable[[Any, Any, Any], Any],
        name: str = "running",
    ):
        self._inject = inject
        self._identity = identity_elem
        self._combine = combine_fn
        self._finish = finish
        self.name = name

    def fold_in(self, key, value):
        return self._inject(key, value)

    def identity(self):
        return self._identity

    def combine(self, x, y):
        return self._combine(x, y)

    def init(self):
        return self._identity

    def update_state(self, old_state, agg):
        return self._combine(old_state, agg)

    def on_marker(self, new_state, key, m: Marker, emit):
        result = self._finish(key, new_state, m.timestamp)
        if result is not None:
            emit(key, result)


class _TwoStacks:
    """One key's window of block aggregates, as two stacks.

    ``front`` holds suffix aggregates of the older blocks (its top
    aggregates the whole front, oldest block first); ``back`` holds the
    younger blocks' values and ``back_agg`` their running aggregate.
    """

    __slots__ = ("front", "back", "back_agg")

    def __init__(self, identity: Any):
        self.front: List[Any] = []
        self.back: List[Any] = []
        self.back_agg = identity


def _pass_through(key, agg, timestamp):
    return agg


class SlidingAggregate(OpKeyedUnordered):
    """Per-key aggregate over the last ``window`` blocks, per marker.

    With 1-second markers and ``window=10`` this is exactly Query IV's
    "views in the last 10 seconds, updated every second".  The marker
    step is one fused kernel (:meth:`seal`): each key's state is a
    two-stacks record of its block aggregates, so advancing a window
    costs amortized three ``combine`` calls and no template-hook
    dispatch.  Regrouping the window's fold that way is licensed by the
    monoid's associativity, so any associative ``combine`` works,
    invertible or not (``max`` too).  A key first seen late starts from
    an empty window rather than one of identity blocks; by the identity
    law both fold to the same aggregate.  The two-stacks steps are
    inlined: an earlier separate two-stacks aggregator class, called
    through its methods, made Query IV's ``Count10s`` blocks 1.34x
    slower than this loop.

    ``finish(key, agg, marker_ts)`` maps the window aggregate to the
    emitted value (``None`` skips the emission); without one the
    aggregate itself is emitted.  A subclass may override the
    ``fold_in`` / ``identity`` / ``combine`` / ``finish`` hooks instead;
    the marker step then calls the overrides too.  The fused step never
    calls ``init`` / ``update_state`` / ``on_marker``, so a subclass that
    overrides one of those must also override ``seal`` (a ``TypeError``
    at class creation otherwise).
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.seal is not SlidingAggregate.seal:
            return
        for hook in ("init", "update_state", "on_marker"):
            if getattr(cls, hook) is not getattr(SlidingAggregate, hook):
                raise TypeError(
                    f"{cls.__name__} overrides {hook}(), which "
                    "SlidingAggregate.seal never calls; override seal too"
                )

    def __init__(
        self,
        window: int,
        inject: Callable[[Any, Any], Any],
        identity_elem: Any,
        combine_fn: Callable[[Any, Any], Any],
        finish: Optional[Callable[[Any, Any, Any], Any]] = None,
        emit_empty: bool = False,
        name: str = "sliding",
    ):
        if window < 1:
            raise ValueError("window must be at least one block")
        self._window = window
        self._inject = inject
        self._identity = identity_elem
        self._combine = combine_fn
        self._finish = _pass_through if finish is None else finish
        self._emit_empty = emit_empty
        self.name = name

    def fold_in(self, key, value):
        return self._inject(key, value)

    def identity(self):
        return self._identity

    def combine(self, x, y):
        return self._combine(x, y)

    def finish(self, key, agg, timestamp):
        return self._finish(key, agg, timestamp)

    def init(self):
        return None  # a key's two-stacks record is made at its first seal

    def seal(self, state, m: Marker, out: List[Event]) -> None:
        """Push each key's block aggregate, evict past ``window``, emit."""
        # Resolve the hooks once per marker: the constructor's functions
        # unless a subclass overrides a hook, as the item path sees them.
        cls = type(self)
        combine = (
            self._combine if cls.combine is SlidingAggregate.combine
            else self.combine
        )
        finish = (
            self._finish if cls.finish is SlidingAggregate.finish
            else self.finish
        )
        window, identity = self._window, self.identity()
        emit_empty, timestamp = self._emit_empty, m.timestamp
        append, new = out.append, tuple.__new__
        for key, record in state.state_map.items():
            stacks = record.state
            if stacks is None:
                stacks = record.state = _TwoStacks(identity)
            front, back = stacks.front, stacks.back
            agg = record.agg
            record.agg = identity
            back.append(agg)
            back_agg = combine(stacks.back_agg, agg)
            if len(front) + len(back) > window:
                if not front:  # flip: the oldest block ends on top
                    acc = identity
                    for value in reversed(back):
                        acc = combine(value, acc)
                        front.append(acc)
                    back.clear()
                    back_agg = identity
                front.pop()
            stacks.back_agg = back_agg
            acc = combine(front[-1], back_agg) if front else back_agg
            if acc == identity and not emit_empty:
                continue
            result = finish(key, acc, timestamp)
            if result is not None:
                append(new(KV, (key, result)))


def tumbling_count(name: str = "count") -> TumblingAggregate:
    """Per-key count of items in each block."""
    return TumblingAggregate(
        inject=lambda k, v: 1,
        identity_elem=0,
        combine_fn=lambda x, y: x + y,
        finish=lambda key, total, ts: total,
        name=name,
    )


def sliding_count(window: int, name: str = "count") -> SlidingAggregate:
    """Per-key count of items over the last ``window`` blocks."""
    return SlidingAggregate(
        window=window,
        inject=lambda k, v: 1,
        identity_elem=0,
        combine_fn=lambda x, y: x + y,
        finish=lambda key, total, ts: total,
        name=name,
    )


def sliding_window(
    window: int,
    inject: Callable[[Any, Any], Any],
    identity_elem: Any,
    combine_fn: Callable[[Any, Any], Any],
    finish: Optional[Callable[[Any, Any, Any], Any]] = None,
    name: str = "slidingWindow",
) -> SlidingAggregate:
    """Per-key fold of the last ``window`` blocks (see :class:`SlidingAggregate`)."""
    return SlidingAggregate(window, inject, identity_elem, combine_fn, finish, name=name)


def _max_or_none(x, y):
    return y if x is None else (x if y is None else max(x, y))


def sliding_max(window: int, name: str = "slidingMax") -> SlidingAggregate:
    """Per-key max over the last ``window`` blocks, with ``None`` as the
    identity: max has no inverse, yet the window still advances in
    amortized O(1)."""
    return SlidingAggregate(window, lambda k, v: v, None, _max_or_none, name=name)


class MaxOfAvgPerKey(OpKeyedUnordered):
    """Table 2's ``maxOfAvgPerID``, verbatim.

    Per key: average the values of each between-marker block (the
    ``AvgPair`` monoid of sums and counts), keep the running maximum of
    those averages as the state, and emit it at every marker with the
    paper's ``m.timestamp - 1`` stamping.
    """

    name = "maxOfAvgPerID"

    def fold_in(self, key, value):
        return (float(value), 1)          # AvgPair in(...)

    def identity(self):
        return (0.0, 0)                   # AvgPair id()

    def combine(self, x, y):
        return (x[0] + y[0], x[1] + y[1])  # componentwise sum

    def init(self):
        return float("-inf")              # initialState()

    def update_state(self, old_state, agg):
        total, count = agg
        if count == 0:
            return old_state              # empty block: average undefined
        return max(old_state, total / count)

    def on_marker(self, new_state, key, m: Marker, emit):
        if new_state != float("-inf"):
            emit(key, (new_state, m.timestamp - 1))


class Sessionize(OpKeyedOrdered):
    """Per-key session windows over timestamped values.

    Values are ``(payload, ts)`` pairs in per-key timestamp order (an
    ``O`` stream — put ``SORT`` in front).  A gap larger than
    ``gap`` closes the session; the operator then emits
    ``(start_ts, end_ts, [payloads])``.  The final open session is
    flushed by the watermark: a marker whose timestamp exceeds the last
    event by more than ``gap`` proves the session cannot grow.
    """

    name = "sessionize"

    def __init__(self, gap: int, name: str = "sessionize"):
        if gap < 1:
            raise ValueError("session gap must be positive")
        self._gap = gap
        self.name = name

    def init(self):
        return None  # or (start_ts, last_ts, [payloads])

    def on_item(self, state, key, value, emit):
        payload, ts = value
        if state is None:
            return (ts, ts, [payload])
        start, last, payloads = state
        if ts - last > self._gap:
            emit(key, (start, last, tuple(payloads)))
            return (ts, ts, [payload])
        return (start, max(last, ts), payloads + [payload])

    def on_marker(self, state, key, m: Marker, emit):
        if state is None:
            return None
        start, last, payloads = state
        if m.timestamp - last > self._gap:
            emit(key, (start, last, tuple(payloads)))
            return None
        return state


# ----------------------------------------------------------------------
# Keyed ordered adapter.
# ----------------------------------------------------------------------


class KeyedSequenceOp(OpKeyedOrdered):
    """Adapter: build an ``OpKeyedOrdered`` from a per-key step function.

    ``step(state, value) -> (new_state, [output values])`` is called for
    each value of a key in order; outputs keep the key (the template's
    restriction).  ``marker_step(state, ts) -> (new_state, [outputs])`` is
    optional.
    """

    def __init__(
        self,
        initial: Callable[[], Any],
        step: Callable[[Any, Any], Tuple[Any, List[Any]]],
        marker_step: Optional[Callable[[Any, Any], Tuple[Any, List[Any]]]] = None,
        name: str = "keyedSeq",
    ):
        self._initial = initial
        self._step = step
        self._marker_step = marker_step
        self.name = name

    def init(self):
        return self._initial()

    def on_item(self, state, key, value, emit):
        new_state, outputs = self._step(state, value)
        for out in outputs:
            emit(key, out)
        return new_state

    def on_marker(self, state, key, m: Marker, emit):
        if self._marker_step is None:
            return state
        new_state, outputs = self._marker_step(state, m.timestamp)
        for out in outputs:
            emit(key, out)
        return new_state
