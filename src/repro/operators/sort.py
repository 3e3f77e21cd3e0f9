"""The between-marker sorting operator ``SORT`` (Section 4).

``SORT< : U(K, V) -> O(K, V)`` imposes, for every key separately, the
linear order ``<`` on the key-value pairs between consecutive markers.
It is the bridge from unordered to ordered streams: after parallel
stages reorder between-marker items arbitrarily, applying ``SORT``
immediately before an order-sensitive stage restores the per-key view
(the ``Sort-LI`` idea of Section 2 and the SORT stages of Figures 1/5).

Implementation: buffer each key's items of the current block; on a
marker, flush every key's buffer in canonical order, then forward the
marker.  The output is well-defined as an ``O(K, V)`` trace because the
flushed order depends only on the block's *bag* of items.  Items with
equal sort keys need *some* such tie order; it is the values' own order:

- each key's buffer is sorted once on ``(sort_key(v), v)`` with the
  natural comparison, and accepted if the result is a strict chain
  under ``<``, allowing adjacent pairs whose values have identical
  ``repr`` (exact duplicates, which emit the same bytes in either
  order);
- otherwise — a comparison raised (``str`` against ``int``), or two
  adjacent values are equal but not identical (``1``/``1.0``/``True``,
  ``0.0``/``-0.0``) or incomparable (NaN, sets ordered by inclusion) —
  that key's block falls back to sorting on ``(sort_key(v), repr(v))``.

Assumptions: ``<`` on the sort keys is a total order (the ``<`` of
``SORT<``), and ``<`` on ``(sort_key, value)`` pairs is a strict partial
order that raises ``TypeError`` where it is undefined and under which
values with identical ``repr`` compare alike; all of this holds for the
built-in types.  Under them a strict chain is the only arrangement of
its bag, so either path gives a function of the bag.
"""

from __future__ import annotations

from itertools import compress, islice
from operator import itemgetter, lt, not_
from typing import Any, Callable, Dict, List, Optional

from repro.operators.base import Event, Marker, Operator

_first = itemgetter(0)
_second = itemgetter(1)


class SortOp(Operator):
    """``SORT``: per-key, between-marker sorting by a value sort key.

    Parameters
    ----------
    sort_key:
        ``value -> comparable``; defaults to the identity (sort by the
        values themselves).  For timestamped values pass e.g.
        ``lambda v: v.ts``.  Items with equal sort keys come out in the
        values' natural order where that is a strict chain, and in
        ``repr`` order of the values otherwise (see the module
        docstring).
    """

    name = "SORT"
    input_kind = None  # accepts U (the common case) or O
    output_kind = "O"

    def __init__(self, sort_key: Optional[Callable[[Any], Any]] = None, name: str = ""):
        self.sort_key = sort_key or (lambda value: value)
        if name:
            self.name = name

    def initial_state(self) -> Dict[Any, List[Any]]:
        return {}

    def snapshot_state(self, state: Dict[Any, List[Any]]) -> Dict[Any, List[Any]]:
        # The buffers hold immutable KV events, so shallow list copies
        # are fully independent — no deep copy needed.
        return {key: list(buffered) for key, buffered in state.items()}

    def restore_state(self, snapshot: Dict[Any, List[Any]]) -> Dict[Any, List[Any]]:
        return {key: list(buffered) for key, buffered in snapshot.items()}

    def handle_batch(self, state: Dict[Any, List[Any]], events) -> List[Event]:
        """The kernel: buffer each item under its key; at a marker, flush
        every key's buffer in canonical order, then forward the marker.

        Buffering is insertion-order independent (the flush sorts), so
        any blocking of the input gives byte-identical output.
        """
        out: List[Event] = []
        buffer_of = state.get
        for event in events:
            if type(event) is Marker:
                self._flush(state, out)
                out.append(event)
            else:
                buffered = buffer_of(event[0])
                if buffered is None:
                    state[event[0]] = [event]
                else:
                    buffered.append(event)
        return out

    def _flush(self, state: Dict[Any, List[Any]], out: List[Event]) -> None:
        """Emit every key's buffered block in canonical order.

        The buffers hold the original (immutable) ``KV`` events, which
        are re-emitted as-is — ``SORT`` preserves every pair, so no new
        event objects are needed.
        """
        sort_key = self.sort_key
        for key in sorted(state, key=repr):
            buffered = state[key]
            if len(buffered) > 1:
                buffered = _canonical_order(buffered, sort_key)
            out.extend(buffered)
        state.clear()


def _canonical_order(buffered: List[Any], sort_key: Callable[[Any], Any]) -> List[Any]:
    """One key's buffered events, sorted by ``(sort_key(v), v)`` if that
    is a strict chain up to exact duplicates, else by
    ``(sort_key(v), repr(v))``.

    The events of one buffer have equal keys, so comparing
    ``(sort_key(v), event)`` pairs compares ``(sort_key(v), v)``.
    """
    ranked = list(zip(map(sort_key, map(_second, buffered)), buffered))
    try:
        ranked.sort()
        if all(map(lt, ranked, islice(ranked, 1, None))) or _ties_are_duplicates(ranked):
            return list(map(_second, ranked))
    except TypeError:
        # Incomparable values.  A failed sort leaves ``ranked`` permuted,
        # which the repr order below does not depend on.
        pass
    by_repr = [((primary, repr(event[1])), event) for primary, event in ranked]
    by_repr.sort(key=_first)
    return list(map(_second, by_repr))


def _ties_are_duplicates(ranked: List[Any]) -> bool:
    """Whether every adjacent pair of ``ranked`` that is not strictly
    increasing holds two values with identical ``repr``."""
    not_increasing = map(not_, map(lt, ranked, islice(ranked, 1, None)))
    return all(
        repr(ranked[i][1][1]) == repr(ranked[i + 1][1][1])
        for i in compress(range(len(ranked) - 1), not_increasing)
    )
