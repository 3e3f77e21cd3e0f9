"""The between-marker sorting operator ``SORT`` (Section 4).

``SORT< : U(K, V) -> O(K, V)`` imposes, for every key separately, the
linear order ``<`` on the key-value pairs between consecutive markers.
It is the bridge from unordered to ordered streams: after parallel
stages reorder between-marker items arbitrarily, applying ``SORT``
immediately before an order-sensitive stage restores the per-key view
(the ``Sort-LI`` idea of Section 2 and the SORT stages of Figures 1/5).

Implementation: buffer each key's items of the current block; on a
marker, flush every key's buffer in sorted order, then forward the
marker.  The output is well-defined as an ``O(K, V)`` trace because the
flushed order depends only on the block's *bag* of items (ties broken by
the stable sort on the full sort key).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional

from repro.operators.base import Event, KV, Marker, Operator


class SortOp(Operator):
    """``SORT``: per-key, between-marker sorting by a value sort key.

    Parameters
    ----------
    sort_key:
        ``value -> comparable``; defaults to the identity (sort by the
        values themselves).  For timestamped values pass e.g.
        ``lambda v: v.ts``; to guarantee a canonical order under
        duplicate sort keys the full value is appended as a ``repr``
        tiebreak.
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
        setdefault = state.setdefault
        for event in events:
            if type(event) is Marker:
                self._flush(state, out)
                out.append(event)
            else:
                setdefault(event[0], []).append(event)
        return out

    def _flush(self, state: Dict[Any, List[Any]], out: List[Event]) -> None:
        """Emit every key's buffered block in canonical sorted order.

        The buffers hold the original (immutable) ``KV`` events, which
        are re-emitted as-is — ``SORT`` preserves every pair, so no new
        event objects are needed.  Sorting is two-phase: a stable sort
        on the declared sort key of each event's value, then a ``repr``
        tiebreak applied only to runs of equal sort keys.  The result is
        exactly a sort by ``(sort_key(v), repr(v))``, but the
        (expensive) ``repr`` is computed only for actual ties instead of
        for every value.
        """
        sort_key = self.sort_key
        for key in sorted(state, key=repr):
            buffered = state[key]
            if len(buffered) > 1:
                decorated = [(sort_key(ev[1]), ev) for ev in buffered]
                decorated.sort(key=_primary)
                buffered = _resolve_ties(decorated)
            out.extend(buffered)
        state.clear()

    def _cmp(self, value: Any):
        """The canonical comparison key (kept for reference/tests; the
        flush computes the same order lazily via :func:`_resolve_ties`)."""
        return (self.sort_key(value), repr(value))


#: Sort key selecting the decorated pair's sort-key slot (C-level;
#: ``list.sort`` calls it once per element).
_primary = itemgetter(0)


def _value_repr(event) -> str:
    """Tiebreak key: ``repr`` of the event's value slot."""
    return repr(event[1])


def _resolve_ties(decorated: List[Any]) -> List[Any]:
    """Undecorate a ``(sort_key, event)`` list sorted by sort key,
    canonicalizing runs of equal sort keys by ``repr`` of the value."""
    result: List[Any] = []
    i, n = 0, len(decorated)
    while i < n:
        primary = decorated[i][0]
        j = i + 1
        while j < n and decorated[j][0] == primary:
            j += 1
        if j - i == 1:
            result.append(decorated[i][1])
        else:
            run = [event for _, event in decorated[i:j]]
            run.sort(key=_value_repr)
            result.extend(run)
        i = j
    return result
