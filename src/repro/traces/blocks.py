"""Block representation of ``U(K, V)`` / ``O(K, V)`` traces.

For the Section 4 types, a data trace is isomorphic to a sequence of
*blocks* delimited by the linearly ordered markers:

- for ``U(K, V)`` each block is a **bag** of key-value pairs;
- for ``O(K, V)`` each block maps each key to a **sequence** of values
  (same-key order matters, cross-key order does not).

This representation makes equivalence checking linear instead of the
quadratic general normal form, so the runtime, the consistency checker,
and the experiment harness all compare stream outputs through
:class:`BlockTrace`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import TraceTypeError
from repro.traces.items import Item, is_marker, kv_item, marker
from repro.traces.trace_type import DataTraceType


class Block:
    """One marker-delimited segment of a keyed trace.

    ``closing_marker`` is the timestamp of the marker that ends the block,
    or ``None`` for the trailing (still open) block.
    """

    __slots__ = ("ordered", "_bag", "_seqs", "closing_marker")

    def __init__(self, ordered: bool, closing_marker: Optional[Any] = None):
        self.ordered = ordered
        self._bag: Counter = Counter()
        self._seqs: Dict[Any, List[Any]] = defaultdict(list)
        self.closing_marker = closing_marker

    def add(self, key: Any, value: Any) -> None:
        """Record one key-value pair in the block."""
        if self.ordered:
            self._seqs[key].append(value)
        else:
            self._bag[(key, value)] += 1

    def canonical(self):
        """A hashable canonical view of the block's contents."""
        if self.ordered:
            return tuple(
                sorted(
                    (repr(k), k, tuple(vs)) for k, vs in self._seqs.items() if vs
                )
            )
        return tuple(sorted(((repr(kv), kv, n) for kv, n in self._bag.items())))

    def pairs(self) -> List[Tuple[Any, Any]]:
        """All key-value pairs in the block, in a canonical order."""
        if self.ordered:
            result = []
            for _, key, values in self.canonical():
                result.extend((key, v) for v in values)
            return result
        result = []
        for _, (key, value), count in self.canonical():
            result.extend([(key, value)] * count)
        return result

    def size(self) -> int:
        if self.ordered:
            return sum(len(vs) for vs in self._seqs.values())
        return sum(self._bag.values())

    def copy(self) -> "Block":
        clone = Block(self.ordered, self.closing_marker)
        clone._bag = Counter(self._bag)
        clone._seqs = defaultdict(list, {k: list(v) for k, v in self._seqs.items()})
        return clone

    def merge_from(self, other: "Block") -> None:
        """Union the contents of ``other`` into this block (used by MRG)."""
        if self.ordered != other.ordered:
            raise TraceTypeError("cannot merge ordered and unordered blocks")
        if self.ordered:
            for key, values in other._seqs.items():
                self._seqs[key].extend(values)
        else:
            self._bag.update(other._bag)

    def __eq__(self, other):
        if not isinstance(other, Block):
            return NotImplemented
        return (
            self.ordered == other.ordered
            and self.closing_marker == other.closing_marker
            and self.canonical() == other.canonical()
        )

    def __hash__(self):
        return hash((self.ordered, self.closing_marker, self.canonical()))

    def __repr__(self):
        close = f" #{self.closing_marker}" if self.closing_marker is not None else ""
        return f"Block({self.pairs()!r}{close})"


class BlockTrace:
    """A keyed data trace as a sequence of blocks.

    Build incrementally with :meth:`add_pair` / :meth:`add_marker`, or at
    once from events (``(key, value)`` pairs and markers) with
    :meth:`from_events`, or from a formal item sequence with
    :meth:`from_items`.
    """

    def __init__(self, ordered: bool):
        self.ordered = ordered
        self.blocks: List[Block] = [Block(ordered)]

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @classmethod
    def from_events(cls, ordered: bool, events: Iterable[Any]) -> "BlockTrace":
        """Build from runtime ``KV``/``Marker`` events, :class:`Item`
        values, or ``(key, value)`` and ``("#", timestamp)`` tuples."""
        from repro.operators.base import KV as RuntimeKV, Marker as RuntimeMarker

        trace = cls(ordered)
        for event in events:
            if isinstance(event, RuntimeKV):
                trace.add_pair(event.key, event.value)
            elif isinstance(event, RuntimeMarker):
                trace.add_marker(event.timestamp)
            elif isinstance(event, Item):
                if is_marker(event):
                    trace.add_marker(event.value)
                else:
                    trace.add_pair(event.key, event.value)
            elif isinstance(event, tuple) and len(event) == 2 and event[0] == "#":
                trace.add_marker(event[1])
            else:
                key, value = event
                trace.add_pair(key, value)
        return trace

    @classmethod
    def from_items(cls, trace_type: DataTraceType, items: Sequence[Item]) -> "BlockTrace":
        """Build from a formal item sequence of a keyed trace type."""
        if not trace_type.keyed:
            raise TraceTypeError("BlockTrace requires a keyed (U/O) trace type")
        trace = cls(trace_type.ordered_per_key)
        for item in items:
            if is_marker(item):
                trace.add_marker(item.value)
            else:
                trace.add_pair(item.key, item.value)
        return trace

    def add_pair(self, key: Any, value: Any) -> None:
        """Append one key-value pair to the open block."""
        self.blocks[-1].add(key, value)

    def add_marker(self, timestamp: Any) -> None:
        """Close the open block with a marker and open a fresh block."""
        self.blocks[-1].closing_marker = timestamp
        self.blocks.append(Block(self.ordered))

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------

    def closed_blocks(self) -> List[Block]:
        """All marker-closed blocks (everything but the trailing block)."""
        return self.blocks[:-1]

    def open_block(self) -> Block:
        """The trailing, not-yet-closed block."""
        return self.blocks[-1]

    def num_markers(self) -> int:
        return len(self.blocks) - 1

    def total_pairs(self) -> int:
        return sum(block.size() for block in self.blocks)

    def canonical(self):
        """Hashable canonical view: per-block canonical contents, dropping
        nothing — two BlockTraces are trace-equivalent iff these agree."""
        return tuple(
            (block.canonical(), block.closing_marker) for block in self.blocks
        )

    def __eq__(self, other):
        if not isinstance(other, BlockTrace):
            return NotImplemented
        return self.ordered == other.ordered and self.canonical() == other.canonical()

    def __hash__(self):
        return hash((self.ordered, self.canonical()))

    def __repr__(self):
        return f"BlockTrace(ordered={self.ordered}, blocks={self.blocks!r})"

    # ------------------------------------------------------------------
    # Order and conversion.
    # ------------------------------------------------------------------

    def is_prefix_of(self, other: "BlockTrace") -> bool:
        """Prefix order on keyed traces, blockwise.

        ``u <= v`` iff every closed block of ``u`` equals the matching
        block of ``v`` and the open block of ``u`` is contained in the
        next block of ``v`` (bag containment for ``U``; per-key sequence
        prefix for ``O``).
        """
        if self.ordered != other.ordered:
            return False
        mine = self.blocks
        theirs = other.blocks
        if len(mine) > len(theirs):
            return False
        for i, block in enumerate(mine[:-1]):
            if block != theirs[i]:
                return False
        last = mine[-1]
        target = theirs[len(mine) - 1]
        if self.ordered:
            for key, values in last._seqs.items():
                target_values = target._seqs.get(key, [])
                if list(values) != list(target_values[: len(values)]):
                    return False
            return True
        return all(target._bag[kv] >= n for kv, n in last._bag.items())

    def to_items(self) -> List[Item]:
        """A representative formal item sequence of this trace."""
        result: List[Item] = []
        for block in self.blocks:
            for key, value in block.pairs():
                result.append(kv_item(key, value))
            if block.closing_marker is not None:
                result.append(marker(block.closing_marker))
        return result
