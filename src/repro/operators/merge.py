"""Marker-aligned merge ``MRG`` (Section 4).

``MRG`` combines several input channels into one by aligning them on
synchronization markers and taking the union of the key-value pairs in
corresponding blocks.  Two typed variants exist (the paper does not
distinguish them notationally and neither do we):

- ``U(K,V) x ... x U(K,V) -> U(K,V)`` — unordered channels, same keys;
- ``O(K1,V) x ... x O(Kn,V) -> O(K1+..+Kn, V)`` — ordered channels with
  pairwise disjoint key sets.

Runtime behaviour: items from a channel still inside the *current* output
block pass through immediately; items from a channel that has already
crossed a marker the merge has not yet emitted are buffered per block.
The k-th output marker is emitted once every channel has delivered its
k-th marker, at which point the buffered items of the next block are
flushed.  This keeps block contents exactly the blockwise unions, which
is what makes the Theorem 4.3 equations hold.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Tuple

from repro.errors import SimulationError
from repro.operators.base import KV, Event, Marker


class _MergeState:
    __slots__ = ("blocks_ahead", "pending", "marker_timestamps",
                 "emitted_markers", "last_emitted_ts")

    def __init__(self, n_inputs: int):
        # How many un-emitted markers each channel has delivered.
        self.blocks_ahead: List[int] = [0] * n_inputs
        # pending[c] = queue of buffered future blocks for channel c; each
        # entry is the list of items of one complete-or-partial block.
        self.pending: List[Deque[List[KV]]] = [deque() for _ in range(n_inputs)]
        # Timestamps of markers delivered but not yet emitted, per channel.
        self.marker_timestamps: List[Deque[Any]] = [deque() for _ in range(n_inputs)]
        self.emitted_markers: int = 0
        # Timestamp of the newest emitted (aligned) marker — the
        # operator's watermark: everything at or before it is sealed.
        self.last_emitted_ts: Any = None


class Merge:
    """Marker-aligned merge of ``n_inputs`` channels (``MRG``)."""

    name = "MRG"

    def __init__(self, n_inputs: int, name: str = ""):
        if n_inputs < 1:
            raise ValueError("Merge requires at least one input channel")
        self.n_inputs = n_inputs
        if name:
            self.name = name

    def initial_state(self) -> _MergeState:
        return _MergeState(self.n_inputs)

    def handle(self, state: _MergeState, channel: int, event: Event) -> List[Event]:
        """Consume one event from ``channel``; return merged output events."""
        return self.handle_batch(state, channel, [event])

    def handle_batch(
        self, state: _MergeState, channel: int, events: List[Event]
    ) -> List[Event]:
        """Consume a block of events from ``channel``; return merged
        output events.

        An item passes straight through while its channel is inside the
        current output block, else it joins the channel's open buffered
        block; a marker opens a new buffered block and emits every
        output marker that all channels have now reached.  Alignment
        does not depend on how the deliveries are blocked.
        """
        if not 0 <= channel < self.n_inputs:
            raise SimulationError(f"merge channel {channel} out of range")
        out: List[Event] = []
        blocks_ahead, pending = state.blocks_ahead, state.pending[channel]
        for event in events:
            if type(event) is Marker:
                blocks_ahead[channel] += 1
                state.marker_timestamps[channel].append(event.timestamp)
                pending.append([])
                self._drain_ready(state, out)
            elif blocks_ahead[channel] == 0:
                out.append(event)
            else:
                pending[-1].append(event)
        return out

    def snapshot_state(self, state: _MergeState) -> Any:
        """Full-fidelity copy of the alignment state.

        Items are immutable events, so per-block shallow list copies
        suffice; the deques are rebuilt on restore.
        """
        return (
            list(state.blocks_ahead),
            [[list(block) for block in queue] for queue in state.pending],
            [list(queue) for queue in state.marker_timestamps],
            state.emitted_markers,
            state.last_emitted_ts,
        )

    def restore_state(self, snapshot: Any) -> _MergeState:
        blocks_ahead, pending, marker_timestamps, emitted, last_ts = snapshot
        state = _MergeState(self.n_inputs)
        state.blocks_ahead = list(blocks_ahead)
        state.pending = [
            deque(list(block) for block in queue) for queue in pending
        ]
        state.marker_timestamps = [deque(queue) for queue in marker_timestamps]
        state.emitted_markers = emitted
        state.last_emitted_ts = last_ts
        return state

    def _drain_ready(self, state: _MergeState, out: List[Event]) -> None:
        """Emit markers (and flush buffered blocks) while every channel is
        at least one marker ahead of the output."""
        while all(ahead > 0 for ahead in state.blocks_ahead):
            timestamps = [state.marker_timestamps[c].popleft() for c in range(self.n_inputs)]
            first = timestamps[0]
            if any(ts != first for ts in timestamps):
                raise SimulationError(
                    f"misaligned marker timestamps across merge inputs: {timestamps}"
                )
            out.append(Marker(first))
            state.emitted_markers += 1
            state.last_emitted_ts = first
            for c in range(self.n_inputs):
                state.blocks_ahead[c] -= 1
                # The flushed block's items belong to the block the output
                # has just entered, so they are emitted immediately.
                out.extend(state.pending[c].popleft())

    def label(self) -> str:
        return self.name

    def __repr__(self):
        return f"<{self.name} x{self.n_inputs}>"
