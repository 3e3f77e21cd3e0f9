"""The specialized sliding-window template (the conclusion's proposed
template extension): ``sliding_window`` / ``sliding_max`` build
``library.SlidingAggregate``, checked against the left-fold oracle."""

import random

import pytest
from hypothesis import given, settings

from repro.operators.base import KV, Marker
from repro.operators.library import (
    SlidingAggregate,
    sliding_count,
    sliding_max,
    sliding_window,
)
from repro.traces.blocks import BlockTrace

from conftest import event_streams, shuffle_within_blocks
from test_sliding_kernel import LeftFoldSliding


def kvs(out):
    return [e for e in out if isinstance(e, KV)]


def block_stream(values):
    """One item of key ``"k"`` per block."""
    stream = []
    for block, value in enumerate(values, start=1):
        stream += [KV("k", value), Marker(block)]
    return stream


class TestWindowAlgorithms:
    """The window maintenance itself: the two-stacks kernel and the
    refolding oracle on small hand-checked windows."""

    @pytest.mark.parametrize(
        "cls", [SlidingAggregate, LeftFoldSliding], ids=["two-stacks", "recompute"]
    )
    def test_basic_fifo_aggregation(self, cls):
        op = cls(3, lambda k, v: v, 0, lambda a, b: a + b)
        out = op.run(block_stream([1, 2, 3]) + [Marker(4)])
        # windows [1], [1,2], [1,2,3], then the oldest block is evicted
        assert kvs(out) == [KV("k", 1), KV("k", 3), KV("k", 6), KV("k", 5)]

    def test_two_stacks_empty_query(self):
        """A window of empty blocks folds to the identity."""
        op = SlidingAggregate(1, lambda k, v: v, 0, lambda a, b: a + b, emit_empty=True)
        out = op.run([KV("k", 4), Marker(1), Marker(2)])
        assert kvs(out) == [KV("k", 4), KV("k", 0)]

    def test_non_invertible_monoid_max(self):
        op = sliding_window(3, lambda k, v: v, float("-inf"), max)
        out = op.run(block_stream([5, 9, 3]) + [Marker(4), Marker(5)])
        assert [e.value for e in kvs(out)] == [5, 9, 9, 9, 3]


class TestSlidingWindowTemplate:
    def test_sliding_sum(self):
        op = sliding_window(
            2, inject=lambda k, v: v, identity_elem=0,
            combine_fn=lambda a, b: a + b,
        )
        out = op.run([
            KV("a", 1), Marker(1), KV("a", 10), Marker(2), Marker(3), Marker(4),
        ])
        assert [e for e in out if isinstance(e, KV)] == [
            KV("a", 1), KV("a", 11), KV("a", 10),
        ]

    def test_matches_library_sliding_count(self):
        """The function-style construction must agree with the library's
        counting window."""
        events = [
            KV("a", 1), KV("b", 2), Marker(1), KV("a", 3), Marker(2),
            KV("b", 4), KV("b", 5), Marker(3), Marker(4),
        ]
        specialized = sliding_window(
            3, inject=lambda k, v: 1, identity_elem=0,
            combine_fn=lambda a, b: a + b,
        )
        library_form = sliding_count(3)
        left = BlockTrace.from_events(False, specialized.run(events))
        right = BlockTrace.from_events(False, library_form.run(events))
        assert left == right

    def test_sliding_max_non_invertible(self):
        op = sliding_max(2)
        out = op.run([
            KV("a", 9), Marker(1), KV("a", 1), Marker(2), Marker(3),
        ])
        assert [e for e in out if isinstance(e, KV)] == [
            KV("a", 9), KV("a", 9), KV("a", 1),
        ]

    def test_algorithms_agree(self):
        """The two-stacks kernel against the left-fold oracle."""
        events = [KV("k", i % 7) for i in range(30)]
        stream = []
        for i, e in enumerate(events):
            stream.append(e)
            if i % 5 == 4:
                stream.append(Marker(i // 5 + 1))
        for window in (1, 2, 4):
            fast = sliding_window(window, lambda k, v: v, 0, lambda a, b: a + b)
            slow = LeftFoldSliding(window, lambda k, v: v, 0, lambda a, b: a + b)
            assert fast.run(stream) == slow.run(stream)

    def test_finish_hook(self):
        op = sliding_window(
            1, lambda k, v: v, 0, lambda a, b: a + b,
            finish=lambda key, agg, ts: (agg, ts),
        )
        out = op.run([KV("a", 5), Marker(7)])
        assert [e for e in out if isinstance(e, KV)] == [KV("a", (5, 7))]

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            sliding_window(0, lambda k, v: v, 0, lambda a, b: a + b)

    def test_type_kinds(self):
        assert isinstance(sliding_max(2), SlidingAggregate)
        assert SlidingAggregate.input_kind == "U"
        assert SlidingAggregate.output_kind == "U"

    @given(event_streams())
    @settings(max_examples=40)
    def test_consistency_under_block_shuffles(self, events):
        """Theorem 4.2 extended to the new template: equivalent inputs
        (block-wise shuffles) give equivalent outputs."""
        rng = random.Random(41)
        op = sliding_window(2, lambda k, v: v, 0, lambda a, b: a + b)
        base = BlockTrace.from_events(False, op.run(events))
        for _ in range(5):
            shuffled = shuffle_within_blocks(events, rng)
            assert BlockTrace.from_events(False, op.run(shuffled)) == base
