"""A clean SlidingAggregate subclass: max over the last two blocks."""

from repro.operators.library import SlidingAggregate

EXPECT_STATIC = ()
EXPECT_DYNAMIC = ()

_NEG_INF = float("-inf")


class MaxOverTwoBlocks(SlidingAggregate):
    def __init__(self):
        # The hook overrides below replace the constructor's functions.
        super().__init__(2, None, _NEG_INF, None, name="max-over-two")

    def fold_in(self, key, value):
        return value

    def identity(self):
        return _NEG_INF

    def combine(self, x, y):
        return max(x, y)

    def finish(self, key, agg, timestamp):
        return agg if agg != _NEG_INF else None
