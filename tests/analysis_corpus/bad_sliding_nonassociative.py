"""DT901 (dynamic only): a sliding window whose combine averages.

Averaging is commutative, so the static heuristics see nothing, but it
is not associative (nor is 0 its identity): a block's aggregate depends
on the order its items fold in, and the window's fold on how the
two-stacks kernel groups the blocks.  The monoid-law spot-check finds a
concrete counterexample.
"""

from repro.operators.library import SlidingAggregate

EXPECT_STATIC = ()
EXPECT_DYNAMIC = ("DT901", "DT902")  # the law break is output-visible too


class AverageOverTwoBlocks(SlidingAggregate):
    def __init__(self):
        super().__init__(2, None, 0, None, name="average-over-two")

    def fold_in(self, key, value):
        return value

    def identity(self):
        return 0

    def combine(self, x, y):
        return (x + y) / 2
