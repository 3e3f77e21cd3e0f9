"""Ablation: sliding-window aggregation algorithms (the conclusion's
proposed specialized template).

Unlike the figure benchmarks (simulated time), this is a real CPU
microbenchmark: per-marker window maintenance with the two-stacks
kernel of ``library.SlidingAggregate`` vs. naive refolding, over a long
window of a non-invertible monoid (max).  The two-stacks algorithm is
amortized O(1) per marker while refolding is O(window), so the gap
widens with the window length.
"""

from __future__ import annotations

import random
from functools import reduce

import pytest

from repro.operators.base import KV, Marker
from repro.operators.keyed_unordered import OpKeyedUnordered
from repro.operators.library import SlidingAggregate, sliding_window

WINDOW = 256
BLOCKS = 600
KEYS = 4


class RefoldSliding(SlidingAggregate):
    """The refold baseline: each key keeps its last ``window`` block
    aggregates and refolds all of them at every marker, through the
    template's generic marker step."""

    seal = OpKeyedUnordered.seal

    def init(self):
        return ()

    def update_state(self, old_state, agg):
        return (old_state + (agg,))[-self._window:]

    def on_marker(self, new_state, key, m, emit):
        acc = reduce(self.combine, new_state, self.identity())
        if acc == self.identity():
            return
        result = self.finish(key, acc, m.timestamp)
        if result is not None:
            emit(key, result)


ALGORITHMS = {"two-stacks": sliding_window, "recompute": RefoldSliding}


def make_stream():
    rng = random.Random(3)
    stream = []
    for block in range(1, BLOCKS + 1):
        for _ in range(3):
            stream.append(KV(rng.randrange(KEYS), rng.randrange(10_000)))
        stream.append(Marker(block))
    return stream


def run(algorithm: str, stream):
    op = ALGORITHMS[algorithm](
        WINDOW,
        inject=lambda k, v: v,
        identity_elem=-1,
        combine_fn=max,
    )
    return op.run(stream)


@pytest.mark.parametrize("algorithm", ["two-stacks", "recompute"])
def test_window_algorithm(algorithm, benchmark):
    stream = make_stream()
    # Correctness cross-check before timing.
    if algorithm == "two-stacks":
        fast = [e for e in run("two-stacks", stream) if isinstance(e, KV)]
        slow = [e for e in run("recompute", stream) if isinstance(e, KV)]
        assert sorted(map(repr, fast)) == sorted(map(repr, slow))
    result = benchmark(run, algorithm, stream)
    assert any(isinstance(e, KV) for e in result)
