"""A tour of the implemented extension points from the paper's
conclusion and related-work sections.

1. The specialized sliding-window template (conclusion): amortized-O(1)
   two-stacks window maintenance for any monoid — shown on a
   non-invertible aggregation (per-key sliding max).
2. Generalized punctuations (Section 7): key-scoped watermarks that let
   keys progress independently — impossible with global markers.
3. Kahn process networks (Example 3.3): the data-trace model restricted
   to independent linear channels, with the deterministic merge of
   Example 3.7 as a KPN whose output is scheduling-invariant.

Run:  python examples/extensions_tour.py
"""

import random
import time
from functools import reduce

from repro.operators.base import KV, Marker
from repro.operators.keyed_unordered import OpKeyedUnordered
from repro.operators.library import SlidingAggregate, sliding_max, sliding_window
from repro.traces.punctuation import Punctuation, PunctuationReorder
from repro.transductions.kpn import merge_network


class RefoldSliding(SlidingAggregate):
    """The baseline the template replaces: each key keeps its last
    ``window`` block aggregates and refolds all of them at every marker."""

    seal = OpKeyedUnordered.seal  # the template's generic marker step

    def init(self):
        return ()

    def update_state(self, old_state, agg):
        return (old_state + (agg,))[-self._window:]

    def on_marker(self, new_state, key, m, emit):
        acc = reduce(self.combine, new_state, self.identity())
        if acc != self.identity():
            emit(key, self.finish(key, acc, m.timestamp))


def tour_sliding_window():
    print("1. Specialized sliding-window template")
    print("   per-key max over the last 3 marker periods:")
    op = sliding_max(3)
    stream = [
        KV("cpu", 71), KV("mem", 48), Marker(1),
        KV("cpu", 95), Marker(2),
        KV("mem", 60), Marker(3),
        Marker(4), Marker(5),
    ]
    for event in op.run(stream):
        print(f"     {event}")

    # The efficiency point: two-stacks vs refolding on a long window.
    rng = random.Random(0)
    stream = []
    for block in range(1, 500):
        stream.append(KV("k", rng.random()))
        stream.append(Marker(block))
    timings = {}
    for algorithm, make in (
        ("two-stacks", sliding_window),
        ("recompute", RefoldSliding),
    ):
        op = make(200, lambda k, v: v, -1.0, max)
        started = time.perf_counter()
        op.run(stream)
        timings[algorithm] = time.perf_counter() - started
    speedup = timings["recompute"] / timings["two-stacks"]
    print(f"   window=200, 500 markers: two-stacks {speedup:.1f}x faster "
          "than refolding\n")


def tour_punctuations():
    print("2. Generalized (key-scoped) punctuations")
    op = PunctuationReorder()
    stream = [
        KV("sensorA", ("a-late", 7)),
        KV("sensorA", ("a-early", 2)),
        KV("sensorB", ("b-item", 1)),
        Punctuation("sensorA", 10),   # sensor A is complete below t=10
        # sensor B's punctuation never arrives — but A progressed anyway.
    ]
    for event in op.run(stream):
        print(f"     {event}")
    print("   sensor A's items released in timestamp order; sensor B's")
    print("   pending item waits without blocking A (no global marker!)\n")


def tour_kpn():
    print("3. Kahn process networks (Example 3.3 / 3.7)")
    results = set()
    for seed in range(5):
        outputs = merge_network().run(
            {"in0": ["x1", "x2", "x3"], "in1": ["y1", "y2"]}, seed=seed
        )
        results.add(tuple(outputs["out"]))
    (merged,) = results
    print(f"   deterministic merge over 5 random schedules: {merged}")
    print("   (one distinct result: Kahn determinism = the trace view)")


if __name__ == "__main__":
    tour_sliding_window()
    tour_punctuations()
    tour_kpn()
