"""The fused sliding-window seal kernel against the left-fold formulation.

``SlidingAggregate`` advances every key's window in one loop over
two-stacks records (``library.SlidingAggregate.seal``).  The oracle
below is the formulation it replaced: each key's state is a tuple of its
last ``window`` block aggregates, advanced through the Table 3 hooks
(``update_state`` / ``on_marker``) and refolded left at every marker.

For integer monoids regrouping the fold cannot change a value, so the
kernel's output lists must equal the oracle's exactly, in every entry
mode: ``handle``, ``handle_batch``, a mix of the two, and a
snapshot/restore at a random epoch.  A float sum may round differently
from the oracle, but serial, batched and restored runs must still agree
with each other bit for bit.
"""

from __future__ import annotations

import random

import pytest

from repro.operators.base import KV, Marker
from repro.operators.keyed_unordered import CombinedAgg, OpKeyedUnordered
from repro.operators.library import SlidingAggregate, sliding_count

SEEDS = range(12)


class LeftFoldSliding(SlidingAggregate):
    """The tuple-of-blocks formulation, run by the default seal step."""

    seal = OpKeyedUnordered.seal

    def init(self):
        return ()

    def update_state(self, old_state, agg):
        blocks = old_state + (agg,)
        if len(blocks) > self._window:
            blocks = blocks[-self._window:]
        return blocks

    def on_marker(self, new_state, key, m, emit):
        acc = self._identity
        for block_agg in new_state:
            acc = self._combine(acc, block_agg)
        if acc == self._identity and not self._emit_empty:
            return
        result = self._finish(key, acc, m.timestamp)
        if result is not None:
            emit(key, result)


def _pair_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


#: name -> (inject, identity, combine, finish, random monoid element)
MONOIDS = {
    "count": (
        lambda k, v: 1, 0, lambda x, y: x + y,
        lambda key, total, ts: total,
        lambda rng: rng.randrange(1, 4),
    ),
    "sum": (
        lambda k, v: v, 0, lambda x, y: x + y,
        # Drops odd totals, so the ``finish -> None`` path is covered.
        lambda key, total, ts: None if total % 2 else (total, ts),
        lambda rng: rng.randrange(-5, 6),
    ),
    "sum-count": (
        lambda k, v: (v, 1), (0, 0), _pair_add,
        lambda key, agg, ts: agg,
        lambda rng: (rng.randrange(-5, 6), rng.randrange(1, 3)),
    ),
    # Associative but not commutative: a flip that reverses the order of
    # the window's blocks changes the string.
    "concat": (
        lambda k, v: "abcdefghijk"[v + 5], "", lambda x, y: x + y,
        lambda key, text, ts: text,
        lambda rng: rng.choice("xyz"),
    ),
}

#: Monoids whose block aggregate depends on the order of its items: the
#: random streams give these at most one item per key per block.
ORDER_SENSITIVE = {"concat"}


def make_op(cls, monoid, window, emit_empty):
    inject, identity, combine, finish, _ = MONOIDS[monoid]
    return cls(window, inject, identity, combine, finish, emit_empty=emit_empty)


def random_stream(rng, monoid, float_values=False):
    """Blocks over keys that start late and go idle, with empty blocks,
    back-to-back markers and pre-folded ``CombinedAgg`` values."""
    n_blocks = rng.randrange(1, 30)
    keys = "abcdefgh"[: rng.randrange(1, 9)]
    # Each key is active over its own span of blocks.
    spans = {}
    for key in keys:
        first = rng.randrange(n_blocks)
        spans[key] = (first, rng.randrange(first, n_blocks + 1))
    element = MONOIDS[monoid][4]
    events = []
    for block in range(n_blocks):
        if rng.random() < 0.25:
            events.append(Marker(block + 1))  # an empty block
            continue
        seen = set()
        for _ in range(rng.randrange(12)):
            key = rng.choice(keys)
            first, last = spans[key]
            if not first <= block <= last:
                continue
            if monoid in ORDER_SENSITIVE and key in seen:
                continue
            seen.add(key)
            if float_values:
                events.append(KV(key, rng.uniform(-1e3, 1e3)))
            elif rng.random() < 0.3:
                events.append(KV(key, CombinedAgg(element(rng))))
            else:
                events.append(KV(key, rng.randrange(-5, 6)))
        events.append(Marker(block + 1))
    return events


def run_serial(op, events, state=None):
    state = op.initial_state() if state is None else state
    out = []
    for event in events:
        out.extend(op.handle(state, event))
    return out


def run_batched(op, events):
    return op.handle_batch(op.initial_state(), events)


def run_mixed(op, events, rng):
    """Random chunks, each through ``handle_batch`` or a ``handle`` loop."""
    state = op.initial_state()
    out = []
    i = 0
    while i < len(events):
        j = i + rng.randrange(1, 8)
        chunk = events[i:j]
        if rng.random() < 0.5:
            out.extend(op.handle_batch(state, chunk))
        else:
            out.extend(run_serial(op, chunk, state))
        i = j
    return out


def run_restored(op, events, rng):
    """Run to a random epoch boundary, snapshot, keep mutating the live
    state, then continue from a restore of the snapshot."""
    cuts = [i + 1 for i, e in enumerate(events) if isinstance(e, Marker)]
    cut = rng.choice([0] + cuts)
    live = op.initial_state()
    prefix = op.handle_batch(live, events[:cut])
    snapshot = op.snapshot_state(live)
    op.handle_batch(live, events[cut:])
    return prefix + run_serial(op, events[cut:], op.restore_state(snapshot))


@pytest.mark.parametrize("emit_empty", [False, True])
@pytest.mark.parametrize("monoid", sorted(MONOIDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_matches_left_fold_oracle(seed, monoid, emit_empty):
    rng = random.Random(f"{seed}/{monoid}/{emit_empty}")
    for _ in range(4):
        window = rng.randrange(1, 13)
        events = random_stream(rng, monoid)
        kernel = make_op(SlidingAggregate, monoid, window, emit_empty)
        oracle = make_op(LeftFoldSliding, monoid, window, emit_empty)
        want = run_serial(oracle, events)
        assert run_batched(oracle, events) == want
        assert run_serial(kernel, events) == want, (window, events)
        assert run_batched(kernel, events) == want, (window, events)
        assert run_mixed(kernel, events, rng) == want, (window, events)
        assert run_restored(kernel, events, rng) == want, (window, events)


@pytest.mark.parametrize("emit_empty", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_float_sum_is_deterministic_across_modes(seed, emit_empty):
    rng = random.Random(f"float/{seed}/{emit_empty}")
    window = rng.randrange(1, 13)
    events = random_stream(rng, "sum", float_values=True)
    op = SlidingAggregate(
        window, lambda k, v: v, 0.0, lambda x, y: x + y,
        lambda key, total, ts: total, emit_empty=emit_empty,
    )
    serial = run_serial(op, events)
    assert run_batched(op, events) == serial
    assert run_mixed(op, events, rng) == serial
    assert run_restored(op, events, rng) == serial
    # Regrouping may round differently, never by more than a few ulps
    # of the window's magnitude.
    oracle = LeftFoldSliding(
        window, lambda k, v: v, 0.0, lambda x, y: x + y,
        lambda key, total, ts: total, emit_empty=emit_empty,
    )
    want = run_serial(oracle, events)
    assert [e.key if isinstance(e, KV) else e for e in serial] == [
        e.key if isinstance(e, KV) else e for e in want
    ]
    for got, expected in zip(serial, want):
        if isinstance(got, KV):
            assert got.value == pytest.approx(expected.value, abs=1e-6)


def test_window_slides_past_a_flip():
    """Hand-checked: counts over a window of 3 across two flips, with a
    key that goes idle and one that first appears late."""
    events = []
    for block, keys in enumerate(["a", "aa", "ab", "", "b", "", "", "", "a"]):
        events += [KV(key, 0) for key in keys] + [Marker(block + 1)]
    out = [(e.key, e.value) for e in sliding_count(3).run(events)
           if isinstance(e, KV)]
    assert out == [
        ("a", 1), ("a", 3), ("a", 4), ("b", 1), ("a", 3), ("b", 1),
        ("a", 1), ("b", 2), ("b", 1), ("b", 1), ("a", 1),
    ]


class DoubledFinish(SlidingAggregate):
    def finish(self, key, agg, timestamp):
        return agg * 2


class MaxCombine(SlidingAggregate):
    def combine(self, x, y):
        return max(x, y)


@pytest.mark.parametrize("run", [run_serial, run_batched])
def test_seal_calls_subclass_hooks(run):
    """A subclass's ``finish`` / ``combine`` override is what the marker
    step calls too, not only the item path."""
    sum_monoid = (lambda k, v: v, 0, lambda x, y: x + y, lambda key, total, ts: total)
    events = [KV("a", 5), KV("a", 7), Marker(1), KV("a", 1), Marker(2)]
    doubled = DoubledFinish(2, *sum_monoid)
    assert run(doubled, events[:1] + events[2:3]) == [KV("a", 10), Marker(1)]
    maxed = MaxCombine(2, *sum_monoid)
    assert [e.value for e in run(maxed, events) if isinstance(e, KV)] == [7, 7]


@pytest.mark.parametrize("hook", ["init", "update_state", "on_marker"])
def test_subclass_with_template_hook_needs_its_own_seal(hook):
    """The fused marker step never calls ``init`` / ``update_state`` /
    ``on_marker``; a subclass that overrides one of them without
    overriding ``seal`` is rejected when the class is created, rather
    than silently running without its override."""
    overrides = {
        "init": lambda self: (),
        "update_state": lambda self, old_state, agg: agg,
        "on_marker": lambda self, new_state, key, m, emit: emit(key, "tagged"),
    }
    with pytest.raises(TypeError, match=hook):
        type("Tagged", (SlidingAggregate,), {hook: overrides[hook]})
    # Overriding seal too (here with the template's generic marker step,
    # as the refold baselines do) is accepted.
    type("Tagged", (SlidingAggregate,), {
        hook: overrides[hook], "seal": OpKeyedUnordered.seal,
    })
