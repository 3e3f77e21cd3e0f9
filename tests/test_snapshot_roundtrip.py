"""Snapshot/restore round-trip identity for every operator template.

The fault-tolerance layer (``repro.storm.recovery``) checkpoints
operator state with ``Operator.snapshot_state`` and rebuilds it with
``Operator.restore_state``.  Recovery is only exactly-once if a restored
operator is *observationally identical* to the live one — so for every
operator in :mod:`repro.operators.library` (plus ``SortOp``, ``Merge``
and the Figure 5 keyed-ordered stages LI, Avg and Predict) we run a
randomized prefix, snapshot, and then require:

- **identity** — the live continuation and a restored continuation
  produce exactly the same outputs on the same suffix;
- **reusability** — restoring the same snapshot a second time (as a
  second failure would) produces the same outputs again, i.e. the first
  restore did not corrupt the snapshot;
- **independence** — mutating the live state after the snapshot was
  taken does not change what the snapshot restores to.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.smarthomes.pipeline import (
    AveragePerSecondOp,
    LinearInterpolationOp,
    PredictOp,
)
from repro.operators.base import KV, Marker
from repro.operators.library import (
    KeyedSequenceOp,
    MaxOfAvgPerKey,
    RunningAggregate,
    Sessionize,
    SlidingAggregate,
    TableJoin,
    TumblingAggregate,
    filter_items,
    flat_map,
    map_pairs,
    map_values,
    rekey,
    sliding_count,
    tumbling_count,
)
from repro.operators.merge import Merge
from repro.operators.sort import SortOp

KEYS = "abcd"
SEEDS = range(6)


def plain_stream(rng, n_blocks=4, per_block=8):
    events = []
    for block in range(1, n_blocks + 1):
        for _ in range(rng.randrange(per_block + 1)):
            events.append(KV(rng.choice(KEYS), rng.randrange(20)))
        events.append(Marker(block))
    return events


def sessions_stream(rng, n_blocks=4, per_block=6):
    """Per-key timestamp-ordered ``(payload, ts)`` values (an O stream)."""
    clocks = {key: 0 for key in KEYS}
    events = []
    for block in range(1, n_blocks + 1):
        for _ in range(rng.randrange(per_block + 1)):
            key = rng.choice(KEYS)
            clocks[key] += rng.randrange(1, 8)
            events.append(KV(key, (f"p{clocks[key]}", clocks[key])))
        events.append(Marker(max(clocks.values()) + block * 10))
    return events


def loads_stream(rng, n_blocks=4, per_block=10, min_step=1):
    """Per-key timestamp-ordered ``(load, ts)`` values; with
    ``min_step=0`` a key may repeat its previous timestamp."""
    clocks = {key: 0 for key in KEYS}
    events = []
    for block in range(1, n_blocks + 1):
        for _ in range(rng.randrange(per_block + 1)):
            key = rng.choice(KEYS)
            clocks[key] += rng.randrange(min_step, 4)
            events.append(KV(key, (rng.uniform(0.0, 100.0), clocks[key])))
        events.append(Marker(max(clocks.values()) + block * 10))
    return events


def plug_stream(rng):
    """The interpolation stage's ``(load, ts, dtype)`` values, repeated
    timestamps included."""
    return [
        KV(e.key, e.value + ("ac",)) if isinstance(e, KV) else e
        for e in loads_stream(rng, min_step=0)
    ]


class StubModel:
    def predict(self, features):
        time_of_day, load, past_sum = features
        return 0.5 * load + 0.25 * past_sum


OPERATORS = [
    ("map_values", lambda: map_values(lambda v: v + 1), plain_stream),
    ("map_pairs", lambda: map_pairs(lambda k, v: (k, v * 2)), plain_stream),
    ("filter", lambda: filter_items(lambda k, v: v % 2 == 0), plain_stream),
    ("rekey", lambda: rekey(lambda k, v: v % 3), plain_stream),
    ("flat_map",
     lambda: flat_map(lambda k, v: [(k, v), (k, v + 1)]), plain_stream),
    ("table_join",
     lambda: TableJoin(lambda k, v: [(k, (v, "joined"))] if v else []),
     plain_stream),
    ("tumbling",
     lambda: TumblingAggregate(
         lambda k, v: v, 0, lambda x, y: x + y, lambda k, a, ts: a),
     plain_stream),
    ("running",
     lambda: RunningAggregate(
         lambda k, v: v, 0, lambda x, y: x + y, lambda k, a, ts: a),
     plain_stream),
    ("sliding",
     lambda: SlidingAggregate(
         2, lambda k, v: v, 0, lambda x, y: x + y, lambda k, a, ts: a),
     plain_stream),
    ("tumbling_count", tumbling_count, plain_stream),
    ("sliding_count", lambda: sliding_count(3), plain_stream),
    ("max_of_avg", MaxOfAvgPerKey, plain_stream),
    ("sort", lambda: SortOp(), plain_stream),
    ("sessionize", lambda: Sessionize(gap=5), sessions_stream),
    ("keyed_seq",
     lambda: KeyedSequenceOp(
         lambda: 0, lambda s, v: (s + v, [s + v])), plain_stream),
    ("interpolate", LinearInterpolationOp, plug_stream),
    ("avg_per_second", AveragePerSecondOp,
     lambda rng: loads_stream(rng, min_step=0)),
    ("predict",
     lambda: PredictOp({key: StubModel() for key in "abc"}, past=4),
     loads_stream),
]


def run_stream(op, state, events):
    out = []
    for event in events:
        out.extend(op.handle(state, event))
    return out


@pytest.mark.parametrize(
    "make_op,make_stream",
    [pytest.param(make, stream, id=name) for name, make, stream in OPERATORS],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_snapshot_restore_roundtrip(make_op, make_stream, seed):
    rng = random.Random(seed)
    events = make_stream(rng)
    cut = rng.randrange(len(events) + 1)
    prefix, suffix = events[:cut], events[cut:]

    op = make_op()
    live = op.initial_state()
    run_stream(op, live, prefix)
    snapshot = op.snapshot_state(live)

    continued = run_stream(op, live, suffix)           # A: live
    restored = op.restore_state(snapshot)              # B: after rollback
    replayed = run_stream(op, restored, suffix)
    assert replayed == continued, "restored state diverged from live"

    restored_again = op.restore_state(snapshot)        # C: second failure
    assert run_stream(op, restored_again, suffix) == continued, (
        "first restore corrupted the snapshot"
    )


def assert_snapshot_independent(op, events, cut):
    """Post-snapshot live progress must not leak into the checkpoint."""
    prefix, suffix = events[:cut], events[cut:]
    live = op.initial_state()
    run_stream(op, live, prefix)
    snapshot = op.snapshot_state(live)
    expected = run_stream(op, op.restore_state(snapshot), suffix)

    run_stream(op, live, suffix)  # mutate the live state further
    assert run_stream(op, op.restore_state(snapshot), suffix) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_snapshot_is_independent_of_live_state(seed):
    rng = random.Random(seed)
    events = plain_stream(rng)
    assert_snapshot_independent(
        tumbling_count(), events, rng.randrange(len(events) + 1)
    )


@pytest.mark.parametrize(
    "make_op,make_stream",
    [pytest.param(make, stream, id=name) for name, make, stream in OPERATORS],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_every_snapshot_is_independent_of_live_state(make_op, make_stream, seed):
    """The same check for every operator above: a checkpoint shares no
    mutable piece of a key's state with the live operator."""
    rng = random.Random(seed)
    events = make_stream(rng)
    assert_snapshot_independent(
        make_op(), events, rng.randrange(len(events) + 1)
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_merge_snapshot_roundtrip(seed):
    """The merge's alignment state (buffered blocks, marker queues)
    round-trips through snapshot/restore mid-alignment."""
    rng = random.Random(seed)
    merge = Merge(2)
    deliveries = []
    for channel in (0, 1):
        position = 0
        for event in plain_stream(rng, n_blocks=3):
            deliveries.append((position, channel, event))
            position += 1
    # Interleave the channels randomly but keep per-channel order.
    rng.shuffle(deliveries)
    deliveries.sort(key=lambda entry: entry[0])
    cut = rng.randrange(len(deliveries) + 1)

    live = merge.initial_state()
    for _, channel, event in deliveries[:cut]:
        merge.handle(live, channel, event)
    snapshot = merge.snapshot_state(live)

    def drain(state):
        out = []
        for _, channel, event in deliveries[cut:]:
            out.extend(merge.handle(state, channel, event))
        return out

    continued = drain(live)
    assert drain(merge.restore_state(snapshot)) == continued
    assert drain(merge.restore_state(snapshot)) == continued
