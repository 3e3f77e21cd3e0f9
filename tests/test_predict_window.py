"""Predict's past-minute window: bit-identical to the ``(ts, load)`` window
it replaced, and equal to the features the model was trained on.

``PredictOp`` keeps per key two parallel deques ``(timestamps, loads)``
and sums ``loads`` before appending the new sample.  Its output must be
a bit-for-bit function of its input — recovery replays epochs and
compares them — so it is checked against the earlier implementation,
kept below as :class:`TupleWindowPredict`, on streams with dense seconds
and with multi-second gaps (one item then evicts many entries), fed as
whole blocks, one event per call, and through a snapshot/restore at
every marker.  The models are recording stubs, so the feature vectors
themselves are compared, not just the rounded predictions.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import islice
from operator import itemgetter

import pytest

from repro.apps.smarthomes.pipeline import PredictOp
from repro.apps.smarthomes.prediction import make_features, training_series
from repro.operators.base import KV, Marker

PASTS = (10, 60)
SEEDS = range(8)
MODEL_KEYS = ("ac", "tv")  # "fan" has no model: warm, but never emits


class TupleWindowPredict(PredictOp):
    """``PredictOp.on_item`` as it stood with one deque of ``(ts, load)``
    tuples, summed with ``islice`` over all but the newest entry."""

    def init(self):
        return deque()

    def copy_state(self, state):
        return deque(state)  # repro: ignore[DT402] -- elements are immutable tuples

    def on_item(self, state, key, value, emit):
        avg_load, ts = value
        window = state
        window.append((ts, avg_load))
        while window and window[0][0] < ts - self._past:
            window.popleft()
        if len(window) > self._past // 2:
            past_sum = sum(map(itemgetter(1), islice(window, len(window) - 1)))
            model = self._models.get(key)
            if model is not None:
                prediction = model.predict([float(ts % 86400), avg_load, past_sum])
                emit(key, (ts, round(prediction, 3)))
        return window


class EvictInclusive(PredictOp):
    """Mutant: evicts entries with timestamp ``<= ts - past``."""

    def on_item(self, state, key, value, emit):
        avg_load, ts = value
        timestamps, loads = state
        while timestamps and timestamps[0] <= ts - self._past:
            timestamps.popleft()
            loads.popleft()
        if len(timestamps) >= self._past // 2:
            model = self._models.get(key)
            if model is not None:
                prediction = model.predict([float(ts % 86400), avg_load, sum(loads)])
                emit(key, (ts, round(prediction, 3)))
        timestamps.append(ts)
        loads.append(avg_load)
        return state


class SumAfterAppend(PredictOp):
    """Mutant: takes the sum after appending the new sample."""

    def on_item(self, state, key, value, emit):
        avg_load, ts = value
        timestamps, loads = state
        while timestamps and timestamps[0] < ts - self._past:
            timestamps.popleft()
            loads.popleft()
        warm = len(timestamps) >= self._past // 2
        timestamps.append(ts)
        loads.append(avg_load)
        if warm:
            model = self._models.get(key)
            if model is not None:
                prediction = model.predict([float(ts % 86400), avg_load, sum(loads)])
                emit(key, (ts, round(prediction, 3)))
        return state


class RecordingModel:
    """Logs every feature vector it is asked about; the prediction is a
    fixed float function of the features."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def predict(self, features):
        self.log.append((self.name, list(features)))
        time_of_day, load, past_sum = features
        return 1e-3 * time_of_day + 0.75 * load + 0.125 * past_sum


def recording_models():
    log = []
    return {key: RecordingModel(key, log) for key in MODEL_KEYS}, log


def load_stream(rng, past, n_items=600):
    """Per-key strictly increasing seconds, dense runs broken by gaps of
    up to ``2 * past`` seconds, loads spanning many magnitudes (so the
    summation order shows in the floats), a marker every few items."""
    clocks = {key: 0 for key in MODEL_KEYS + ("fan",)}
    events = []
    marker_ts = 0
    for _ in range(n_items):
        key = rng.choice(sorted(clocks))
        step = 1 if rng.random() < 0.97 else rng.randrange(2, 2 * past + 1)
        clocks[key] += step
        load = rng.uniform(0.0, 1.0) * 10.0 ** rng.randrange(-3, 7)
        events.append(KV(key, (load, clocks[key])))
        if rng.random() < 0.15:
            marker_ts += 1
            events.append(Marker(marker_ts))
    events.append(Marker(marker_ts + 1))
    return events


def blocks_of(events):
    blocks, current = [], []
    for event in events:
        current.append(event)
        if isinstance(event, Marker):
            blocks.append(current)
            current = []
    return blocks


def feed_blocks(op, events):
    state = op.initial_state()
    out = []
    for block in blocks_of(events):
        out.extend(op.handle_batch(state, block))
    return out


def feed_events(op, events):
    state = op.initial_state()
    out = []
    for event in events:
        out.extend(op.handle(state, event))
    return out


def feed_with_restores(op, events):
    """A snapshot and a restore into a fresh state at every marker."""
    state = op.initial_state()
    out = []
    for block in blocks_of(events):
        out.extend(op.handle_batch(state, block))
        state = op.restore_state(op.snapshot_state(state))
    return out


FEEDS = {
    "blocks": feed_blocks,
    "events": feed_events,
    "restores": feed_with_restores,
}


def transcript(op_class, feed, events, past):
    """Everything the operator did, as bytes: the emitted events and the
    feature vectors its models saw, with every float at full precision."""
    models, log = recording_models()
    out = feed(op_class(models, past=past), events)
    return repr((out, log)).encode()


def matches_tuple_window(op_class, feed, seed, past):
    events = load_stream(random.Random(seed), past)
    expected = transcript(TupleWindowPredict, feed_events, events, past)
    return transcript(op_class, feed, events, past) == expected


@pytest.mark.parametrize("past", PASTS)
@pytest.mark.parametrize("feed", sorted(FEEDS))
def test_matches_tuple_window_byte_for_byte(feed, past):
    for seed in SEEDS:
        assert matches_tuple_window(PredictOp, FEEDS[feed], seed, past), seed


@pytest.mark.parametrize("past", PASTS)
def test_streams_exercise_warmup_eviction_and_cuts(past):
    """The streams reach the cases the comparison is about: cuts inside
    the warm-up, single items that evict several entries, and emitted
    predictions for every model key."""
    events = load_stream(random.Random(0), past)
    models, log = recording_models()
    op = PredictOp(models, past=past)
    state = op.initial_state()
    cuts_in_warmup = multi_evictions = 0
    for event in events:
        if isinstance(event, Marker):
            cuts_in_warmup += any(
                0 < len(timestamps) < past // 2 for timestamps, _ in state.values()
            )
            continue
        before = len(state[event.key][0]) if event.key in state else 0
        op.handle(state, event)
        # One append, so a shorter window means two or more evictions.
        multi_evictions += len(state[event.key][0]) < before
    assert cuts_in_warmup > 0
    assert multi_evictions > 0
    assert {name for name, _ in log} == set(MODEL_KEYS)


@pytest.mark.parametrize("mutant", [EvictInclusive, SumAfterAppend])
@pytest.mark.parametrize("past", PASTS)
def test_oracle_rejects_mutants(mutant, past):
    assert not all(
        matches_tuple_window(mutant, feed_events, seed, past) for seed in SEEDS
    )


@pytest.mark.parametrize("past", PASTS)
def test_online_past_sum_equals_training_feature(past):
    """Train/serve parity: on a dense one-sample-per-second series, the
    ``past_sum`` Predict hands the model for second ``i`` is exactly
    (``==``, not approximately) the ``X[i][2]`` that ``make_features``
    computes for that second with the same ``past``; so are the other
    two features."""
    horizon = 30
    series = training_series("ac", 400, seed=3)
    X, _ = make_features(series, horizon=horizon, past=past)
    models, log = recording_models()
    feed_events(
        PredictOp(models, past=past),
        [KV("ac", (load, t)) for t, load in series] + [Marker(len(series))],
    )
    online = {int(features[0]): features for _, features in log}
    for i in range(past, len(series) - horizon):
        assert online[series[i][0]] == X[i - past]
    # Warm-up starts at half a window, before training's first feature.
    assert min(online) == past // 2
