"""Offline training of the power-consumption predictor (REPTree).

The Figure 5 ``Predict`` stage forecasts, per device type and per second,
the total power consumption over the next ``horizon`` seconds from three
features (Section 6): current time (second of day), current load, and
consumption over the past minute.  Matching the paper, the tree is
trained on a subset of the data — here a generated training series from
the same load model, so train and test distributions agree.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Sequence, Tuple

from repro.apps.smarthomes.events import DEVICE_TYPES, device_load
from repro.ml import RepTree


def make_features(
    series: Sequence[Tuple[int, float]], horizon: int, past: int = 60
) -> Tuple[List[List[float]], List[float]]:
    """Feature/label extraction from a dense per-second series.

    For each index with a full ``past`` window behind and ``horizon``
    ahead: features ``[second_of_day, current_load, past-minute sum]``
    and label ``sum of the next horizon seconds``.
    """
    X: List[List[float]] = []
    y: List[float] = []
    loads = [v for _, v in series]
    times = [t for t, _ in series]
    for i in range(past, len(series) - horizon):
        past_sum = sum(loads[i - past : i])
        X.append([float(times[i] % 86400), loads[i], past_sum])
        y.append(sum(loads[i + 1 : i + 1 + horizon]))
    return X, y


def training_series(
    device_type: str, seconds: int, seed: int
) -> List[Tuple[int, float]]:
    """A dense per-second load series from the workload's load model."""
    rng = random.Random(seed)
    return [(t, device_load(device_type, t, rng)) for t in range(seconds)]


def train_predictor(
    horizon: int = 600,
    train_seconds: int = 4000,
    past: int = 60,
    seed: int = 5,
) -> Dict[str, RepTree]:
    """One REPTree per device type, trained on generated series."""
    models: Dict[str, RepTree] = {}
    for i, device_type in enumerate(DEVICE_TYPES):
        series = training_series(device_type, train_seconds, seed + i)
        X, y = make_features(series, horizon=horizon, past=past)
        models[device_type] = RepTree(
            max_depth=8, min_samples_split=20, seed=seed
        ).fit(X, y)
    return models


def predictor_digest(models: Dict[str, RepTree]) -> str:
    """sha1 over ``repr((device_type, tree.structure()))`` in sorted
    device-type order: equal digests mean bit-identical trees (the
    golden digests in ``tests/test_reptree_golden.py`` use it)."""
    digest = hashlib.sha1()
    for device_type in sorted(models):
        digest.update(repr((device_type, models[device_type].structure())).encode())
    return digest.hexdigest()
