"""Pin the REPTree split search: golden tree digests plus a tie oracle.

The presorted split search must pick exactly the split an exhaustive
exact scan picks, so trees (and every Smart-Homes output) stay
bit-identical.  The digests below were recorded with the exhaustive
scan; ``ExhaustiveRepTree`` keeps a copy of that scan as the oracle for
a sweep of tie-heavy random datasets.
"""

import random

import pytest

from repro.apps.smarthomes import predictor_digest, train_predictor
from repro.ml import RepTree
from repro.ml.reptree import _sse


#: The perfbench fig6 set-up digest (12 trees, 758 nodes).
FIG6_DIGEST = "faed749170e5ab4f50995fef3c82379a3b74f801"

GOLDEN = [
    pytest.param(
        dict(horizon=120, train_seconds=800, past=60, seed=101),
        FIG6_DIGEST, 758, id="perfbench-fig6",
    ),
    pytest.param(
        dict(horizon=120, train_seconds=1200, past=60, seed=5),
        "e7ed84cba9232db7b74b30a607baa1ff398ddb30", 1194, id="quality-test",
    ),
    pytest.param(
        dict(horizon=60, train_seconds=200, past=30),
        "3e682d7575422953d0fadd5f3f9a98ed31345640", 130, id="cli",
    ),
]


@pytest.mark.parametrize("config, digest, nodes", GOLDEN)
def test_trained_trees_match_golden_digest(config, digest, nodes):
    models = train_predictor(**config)
    assert sum(tree.n_nodes() for tree in models.values()) == nodes
    assert predictor_digest(models) == digest


class ExhaustiveRepTree(RepTree):
    """The oracle: rebuilds both sides and rescores every threshold."""

    def _best_split(self, X, y, rng, base):
        base = _sse(y)
        best_gain = 1e-12
        best = None
        n = len(y)
        for feature in range(self._n_features):
            values = sorted({x[feature] for x in X})
            if len(values) < 2:
                continue
            midpoints = [
                (a + b) / 2.0 for a, b in zip(values, values[1:])
            ]
            if len(midpoints) > self.max_thresholds:
                midpoints = rng.sample(midpoints, self.max_thresholds)
            for threshold in midpoints:
                left_idx = [i for i in range(n) if X[i][feature] <= threshold]
                if not left_idx or len(left_idx) == n:
                    continue
                right_idx = [i for i in range(n) if X[i][feature] > threshold]
                gain = base - _sse([y[i] for i in left_idx]) - _sse(
                    [y[i] for i in right_idx]
                )
                if gain > best_gain:
                    best_gain = gain
                    best = (feature, threshold, left_idx, right_idx)
        return best


def tie_heavy_dataset(rng):
    """Small integer grids with integer labels (many exactly equal gains),
    sometimes with a duplicated column, large-magnitude labels, or more
    distinct values than ``max_thresholds``."""
    n = rng.randint(12, 60)
    n_features = rng.randint(1, 3)
    grid = rng.choice([2, 3, 4, 6])
    X = [[float(rng.randrange(grid)) for _ in range(n_features)] for _ in range(n)]
    if rng.random() < 0.3:
        column = rng.randrange(n_features)
        for row in X:
            row.append(row[column])
    if rng.random() < 0.3:
        for row in X:
            row.append(float(rng.randrange(40)))
    y = [float(rng.randrange(4)) for _ in range(n)]
    if rng.random() < 0.25:
        y = [1e6 + rng.choice((-1.0, 0.0, 1.0)) for _ in range(n)]
    return X, y


def test_presorted_search_matches_exhaustive_scan_on_ties():
    rng = random.Random(2024)
    splits = 0
    for case in range(300):
        X, y = tie_heavy_dataset(rng)
        params = dict(
            max_depth=rng.choice([-1, 2, 8]),
            min_samples_split=rng.choice([2, 4, 10]),
            prune=rng.random() < 0.5,
            max_thresholds=rng.choice([4, 32]),
            seed=case,
        )
        fast = RepTree(**params).fit(X, y)
        oracle = ExhaustiveRepTree(**params).fit(X, y)
        assert fast.structure() == oracle.structure(), (case, params)
        splits += fast.n_nodes() > 1
    # The sweep must exercise the split search, not just constant leaves.
    assert splits > 200


def test_presorted_search_matches_exhaustive_scan_on_offset_labels():
    """Labels like 1e12 + small integers: the rounded means carry errors
    far above ``1e-7 * base``, which the slack must still cover."""
    rng = random.Random(7)
    for case in range(40):
        n = rng.randint(50, 150)
        X = [[float(rng.randrange(8)), float(rng.randrange(30))] for _ in range(n)]
        offset = rng.choice([1e12, 1e13, 3e14])
        y = [offset + rng.choice((-1.0, 0.0, 1.0, 2.0)) for _ in range(n)]
        params = dict(max_depth=4, min_samples_split=4, prune=False, seed=case)
        fast = RepTree(**params).fit(X, y)
        oracle = ExhaustiveRepTree(**params).fit(X, y)
        assert fast.structure() == oracle.structure(), (case, offset)
