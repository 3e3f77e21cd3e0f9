"""A REPTree-style regression tree.

WEKA's REPTree builds a decision/regression tree using information
gain/variance reduction and prunes it with reduced-error pruning.  The
Smart-Homes case study (Section 6) trains such a tree offline on features
(current time, current load, past-minute consumption) and applies it per
stream element inside an ``OpKeyedOrdered`` vertex.

This implementation covers the regression case:

- greedy binary splits on numeric features, chosen to maximize variance
  reduction, with midpoint thresholds over sorted unique values
  (subsampled when a feature has many distinct values, as REPTree does);
- stopping rules: ``max_depth``, ``min_samples_split``, ``min_variance``;
- optional reduced-error pruning against a held-out fraction of the
  training data: a subtree is collapsed to its mean when that does not
  hurt held-out squared error.

Split search.  A node sorts its samples once per feature and keeps
prefix sums of the centred labels ``c = y - mean(y)`` in that order.  A
threshold that puts ``k`` of the ``n`` samples on the left, with left
label sum ``S``, then has approximate score ``S²/k + (T - S)²/(n - k)``
(``T`` the total), found with one bisection.  In real arithmetic that
is the variance reduction plus the constant ``T²/n``.  Only candidates
scoring within a slack of the best score are evaluated exactly: the
two-pass ``_sse`` over the left and right labels in sample order, in the
order the thresholds are drawn, keeping the first candidate whose gain
strictly exceeds the best so far.

The result is the split an exhaustive exact scan would pick.  Both the
score and the exact gain are off from their real values by at most a
few ``n·u`` times the node's SSE plus ``n³u²·max|y|²`` from the rounded
means (``u`` the unit roundoff).  The slack is far larger than twice
that for fewer than 10⁷ samples.  So a candidate outside the slack has
an exact gain below that of the best-scoring candidate, which is inside
it: it can neither be nor precede the first exact maximum.  The
thresholds and RNG draws are the exhaustive scan's, so the trees are
bit-identical to it.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from repro.errors import ModelError

Vector = Sequence[float]


@dataclass
class _Node:
    """One tree node; leaves carry ``value``, internal nodes a split."""

    value: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    def is_leaf(self) -> bool:
        return self.left is None

    def predict(self, x: Vector) -> float:
        node = self
        while node.left is not None:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value

    def structure(self) -> tuple:
        if self.left is None:
            return ("L", self.value)
        return (
            self.feature, self.threshold, self.value,
            self.left.structure(), self.right.structure(),
        )

    def depth(self) -> int:
        if self.is_leaf():
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def size(self) -> int:
        if self.is_leaf():
            return 1
        return 1 + self.left.size() + self.right.size()


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _sse(values: Sequence[float]) -> float:
    """Sum of squared errors around the mean."""
    if not values:
        return 0.0
    mu = _mean(values)
    return sum((v - mu) ** 2 for v in values)


class RepTree:
    """Regression tree with variance-reduction splits and REP pruning.

    Parameters
    ----------
    max_depth: maximum tree depth (REPTree's ``-L``; -1 for unlimited).
    min_samples_split: do not split nodes smaller than this.
    min_variance_ratio: do not split nodes whose variance is below this
        fraction of the root variance (REPTree's minimum variance rule).
    prune: reduced-error pruning against a held-out fraction.
    holdout_fraction: share of training data held out for pruning.
    max_thresholds: candidate thresholds per feature per node.
    seed: RNG seed for the holdout split and threshold subsampling.
    """

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_split: int = 10,
        min_variance_ratio: float = 1e-4,
        prune: bool = True,
        holdout_fraction: float = 0.25,
        max_thresholds: int = 32,
        seed: int = 0,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_variance_ratio = min_variance_ratio
        self.prune = prune
        self.holdout_fraction = holdout_fraction
        self.max_thresholds = max_thresholds
        self.seed = seed
        self._root: Optional[_Node] = None
        self._n_features = 0

    # ------------------------------------------------------------------

    def fit(self, X: Sequence[Vector], y: Sequence[float]) -> "RepTree":
        """Fit the tree; returns self."""
        if len(X) != len(y) or not X:
            raise ModelError("fit requires equal-length, non-empty X and y")
        self._n_features = len(X[0])
        for i, row in enumerate(X):
            if len(row) != self._n_features:
                raise ModelError(
                    f"row {i} has {len(row)} features, expected {self._n_features}"
                )
            if not all(map(math.isfinite, row)):
                raise ModelError(f"row {i} has a non-finite feature: {list(row)}")
        if not all(map(math.isfinite, y)):
            raise ModelError("fit requires finite labels")
        rng = random.Random(self.seed)
        indices = list(range(len(X)))
        rng.shuffle(indices)
        if self.prune and len(X) >= 8:
            cut = max(1, int(len(X) * self.holdout_fraction))
            holdout_idx, grow_idx = indices[:cut], indices[cut:]
        else:
            holdout_idx, grow_idx = [], indices
        grow_X = [X[i] for i in grow_idx]
        grow_y = [y[i] for i in grow_idx]
        root_variance = _sse(grow_y) / max(1, len(grow_y))
        self._root = self._grow(
            grow_X, grow_y, depth=0, min_variance=root_variance * self.min_variance_ratio,
            rng=rng,
        )
        if self.prune and holdout_idx:
            hold_X = [X[i] for i in holdout_idx]
            hold_y = [y[i] for i in holdout_idx]
            self._rep_prune(self._root, hold_X, hold_y)
        return self

    def predict(self, x: Vector) -> float:
        """Predict one sample."""
        if self._root is None:
            raise ModelError("predict before fit")
        if len(x) != self._n_features:
            raise ModelError(
                f"expected {self._n_features} features, got {len(x)}"
            )
        return self._root.predict(x)

    def predict_many(self, X: Sequence[Vector]) -> List[float]:
        return [self.predict(x) for x in X]

    def depth(self) -> int:
        if self._root is None:
            raise ModelError("depth before fit")
        return self._root.depth()

    def n_nodes(self) -> int:
        if self._root is None:
            raise ModelError("n_nodes before fit")
        return self._root.size()

    def structure(self) -> tuple:
        """The fitted tree as nested tuples: a split is ``(feature,
        threshold, value, left, right)`` and a leaf ``("L", value)``.
        Its ``repr`` identifies the tree bit for bit."""
        if self._root is None:
            raise ModelError("structure before fit")
        return self._root.structure()

    # ------------------------------------------------------------------

    def _grow(self, X, y, depth, min_variance, rng) -> _Node:
        node = _Node(value=_mean(y))
        if len(y) < self.min_samples_split or (0 <= self.max_depth <= depth):
            return node
        base = _sse(y)
        if base / len(y) <= min_variance:
            return node
        best = self._best_split(X, y, rng, base)
        if best is None:
            return node
        feature, threshold, left_idx, right_idx = best
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(
            [X[i] for i in left_idx], [y[i] for i in left_idx],
            depth + 1, min_variance, rng,
        )
        node.right = self._grow(
            [X[i] for i in right_idx], [y[i] for i in right_idx],
            depth + 1, min_variance, rng,
        )
        return node

    def _best_split(
        self, X, y, rng, base
    ) -> Optional[Tuple[int, float, List[int], List[int]]]:
        """The first candidate of maximal exact gain, or None; ``base`` is
        ``_sse(y)``.  See the module docstring for why it is exact."""
        n = len(y)
        mean = _mean(y)
        centred = [v - mean for v in y]
        # Both error terms of the module docstring, with a wide margin.
        top = max(max(y), -min(y))
        slack = 1e-7 * (base + 1.0) + n * (n * 1e-14 * top) ** 2
        columns = []
        candidates = []  # (approximate score, feature, threshold)
        for feature in range(self._n_features):
            column = [x[feature] for x in X]
            columns.append(column)
            values = sorted(set(column))
            if len(values) < 2:
                continue
            midpoints = [
                (a + b) / 2.0 for a, b in zip(values, values[1:])
            ]
            if len(midpoints) > self.max_thresholds:
                midpoints = rng.sample(midpoints, self.max_thresholds)
            order = sorted(range(n), key=column.__getitem__)
            ordered = [column[i] for i in order]
            prefix = list(accumulate([centred[i] for i in order]))
            total = prefix[-1]
            for threshold in midpoints:
                k = bisect_right(ordered, threshold)  # samples <= threshold
                if k == 0 or k == n:
                    continue
                left = prefix[k - 1]
                right = total - left
                candidates.append(
                    (left * left / k + right * right / (n - k), feature, threshold)
                )
        if not candidates:
            return None
        cutoff = max(candidates)[0] - slack
        best_gain = 1e-12
        best = None
        for score, feature, threshold in candidates:
            if score < cutoff:
                continue
            column = columns[feature]
            left_idx = [i for i in range(n) if column[i] <= threshold]
            right_idx = [i for i in range(n) if column[i] > threshold]
            gain = base - _sse([y[i] for i in left_idx]) - _sse(
                [y[i] for i in right_idx]
            )
            if gain > best_gain:
                best_gain = gain
                best = (feature, threshold, left_idx, right_idx)
        return best

    def _rep_prune(self, node: _Node, X, y) -> float:
        """Prune bottom-up; returns the subtree's held-out SSE after
        pruning.  Collapses a subtree to a leaf when the leaf is no worse
        on the held-out data."""
        if node.is_leaf():
            return sum((node.value - t) ** 2 for t in y)
        left_X, left_y, right_X, right_y = [], [], [], []
        for x, t in zip(X, y):
            if x[node.feature] <= node.threshold:
                left_X.append(x)
                left_y.append(t)
            else:
                right_X.append(x)
                right_y.append(t)
        subtree_sse = self._rep_prune(node.left, left_X, left_y) + self._rep_prune(
            node.right, right_X, right_y
        )
        leaf_sse = sum((node.value - t) ** 2 for t in y)
        if leaf_sse <= subtree_sse:
            node.left = None
            node.right = None
            node.feature = -1
            return leaf_sse
        return subtree_sse
