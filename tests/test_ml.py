"""ML substrates: REPTree regression, k-means, linear interpolation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.ml import KMeans, RepTree, fill_series, linear_interpolate


class TestRepTree:
    def make_data(self, n=300, seed=0):
        rng = random.Random(seed)
        X = [[rng.uniform(0, 10), rng.uniform(0, 10)] for _ in range(n)]
        y = [3 * a + (5 if b > 5 else -5) + rng.gauss(0, 0.1) for a, b in X]
        return X, y

    def test_learns_piecewise_structure(self):
        X, y = self.make_data()
        tree = RepTree(seed=1).fit(X, y)
        errors = [abs(tree.predict(x) - t) for x, t in zip(X, y)]
        assert sum(errors) / len(errors) < 2.0

    def test_better_than_mean_baseline(self):
        X, y = self.make_data()
        tree = RepTree(seed=1).fit(X, y)
        mean = sum(y) / len(y)
        tree_sse = sum((tree.predict(x) - t) ** 2 for x, t in zip(X, y))
        mean_sse = sum((mean - t) ** 2 for t in y)
        assert tree_sse < mean_sse / 4

    def test_constant_target_single_leaf(self):
        X = [[float(i)] for i in range(50)]
        y = [7.0] * 50
        tree = RepTree(seed=0).fit(X, y)
        assert tree.n_nodes() == 1
        assert tree.predict([25.0]) == 7.0

    def test_max_depth_respected(self):
        X, y = self.make_data()
        tree = RepTree(max_depth=2, prune=False, seed=0).fit(X, y)
        assert tree.depth() <= 2

    def test_pruning_shrinks_or_keeps_tree(self):
        X, y = self.make_data(seed=3)
        grown = RepTree(prune=False, min_samples_split=4, seed=2).fit(X, y)
        pruned = RepTree(prune=True, min_samples_split=4, seed=2).fit(X, y)
        assert pruned.n_nodes() <= grown.n_nodes()

    def test_predict_before_fit(self):
        with pytest.raises(ModelError):
            RepTree().predict([1.0])
        with pytest.raises(ModelError):
            RepTree().structure()

    def test_feature_arity_checked(self):
        X, y = self.make_data()
        tree = RepTree(seed=0).fit(X, y)
        with pytest.raises(ModelError):
            tree.predict([1.0])

    def test_empty_fit_rejected(self):
        with pytest.raises(ModelError):
            RepTree().fit([], [])

    def test_short_row_rejected(self):
        X, y = self.make_data(n=20)
        X[7] = X[7][:1]
        with pytest.raises(ModelError, match="row 7"):
            RepTree().fit(X, y)

    def test_nan_label_rejected(self):
        X, y = self.make_data(n=20)
        y[3] = math.nan
        with pytest.raises(ModelError, match="finite labels"):
            RepTree().fit(X, y)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_rejected(self, bad):
        X, y = self.make_data(n=20)
        X[5][1] = bad
        with pytest.raises(ModelError, match="row 5"):
            RepTree().fit(X, y)

    def test_deterministic_given_seed(self):
        X, y = self.make_data()
        t1 = RepTree(seed=5).fit(X, y)
        t2 = RepTree(seed=5).fit(X, y)
        probes = [[1.0, 1.0], [9.0, 9.0], [5.0, 2.0]]
        assert t1.predict_many(probes) == t2.predict_many(probes)


class TestKMeans:
    POINTS = [[0, 0], [0.2, 0], [5, 5], [5, 5.2], [10, 0], [10, 0.3]]

    def test_separates_clear_clusters(self):
        km = KMeans(3, seed=0).fit(self.POINTS)
        labels = [km.predict(p) for p in [[0, 0], [5, 5], [10, 0]]]
        assert len(set(labels)) == 3

    def test_inertia_decreases_with_k(self):
        i1 = KMeans(1, seed=0).fit(self.POINTS).inertia(self.POINTS)
        i3 = KMeans(3, seed=0).fit(self.POINTS).inertia(self.POINTS)
        assert i3 < i1

    def test_k_capped_at_distinct_points(self):
        km = KMeans(5, seed=0).fit([[1, 1], [1, 1], [2, 2]])
        assert len(km.centroids) <= 2

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            KMeans(2).fit([])

    def test_invalid_k(self):
        with pytest.raises(ModelError):
            KMeans(0)

    def test_deterministic_given_seed(self):
        a = KMeans(2, seed=4).fit(self.POINTS).centroids
        b = KMeans(2, seed=4).fit(self.POINTS).centroids
        assert a == b

    def test_predict_before_fit(self):
        with pytest.raises(ModelError):
            KMeans(2).predict([0, 0])

    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                    min_size=1, max_size=20))
    @settings(max_examples=30)
    def test_centroids_within_data_hull_box(self, points):
        km = KMeans(2, seed=1).fit(points)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        for cx, cy in km.centroids:
            assert min(xs) - 1e-9 <= cx <= max(xs) + 1e-9
            assert min(ys) - 1e-9 <= cy <= max(ys) + 1e-9


class TestInterpolation:
    def test_table2_semantics(self):
        assert linear_interpolate(0, 0.0, 4, 8.0) == [
            (1, 2.0), (2, 4.0), (3, 6.0), (4, 8.0),
        ]

    def test_adjacent_points_no_gap(self):
        assert linear_interpolate(3, 1.0, 4, 2.0) == [(4, 2.0)]

    def test_zero_or_negative_gap(self):
        assert linear_interpolate(4, 1.0, 4, 2.0) == []
        assert linear_interpolate(5, 1.0, 4, 2.0) == []

    def test_fill_series_dense(self):
        filled = fill_series([(0, 0.0), (3, 3.0)])
        assert filled == [(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)]

    def test_fill_series_skips_duplicates(self):
        filled = fill_series([(0, 0.0), (2, 2.0), (2, 9.0), (3, 3.0)])
        assert filled == [(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)]

    def test_fill_series_empty(self):
        assert fill_series([]) == []

    @given(st.lists(st.integers(0, 30), min_size=2, max_size=8, unique=True))
    @settings(max_examples=30)
    def test_fill_series_has_no_gaps(self, timestamps):
        timestamps = sorted(timestamps)
        series = [(t, float(t * 2)) for t in timestamps]
        filled = fill_series(series)
        times = [t for t, _ in filled]
        assert times == list(range(timestamps[0], timestamps[-1] + 1))
