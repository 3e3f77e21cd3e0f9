"""Stream groupings: Storm's built-ins and the marker-aware family."""

import random

import pytest

from repro.operators.base import KV, Marker
from repro.storm.groupings import (
    BroadcastGrouping,
    FieldsGrouping,
    GlobalGrouping,
    MarkerAwareGrouping,
    ShuffleGrouping,
)


def bound(grouping, seed=0):
    grouping.bind(random.Random(seed))
    return grouping


class TestBuiltins:
    def test_shuffle_routes_each_to_one_task(self):
        g = bound(ShuffleGrouping())
        for _ in range(20):
            targets = g.select(KV("a", 1), 4)
            assert len(targets) == 1 and 0 <= targets[0] < 4

    def test_shuffle_routes_markers_too(self):
        """The Storm behaviour that breaks marker discipline (Section 2):
        markers go to ONE random task, not all."""
        g = bound(ShuffleGrouping())
        assert len(g.select(Marker(1), 4)) == 1

    def test_fields_grouping_consistent_per_key(self):
        g = bound(FieldsGrouping())
        t1 = g.select(KV("a", 1), 4)
        t2 = g.select(KV("a", 99), 4)
        assert t1 == t2

    def test_fields_grouping_custom_extractor(self):
        g = bound(FieldsGrouping(key_fn=lambda e: e.value % 2))
        assert g.select(KV("a", 2), 8) == g.select(KV("b", 4), 8)

    def test_global_grouping(self):
        g = bound(GlobalGrouping())
        assert g.select(KV("a", 1), 5) == [0]

    def test_broadcast(self):
        g = bound(BroadcastGrouping())
        assert g.select(KV("a", 1), 3) == [0, 1, 2]


class TestMarkerAware:
    def test_markers_always_broadcast(self):
        for policy in ("hash", "rr", "global"):
            g = bound(MarkerAwareGrouping(policy))
            assert g.select(Marker(1), 3) == [0, 1, 2]

    def test_hash_policy_keeps_keys_together(self):
        g = bound(MarkerAwareGrouping("hash"))
        assert g.select(KV("k", 1), 5) == g.select(KV("k", 2), 5)

    def test_rr_policy_cycles(self):
        g = bound(MarkerAwareGrouping("rr"))
        targets = [g.select(KV("a", i), 3)[0] for i in range(6)]
        assert targets == [0, 1, 2, 0, 1, 2]

    def test_global_policy(self):
        g = bound(MarkerAwareGrouping("global"))
        assert g.select(KV("a", 1), 4) == [0]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            MarkerAwareGrouping("zigzag")

    def test_describe(self):
        assert "hash" in MarkerAwareGrouping("hash").describe()
