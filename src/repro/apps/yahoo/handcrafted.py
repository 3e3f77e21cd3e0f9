"""Hand-crafted Storm topologies for Queries I–VI.

These are the "handwritten implementation using the user-level API of
Apache Storm" of Section 6: bolts written directly against
:class:`~repro.storm.topology.Bolt` with *manual* marker bookkeeping —
the practical fixes (watermark trackers, per-second buckets keyed by
event time) that the typed framework generates automatically.  The same
per-tuple work is done (the same database lookups, the same window
updates), so the throughput comparison against the compiled pipelines
isolates framework overhead.

The engineer's control-stream trick is modelled by
:class:`HandRolledGrouping`: data is shuffled or key-partitioned, but
markers are broadcast to all tasks (in real Storm: a separate stream
with ``allGrouping``), since without that no downstream flush trigger is
possible at all.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.yahoo.events import AdEvent
from repro.compiler.compile import source_from_events
from repro.compiler.glue import AlignedCaptureBolt
from repro.db import Derby
from repro.ml import KMeans
from repro.operators.base import Event, KV, Marker
from repro.operators.split import default_key_hash
from repro.storm.groupings import Grouping
from repro.storm.topology import (
    Bolt,
    IteratorSpout,
    OutputCollector,
    Topology,
    TopologyBuilder,
)
from repro.storm.tuples import StormTuple


class HandRolledGrouping(Grouping):
    """Shuffle/fields/global for data; markers broadcast to every task.

    ``shuffle`` follows Storm's documented guarantee that tuples are
    distributed so "each bolt is guaranteed to get an equal number of
    tuples": per-sender round-robin from a random starting offset.
    """

    def __init__(self, mode: str = "shuffle"):
        if mode not in ("shuffle", "fields", "global"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self._next: int = -1

    def select(self, event: Event, n_tasks: int) -> List[int]:
        if isinstance(event, Marker):
            return list(range(n_tasks))
        if self.mode == "shuffle":
            if self._next < 0:
                self._next = self._rng.randrange(n_tasks)
            target = self._next % n_tasks
            self._next = (target + 1) % n_tasks
            return [target]
        if self.mode == "fields":
            return [default_key_hash(event.key) % n_tasks]
        return [0]


class MarkerTracker:
    """Manual watermark tracking over ``n_channels`` upstream tasks.

    ``advance`` records one marker from a channel and returns the list of
    timestamps that became *complete* (delivered by every channel).
    """

    def __init__(self, n_channels: int):
        self.n_channels = n_channels
        self._counts: Dict[Any, int] = {}
        self._timestamps: List[Any] = []
        self._completed = 0

    def advance(self, channel: Any, timestamp: Any) -> List[Any]:
        count = self._counts.get(channel, 0) + 1
        self._counts[channel] = count
        if count > len(self._timestamps):
            self._timestamps.append(timestamp)
        if len(self._counts) < self.n_channels:
            return []
        low = min(self._counts.values())
        ready = self._timestamps[self._completed : low]
        self._completed = low
        return ready


class _HandBolt(Bolt):
    """Shared skeleton: route markers through a tracker, data to a hook."""

    def __init__(self, n_channels: int, name: str = ""):
        self.n_channels = n_channels
        self.name = name or type(self).__name__

    def prepare(self, task_index: int, n_tasks: int) -> Any:
        return {"tracker": MarkerTracker(self.n_channels), "data": self.fresh_state()}

    def fresh_state(self) -> Any:
        return None

    def on_data(self, state: Any, event: KV, collector: OutputCollector) -> None:
        raise NotImplementedError

    def on_complete_marker(
        self, state: Any, timestamp: Any, collector: OutputCollector
    ) -> None:
        collector.emit(Marker(timestamp))

    def execute(self, state, tup: StormTuple, collector: OutputCollector) -> None:
        event = tup.event
        if isinstance(event, Marker):
            for ts in state["tracker"].advance(tup.channel(), event.timestamp):
                self.on_complete_marker(state["data"], ts, collector)
            return
        self.on_data(state["data"], event, collector)


class HandEnrichBolt(_HandBolt):
    """Queries I/IV/V stage 1: optional view filter + campaign lookup."""

    def __init__(self, db: Derby, views_only: bool, n_channels: int, name: str):
        super().__init__(n_channels, name)
        self._db = db
        self._views_only = views_only

    def on_data(self, state, event: KV, collector) -> None:
        ad_event: AdEvent = event.value
        if self._views_only and ad_event.event_type != "view":
            return
        row = self._db.lookup("ads", "ad_id", ad_event.ad_id)
        if row is not None:
            collector.emit(KV(row[1], ad_event.event_time))


class HandLocateBolt(_HandBolt):
    """Queries III/VI stage 1: user-location lookup."""

    def __init__(self, db: Derby, keep_user_key: bool, n_channels: int):
        super().__init__(n_channels, "Locate")
        self._db = db
        self._keep_user_key = keep_user_key

    def on_data(self, state, event: KV, collector) -> None:
        ad_event: AdEvent = event.value
        row = self._db.lookup("users", "user_id", ad_event.user_id)
        if row is None:
            return
        location = row[1]
        if self._keep_user_key:
            collector.emit(KV(ad_event.user_id, (location, ad_event.event_type)))
        else:
            collector.emit(KV(location, ad_event.event_time))


class HandKeyByAdBolt(_HandBolt):
    """Query II stage 1: re-key by ad id."""

    def on_data(self, state, event: KV, collector) -> None:
        ad_event: AdEvent = event.value
        collector.emit(KV(ad_event.ad_id, 1))


class HandSlidingCountBolt(_HandBolt):
    """Query IV stage 2: per-campaign count over the last ``window``
    seconds, bucketed by event time, flushed at completed watermarks."""

    def __init__(self, window: int, n_channels: int):
        super().__init__(n_channels, "Count10s")
        self._window = window

    def fresh_state(self):
        return {}  # campaign -> {second -> count}

    def on_data(self, state, event: KV, collector) -> None:
        second = event.value // 1000 + 1
        buckets = state.setdefault(event.key, {})
        buckets[second] = buckets.get(second, 0) + 1

    def on_complete_marker(self, state, timestamp, collector) -> None:
        low = timestamp - self._window + 1
        for campaign, buckets in state.items():
            total = sum(
                count for second, count in buckets.items() if low <= second <= timestamp
            )
            if total:
                collector.emit(KV(campaign, total))
            for second in [s for s in buckets if s < low]:
                del buckets[second]
        collector.emit(Marker(timestamp))


class HandTumblingCountBolt(_HandBolt):
    """Query V stage 2: per-campaign count of the completed second."""

    def fresh_state(self):
        return {}

    def on_data(self, state, event: KV, collector) -> None:
        second = event.value // 1000 + 1
        buckets = state.setdefault(event.key, {})
        buckets[second] = buckets.get(second, 0) + 1

    def on_complete_marker(self, state, timestamp, collector) -> None:
        for campaign, buckets in state.items():
            count = buckets.pop(timestamp, 0)
            if count:
                collector.emit(KV(campaign, count))
        collector.emit(Marker(timestamp))


class HandRunningCountBolt(_HandBolt):
    """Query III stage 2: whole-history per-key counts, emitted per
    completed marker; optionally persisted (Query II)."""

    def __init__(self, n_channels: int, db: Optional[Derby] = None, name: str = "History"):
        super().__init__(n_channels, name)
        self._db = db

    def fresh_state(self):
        return {}

    def on_data(self, state, event: KV, collector) -> None:
        state[event.key] = state.get(event.key, 0) + 1

    def on_complete_marker(self, state, timestamp, collector) -> None:
        for key, total in state.items():
            if self._db is not None:
                self._db.persist("aggregates", key, total)
            collector.emit(KV(key, total))
        collector.emit(Marker(timestamp))


class HandFeaturesBolt(_HandBolt):
    """Query VI stage 2: per-user per-block event-type counts."""

    def fresh_state(self):
        return {}  # user -> [views, clicks, purchases, location]

    def on_data(self, state, event: KV, collector) -> None:
        location, event_type = event.value
        entry = state.setdefault(event.key, [0, 0, 0, location])
        if event_type == "view":
            entry[0] += 1
        elif event_type == "click":
            entry[1] += 1
        else:
            entry[2] += 1

    def on_complete_marker(self, state, timestamp, collector) -> None:
        for user, (views, clicks, purchases, location) in state.items():
            collector.emit(KV(location, (float(views), float(clicks), float(purchases))))
        state.clear()
        collector.emit(Marker(timestamp))


class HandClusterBolt(_HandBolt):
    """Query VI stage 3: per-location k-means over the block's vectors."""

    def __init__(self, k: int, n_channels: int):
        super().__init__(n_channels, "Cluster")
        self._k = k

    def fresh_state(self):
        return {}  # location -> [vectors]

    def on_data(self, state, event: KV, collector) -> None:
        state.setdefault(event.key, []).append(event.value)

    def on_complete_marker(self, state, timestamp, collector) -> None:
        for location, points in state.items():
            if points:
                model = KMeans(self._k, seed=0).fit(sorted(points))
                collector.emit(
                    KV(location, (len(points), round(model.inertia(points), 9)))
                )
        state.clear()
        collector.emit(Marker(timestamp))


# ----------------------------------------------------------------------
# Topology builders.
# ----------------------------------------------------------------------


def _spout(events) -> IteratorSpout:
    """Round-robin data partitioning; every task emits all markers."""
    return IteratorSpout(source_from_events(events).make_iterator)


def _two_stage(
    name: str,
    events,
    spout_parallelism: int,
    stage1: Callable[[int], Bolt],
    stage1_name: str,
    stage1_parallelism: int,
    stage2: Optional[Callable[[int], Bolt]],
    stage2_name: str,
    stage2_parallelism: int,
    stage2_mode: str = "fields",
) -> Tuple[Topology, AlignedCaptureBolt]:
    builder = TopologyBuilder(name)
    builder.set_spout("events", _spout(events), spout_parallelism)
    builder.set_bolt(stage1_name, stage1(spout_parallelism), stage1_parallelism).grouping(
        "events", HandRolledGrouping("shuffle")
    )
    last_name, last_parallelism = stage1_name, stage1_parallelism
    if stage2 is not None:
        builder.set_bolt(
            stage2_name, stage2(stage1_parallelism), stage2_parallelism
        ).grouping(stage1_name, HandRolledGrouping(stage2_mode))
        last_name, last_parallelism = stage2_name, stage2_parallelism
    sink = AlignedCaptureBolt(n_channels=last_parallelism)
    builder.set_bolt("SINK", sink, 1).grouping(last_name, HandRolledGrouping("global"))
    return builder.build(), sink


def handcrafted_query1(db: Derby, events, parallelism: int = 1, spouts: int = 1):
    """Query I, hand-written."""
    return _two_stage(
        "hand-q1", events, spouts,
        lambda n: HandEnrichBolt(db, False, n, "Enrich"), "Enrich", parallelism,
        None, "", 0,
    )


def handcrafted_query2(db: Derby, events, parallelism: int = 1, spouts: int = 1):
    """Query II, hand-written."""
    return _two_stage(
        "hand-q2", events, spouts,
        lambda n: HandKeyByAdBolt(n, "KeyByAd"), "KeyByAd", parallelism,
        lambda n: HandRunningCountBolt(n, db=db, name="PersistCount"),
        "PersistCount", parallelism,
    )


def handcrafted_query3(db: Derby, events, parallelism: int = 1, spouts: int = 1):
    """Query III, hand-written."""
    return _two_stage(
        "hand-q3", events, spouts,
        lambda n: HandLocateBolt(db, False, n), "Locate", parallelism,
        lambda n: HandRunningCountBolt(n), "History", parallelism,
    )


def handcrafted_query4(db: Derby, events, parallelism: int = 1, spouts: int = 1,
                       window: int = 10):
    """Query IV, hand-written (the benchmark's reference pipeline)."""
    return _two_stage(
        "hand-q4", events, spouts,
        lambda n: HandEnrichBolt(db, True, n, "FilterMap"), "FilterMap", parallelism,
        lambda n: HandSlidingCountBolt(window, n), "Count10s", parallelism,
    )


def handcrafted_query5(db: Derby, events, parallelism: int = 1, spouts: int = 1):
    """Query V, hand-written."""
    return _two_stage(
        "hand-q5", events, spouts,
        lambda n: HandEnrichBolt(db, True, n, "FilterMap"), "FilterMap", parallelism,
        lambda n: HandTumblingCountBolt(n, "CountTumbling"), "CountTumbling", parallelism,
    )


def handcrafted_query6(db: Derby, events, parallelism: int = 1, spouts: int = 1, k: int = 3):
    """Query VI, hand-written (three stages)."""
    builder = TopologyBuilder("hand-q6")
    builder.set_spout("events", _spout(events), spouts)
    builder.set_bolt("Locate", HandLocateBolt(db, True, spouts), parallelism).grouping(
        "events", HandRolledGrouping("shuffle")
    )
    builder.set_bolt(
        "Features", HandFeaturesBolt(parallelism, "Features"), parallelism
    ).grouping("Locate", HandRolledGrouping("fields"))
    builder.set_bolt(
        "Cluster", HandClusterBolt(k, parallelism), parallelism
    ).grouping("Features", HandRolledGrouping("fields"))
    sink = AlignedCaptureBolt(n_channels=parallelism)
    builder.set_bolt("SINK", sink, 1).grouping("Cluster", HandRolledGrouping("global"))
    return builder.build(), sink


HANDCRAFTED_BUILDERS = {
    "I": handcrafted_query1,
    "II": handcrafted_query2,
    "III": handcrafted_query3,
    "IV": handcrafted_query4,
    "V": handcrafted_query5,
    "VI": handcrafted_query6,
}
