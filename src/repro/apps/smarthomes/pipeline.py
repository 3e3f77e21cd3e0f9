"""The Figure 5 transduction DAG: smart-homes load prediction.

``JFM -> SORT -> LI -> Map -> SORT -> Avg -> Predict -> SINK``

Stage semantics (Section 6):

- **JFM** joins each measurement with the plug->device-type table,
  filters to the device types under analysis, and re-shapes the tuple
  into a plug key and a timestamped value.
- **SORT** restores per-plug timestamp order inside each marker block
  (the hub's watermark guarantee makes this a total per-key order).
- **LI** fills missing per-second data points by linear interpolation
  (Table 2's ``linearInterpolation``).
- **Map** projects the plug key to its device type.
- **SORT** restores per-device-type timestamp order.
- **Avg** averages, per device type, all values with the same timestamp
  (one output value per second).
- **Predict** forecasts the consumption over the next ``horizon``
  seconds with a REPTree over (second-of-day, current load, past-minute
  consumption).

The compiler fuses this into the Figure 5 deployment:
``JFM | H  ->  MRG;SORT;LI;Map | H  ->  MRG;SORT;Avg;Predict | UNQ``.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Any, Callable, Dict, Optional, Tuple

from repro.apps.smarthomes.events import SmartHomesWorkload
from repro.dag.graph import TransductionDAG
from repro.db import Derby
from repro.ml.reptree import RepTree
from repro.operators.base import Marker
from repro.operators.keyed_ordered import OpKeyedOrdered
from repro.operators.library import TableJoin, map_pairs
from repro.operators.sort import SortOp
from repro.traces.trace_type import ordered_type, unordered_type

U_READINGS = unordered_type("Ut", "SItem")
U_PLUG = unordered_type("Plug", "VT")
O_PLUG = ordered_type("Plug", "VT")
U_DTYPE = unordered_type("DType", "VT")
O_DTYPE = ordered_type("DType", "VT")

#: Per-tuple CPU costs by DAG vertex (simulated seconds); the bench
#: harness sums these per fused component.
VERTEX_COSTS: Dict[str, float] = {
    "JFM": 30e-6,     # plug->device lookup
    "SORT1": 1.5e-6,  # per-item buffer/sort amortized
    "LI": 1e-6,
    "Map": 0.5e-6,
    "SORT2": 1.5e-6,
    "Avg": 1e-6,
    "Predict": 5e-6,  # regression-tree inference
}


DEFAULT_KEEP_TYPES = (
    "ac", "lights", "heater", "tv", "washer", "dryer", "dishwasher",
    "oven", "computer", "waterheater",
)


def jfm_stage(db: Derby, keep_types=DEFAULT_KEEP_TYPES) -> TableJoin:
    """Join-filter-map: plug lookup, device-type filter, tuple reshape."""
    keep = frozenset(keep_types)
    # Bind the table's indexed point lookup once; the join calls it per
    # reading (the stage's hot path).
    lookup_one = db.tables["plugs"].lookup_one

    def lookup(key, reading):
        plug_key = reading.plug_key()
        row = lookup_one("plug_key", plug_key)
        if row is None:
            return []
        device_type = row[1]
        if device_type not in keep:
            return []
        return [(plug_key, (reading.value, reading.timestamp, device_type))]

    return TableJoin(lookup, name="JFM")


class LinearInterpolationOp(OpKeyedOrdered):
    """Table 2's ``linearInterpolation``: per plug, fill per-second gaps.

    State is the previous ``(value, ts, dtype)``; each new sample emits
    the interpolated points for ``ts_prev+1 .. ts`` (the sample itself
    included).  Duplicate timestamps emit nothing and keep the earlier
    sample, matching the batch oracle in :mod:`repro.ml.interpolate`.
    """

    name = "LI"

    def init(self):
        return None

    def copy_state(self, state):
        # A mutable [load, ts, dtype] triple of scalars (or None).
        # repro: ignore[DT402] -- elements are scalars, one level deep
        return state if state is None else list(state)

    def on_item(self, state, key, value, emit):
        # State is a mutable [load, ts, dtype] triple updated in place —
        # one list allocated per key instead of one tuple per sample.
        load, ts, dtype = value
        if state is None:
            emit(key, value)
            return [load, ts, dtype]
        prev_load, prev_ts, _ = state
        dt = ts - prev_ts
        if dt <= 0:
            return state  # duplicate timestamp: keep the first sample
        diff = load - prev_load
        for i in range(1, dt + 1):
            emit(key, (prev_load + i * diff / dt, prev_ts + i, dtype))
        state[0] = load
        state[1] = ts
        state[2] = dtype
        return state


class AveragePerSecondOp(OpKeyedOrdered):
    """Per device type, average all values sharing a timestamp.

    Input is per-key sorted by timestamp, so a strictly larger timestamp
    proves the previous second's group is complete (up to items delayed
    across interpolation gaps, which streaming averaging inherently
    assigns to their arrival group).
    """

    name = "Avg"

    def init(self):
        return None  # or [ts, total, count]

    def copy_state(self, state):
        # A mutable [ts, total, count] triple of scalars (or None).
        # repro: ignore[DT402] -- elements are scalars, one level deep
        return state if state is None else list(state)

    def on_item(self, state, key, value, emit):
        # State is a mutable [ts, total, count] triple updated in place.
        load, ts = value
        if state is None:
            return [ts, load, 1]
        current_ts = state[0]
        if ts == current_ts:
            state[1] += load
            state[2] += 1
            return state
        emit(key, (state[1] / state[2], current_ts))
        state[0] = ts
        state[1] = load
        state[2] = 1
        return state


class PredictOp(OpKeyedOrdered):
    """REPTree forecast per device type and second.

    Keeps the past minute of per-second averages; once the window is
    warm, each new second emits ``(ts, predicted next-horizon sum)``.

    Per key the state is two parallel deques, ``(timestamps, loads)``:
    the key's earlier samples, oldest first, less those evicted.
    ``on_item`` evicts every entry with timestamp ``< ts - past``, is
    warm once ``past // 2`` entries remain, takes ``sum(loads)``
    *before* appending the new sample, and appends last.  The
    past-minute sum thus adds exactly the samples with timestamps in
    ``[ts - past, ts)``, oldest first, through the builtin ``sum``: on a
    dense series the same floats in the same order as
    ``make_features``' ``sum(loads[i - past : i])``, so the model sees
    bit-identical features online and in training, on every Python
    version (3.12's compensated ``sum`` included).  A running sum would
    make the floats depend on the additions and evictions that led up
    to them.
    """

    name = "Predict"

    def __init__(self, models: Dict[str, RepTree], past: int = 60):
        self._models = models
        self._past = past

    def init(self):
        return deque(), deque()

    def copy_state(self, state):
        # Two deques of scalars (timestamps, loads).
        timestamps, loads = state
        return deque(timestamps), deque(loads)

    def on_item(self, state, key, value, emit):
        avg_load, ts = value
        timestamps, loads = state
        cutoff = ts - self._past
        while timestamps and timestamps[0] < cutoff:
            timestamps.popleft()
            loads.popleft()
        if len(timestamps) >= self._past // 2:
            past_sum = sum(loads)
            model = self._models.get(key)
            if model is not None:
                prediction = model.predict([float(ts % 86400), avg_load, past_sum])
                emit(key, (ts, round(prediction, 3)))
        timestamps.append(ts)
        loads.append(avg_load)
        return state


def map_to_device_type() -> Any:
    """The Map stage: project the plug key to its device type."""
    return map_pairs(
        lambda plug_key, value: (value[2], (value[0], value[1])), name="Map"
    )


def smart_homes_dag(
    db: Derby,
    models: Dict[str, RepTree],
    parallelism: int = 1,
) -> TransductionDAG:
    """Build the Figure 5 DAG with the given per-stage parallelism."""
    dag = TransductionDAG("smart-homes")
    src = dag.add_source("hub", output_type=U_READINGS)
    jfm = dag.add_op(
        jfm_stage(db), parallelism=parallelism, upstream=[src],
        edge_types=[U_READINGS], name="JFM",
    )
    sort1 = dag.add_op(
        SortOp(sort_key=itemgetter(1), name="SORT1"),
        parallelism=parallelism, upstream=[jfm], edge_types=[U_PLUG],
    )
    li = dag.add_op(
        LinearInterpolationOp(), parallelism=parallelism, upstream=[sort1],
        edge_types=[O_PLUG], name="LI",
    )
    map_stage = dag.add_op(
        map_to_device_type(), parallelism=parallelism, upstream=[li],
        edge_types=[O_PLUG], name="Map",
    )
    sort2 = dag.add_op(
        SortOp(sort_key=itemgetter(1), name="SORT2"),
        parallelism=parallelism, upstream=[map_stage], edge_types=[U_DTYPE],
    )
    avg = dag.add_op(
        AveragePerSecondOp(), parallelism=parallelism, upstream=[sort2],
        edge_types=[O_DTYPE], name="Avg",
    )
    predict = dag.add_op(
        PredictOp(models), parallelism=parallelism, upstream=[avg],
        edge_types=[O_DTYPE], name="Predict",
    )
    dag.add_sink("SINK", upstream=predict, input_type=O_DTYPE)
    return dag


def smart_homes_costs() -> Dict[str, float]:
    """Per-vertex CPU costs (see :data:`VERTEX_COSTS`)."""
    return dict(VERTEX_COSTS)
