"""Batch/serial parity: the epoch kernels and the batched engines must
denote exactly the serial semantics.

The batch kernels (``Operator.handle_batch``) and the batched backends
built on them (``compile_inprocess(batched=True)``, ``Simulator`` with
:class:`~repro.storm.batching.BatchingOptions`) are only allowed to
reorder what the data-trace types declare invisible — so on every
workload their *canonical* output traces must coincide with the serial
paths'.  Three layers are checked here:

- **kernels** — random streams through each Table 1 template, fed
  per-event vs. in randomly chunked batches, and the keyed templates'
  one kernel against the per-event runtimes it replaced (kept below as
  oracles);
- **combiners** — a pre-folded :class:`CombinedAgg` per key per block
  must be indistinguishable from the raw items, and
  :func:`plan_combiners` must license exactly the edges where that is
  provable;
- **engines** — the Section 2 motivation pipeline compiled and run on
  the simulated cluster, serial vs. micro-batched + combined, across
  seeds: every run must reproduce the sequential denotation
  (seed-sweep invariance of the batched engine).
"""

from __future__ import annotations

import random

import pytest

from repro.apps.iot.pipeline import iot_typed_dag
from repro.apps.iot.sensors import SensorWorkload
from repro.compiler import compile_dag
from repro.compiler.compile import CompilerOptions, source_from_events
from repro.dag import TransductionDAG, evaluate_dag
from repro.errors import TraceTypeError
from repro.operators.base import KV, Marker, Operator
from repro.operators.keyed_ordered import OpKeyedOrdered
from repro.operators.keyed_unordered import CombinedAgg, OpKeyedUnordered, _Record
from repro.operators.library import (
    MaxOfAvgPerKey,
    SlidingAggregate,
    TumblingAggregate,
    filter_items,
    map_values,
    rekey,
    sliding_count,
    tumbling_count,
)
from repro.operators.merge import Merge
from repro.operators.sort import SortOp
from repro.storm.batching import BatchingOptions, plan_combiners
from repro.storm.cluster import Cluster
from repro.storm.local import events_to_trace
from repro.storm.simulator import Simulator
from repro.traces.trace_type import unordered_type

U = unordered_type()


def random_stream(seed: int, n_blocks: int = 4, block_size: int = 12):
    rng = random.Random(seed)
    stream = []
    for block in range(1, n_blocks + 1):
        for _ in range(rng.randrange(block_size + 1)):
            stream.append(KV(rng.choice("abcd"), rng.randrange(10)))
        stream.append(Marker(block))
    return stream


def random_chunks(stream, seed: int):
    """Split a stream at random points (batch boundaries need not align
    with markers — the kernels must cope with partial blocks)."""
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(len(stream) + 1), min(4, len(stream))))
    chunks, prev = [], 0
    for cut in cuts + [len(stream)]:
        if cut > prev:
            chunks.append(stream[prev:cut])
            prev = cut
    return chunks


def run_serial(op, stream):
    state = op.initial_state()
    out = []
    for event in stream:
        out.extend(op.handle(state, event))
    return out


def run_batched(op, stream, chunk_seed: int):
    state = op.initial_state()
    out = []
    for chunk in random_chunks(stream, chunk_seed):
        out.extend(op.handle_batch(state, chunk))
    return out


class CumulativeSum(OpKeyedOrdered):
    def init(self):
        return 0

    def on_item(self, state, key, value, emit):
        total = state + value
        emit(key, total)
        return total


class CountWithEcho(TumblingAggregate):
    """A keyed-unordered op with an *active* ``on_item`` hook, to cover
    the kernel's per-item path (default-hook ops skip it)."""

    def on_item(self, last_state, key, value, emit):
        emit(key, ("echo", value))


def count_with_echo():
    return CountWithEcho(
        inject=lambda k, v: 1,
        identity_elem=0,
        combine_fn=lambda x, y: x + y,
        finish=lambda key, total, ts: total,
        name="echo-count",
    )


class CumulativeSumWithReset(CumulativeSum):
    """Covers the keyed-ordered marker hook (the default one is skipped)."""

    def on_marker(self, state, key, m, emit):
        emit(key, ("reset", state))
        return 0


class BlockCounter(OpKeyedUnordered):
    """Counts the markers each key has survived, so a key first seen
    late reports Table 3's advanced ``startS``."""

    def fold_in(self, key, value):
        return value

    def identity(self):
        return 0

    def combine(self, x, y):
        return x + y

    def init(self):
        return (0, 0)

    def update_state(self, old_state, agg):
        return (old_state[0] + 1, old_state[1] + agg)

    def on_marker(self, new_state, key, m, emit):
        emit(key, new_state)


class KeyedUnorderedOracle:
    """Table 3 event by event: ``OpKeyedUnordered.handle`` and its
    marker loop as they stood before the template kept one kernel.

    Runs a template instance's hooks.  ``SlidingAggregate`` replaces the
    marker loop with its fused step (checked against a left fold in
    ``test_sliding_kernel.py``), so for it the oracle calls ``seal``.
    """

    def __init__(self, op):
        self.op = op

    def initial_state(self):
        return self.op.initial_state()

    def handle(self, state, event):
        op = self.op
        out = []

        def emit(key, value):
            out.append(KV(key, value))

        if isinstance(event, Marker):
            if isinstance(op, SlidingAggregate):
                op.seal(state, event, out)
            else:
                for key, record in state.state_map.items():
                    record.state = op.update_state(record.state, record.agg)
                    record.agg = op.identity()
                    op.on_marker(record.state, key, event, emit)
                state.start_state = op.update_state(state.start_state, op.identity())
            out.append(event)
            return out
        key = event.key
        record = state.state_map.get(key)
        if record is None:
            record = _Record(op.identity(), state.start_state)
            state.state_map[key] = record
        value = event.value
        if isinstance(value, CombinedAgg):
            record.agg = op.combine(record.agg, value.agg)
            return out
        op.on_item(record.state, key, value, emit)
        record.agg = op.combine(record.agg, op.fold_in(key, value))
        return out


class KeyedOrderedOracle:
    """``OpKeyedOrdered.handle`` as it stood before the template kept
    one kernel: per-key states, a key-guarded emit per callback."""

    def __init__(self, op):
        self.op = op

    def initial_state(self):
        return {}

    def handle(self, per_key, event):
        op = self.op
        out = []

        def guarded(key):
            def emit(k, v):
                if k != key:
                    raise TraceTypeError(
                        "OpKeyedOrdered must preserve the input key: "
                        f"got emit({k!r}, ...) while processing key {key!r}"
                    )
                out.append(KV(k, v))

            return emit

        if isinstance(event, Marker):
            for key in list(per_key):
                per_key[key] = op.on_marker(per_key[key], key, event, guarded(key))
            out.append(event)
            return out
        key = event.key
        if key not in per_key:
            per_key[key] = op.init()
        per_key[key] = op.on_item(per_key[key], key, event.value, guarded(key))
        return out


KERNEL_CASES = [
    ("map", lambda: map_values(lambda v: v + 1, name="inc"), False),
    ("filter", lambda: filter_items(lambda k, v: v % 3 != 0, name="f3"), False),
    ("rekey", lambda: rekey(lambda k, v: v % 2, name="rk"), False),
    ("tumbling-count", tumbling_count, False),
    ("sliding-count", lambda: sliding_count(2), False),
    ("max-of-avg", MaxOfAvgPerKey, False),
    ("count-with-echo", count_with_echo, False),
    ("sort", lambda: SortOp(sort_key=lambda v: v, name="srt"), True),
    ("cumsum", CumulativeSum, True),
]


class TestKernelParity:
    @pytest.mark.parametrize(
        "name, factory, ordered", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES]
    )
    def test_handle_batch_matches_handle(self, name, factory, ordered):
        for seed in range(6):
            stream = random_stream(seed)
            serial = run_serial(factory(), stream)
            batched = run_batched(factory(), stream, chunk_seed=seed * 31 + 7)
            assert events_to_trace(batched, ordered) == events_to_trace(
                serial, ordered
            ), f"{name}: batch kernel diverged on seed {seed}"

    def test_stateless_batch_is_bit_identical(self):
        # Stateless kernels do not even reorder: same event list.
        stream = random_stream(3)
        op = map_values(lambda v: v * 2, name="dbl")
        assert run_batched(op, stream, 5) == run_serial(op, stream)

    def test_whole_stream_single_batch(self):
        for _, factory, ordered in KERNEL_CASES:
            stream = random_stream(11)
            serial = run_serial(factory(), stream)
            op = factory()
            state = op.initial_state()
            whole = op.handle_batch(state, stream)
            assert events_to_trace(whole, ordered) == events_to_trace(
                serial, ordered
            )


ORACLE_CASES = [
    ("tumbling-count", tumbling_count, KeyedUnorderedOracle, False),
    ("sliding-count", lambda: sliding_count(2), KeyedUnorderedOracle, False),
    ("max-of-avg", MaxOfAvgPerKey, KeyedUnorderedOracle, False),
    ("count-with-echo", count_with_echo, KeyedUnorderedOracle, False),
    ("block-counter", BlockCounter, KeyedUnorderedOracle, False),
    ("cumsum", CumulativeSum, KeyedOrderedOracle, True),
    ("cumsum-reset", CumulativeSumWithReset, KeyedOrderedOracle, True),
]


class StartStateFrozen(BlockCounter):
    """Kernel mutant: the marker step drops Table 3's ``startS``
    advance, so a key first seen late starts from ``initialState``."""

    def seal(self, state, m, out):
        start = state.start_state
        super().seal(state, m, out)
        state.start_state = start


def oracle_divergence(factory, oracle, ordered, seed):
    """Where the kernel departs from the oracle on one random stream:
    ``None``, ``"serial"`` (one-event blocks, compared event for event)
    or ``"batched"`` (random chunks, compared canonically)."""
    stream = random_stream(seed)
    expected = run_serial(oracle(factory()), stream)
    if run_serial(factory(), stream) != expected:
        return "serial"
    batched = run_batched(factory(), stream, chunk_seed=seed * 17 + 3)
    if events_to_trace(batched, ordered) != events_to_trace(expected, ordered):
        return "batched"
    return None


class TestKernelAgainstOracle:
    @pytest.mark.parametrize(
        "name, factory, oracle, ordered", ORACLE_CASES,
        ids=[c[0] for c in ORACLE_CASES],
    )
    def test_kernel_matches_per_event_runtime(self, name, factory, oracle, ordered):
        for seed in range(6):
            assert oracle_divergence(factory, oracle, ordered, seed) is None, (
                f"{name}: kernel diverged from the per-event oracle on seed {seed}"
            )

    def test_oracle_catches_dropped_start_state_advance(self):
        diverged = [
            oracle_divergence(StartStateFrozen, KeyedUnorderedOracle, False, seed)
            for seed in range(6)
        ]
        assert "serial" in diverged

    def test_marker_hook_key_guard_matches_oracle(self):
        class RekeyAtMarker(CumulativeSum):
            def on_marker(self, state, key, m, emit):
                emit(key + "!", state)
                return state

        for op in (KeyedOrderedOracle(RekeyAtMarker()), RekeyAtMarker()):
            state = op.initial_state()
            assert op.handle(state, KV("a", 1)) == [KV("a", 1)]
            with pytest.raises(TraceTypeError, match="processing key 'a'"):
                op.handle(state, Marker(1))


class TestOneKernel:
    def test_operator_without_a_kernel_raises(self):
        class Bare(Operator):
            pass

        op = Bare()
        with pytest.raises(NotImplementedError, match="must override handle_batch"):
            op.handle(None, KV("a", 1))
        with pytest.raises(NotImplementedError, match="must override handle_batch"):
            op.handle_batch(None, [KV("a", 1), Marker(1)])

    def test_per_event_operator_runs_through_base_kernel(self):
        class Doubler(Operator):
            def handle(self, state, event):
                if isinstance(event, Marker):
                    return [event]
                return [KV(event.key, 2 * event.value)]

        stream = random_stream(4)
        expected = [
            e if isinstance(e, Marker) else KV(e.key, 2 * e.value) for e in stream
        ]
        assert run_batched(Doubler(), stream, 9) == expected
        assert Doubler().run(stream) == expected


class TestMergeKernelParity:
    def test_chunked_channels_match_per_event(self):
        for seed in range(5):
            rng = random.Random(seed)
            n_channels = rng.choice([2, 3])
            # One interleaved delivery schedule of (channel, event).
            deliveries = []
            for channel in range(n_channels):
                stream = random_stream(seed * 10 + channel, n_blocks=3)
                deliveries.append([(channel, e) for e in stream])
            schedule = []
            while any(deliveries):
                channel = rng.choice(
                    [c for c in range(n_channels) if deliveries[c]]
                )
                take = rng.randrange(1, 4)
                schedule.extend(deliveries[channel][:take])
                del deliveries[channel][:take]

            serial_merge = Merge(n_channels)
            state = serial_merge.initial_state()
            serial = []
            for channel, event in schedule:
                serial.extend(serial_merge.handle(state, channel, event))

            batched_merge = Merge(n_channels)
            state = batched_merge.initial_state()
            batched = []
            i = 0
            while i < len(schedule):
                channel = schedule[i][0]
                j = i
                while j < len(schedule) and schedule[j][0] == channel:
                    j += 1
                batched.extend(
                    batched_merge.handle_batch(
                        state, channel, [e for _, e in schedule[i:j]]
                    )
                )
                i = j
            # Marker alignment is deterministic, so the merged streams
            # are identical event-for-event, not just canonically.
            assert batched == serial


class TestCombinedAgg:
    def test_prefolded_block_equals_raw_items(self):
        for seed in range(5):
            stream = random_stream(seed)
            op = tumbling_count()
            serial = run_serial(op, stream)

            combined_op = tumbling_count()
            state = combined_op.initial_state()
            combined = []
            pending = {}
            for event in stream:
                if isinstance(event, Marker):
                    for key, agg in pending.items():
                        combined.extend(
                            combined_op.handle(state, KV(key, CombinedAgg(agg)))
                        )
                    pending.clear()
                    combined.extend(combined_op.handle(state, event))
                else:
                    folded = combined_op.fold_in(event.key, event.value)
                    if event.key in pending:
                        pending[event.key] = combined_op.combine(
                            pending[event.key], folded
                        )
                    else:
                        pending[event.key] = folded
            assert events_to_trace(combined, False) == events_to_trace(
                serial, False
            )


def combiner_pipeline(consumer_factory):
    dag = TransductionDAG("combiner-licensing")
    src = dag.add_source("src", output_type=U)
    v = dag.add_op(
        map_values(lambda v: v + 1, name="inc"), parallelism=2,
        upstream=[src], edge_types=[None],
    )
    v = dag.add_op(
        consumer_factory(), parallelism=2, upstream=[v], edge_types=[None]
    )
    dag.add_sink("out", upstream=v)
    return dag


class TestCombinerLicensing:
    def compile(self, dag, stream):
        return compile_dag(
            dag,
            {"src": source_from_events(stream, parallelism=2)},
            CompilerOptions(fusion=False),
        )

    def test_default_hook_keyed_unordered_edge_is_planned(self):
        stream = random_stream(1)
        compiled = self.compile(combiner_pipeline(tumbling_count), stream)
        plan = plan_combiners(compiled)
        assert len(plan) == 1, plan
        (edge,) = plan
        assert compiled.edge_kinds[edge] == "U"
        assert isinstance(plan[edge], OpKeyedUnordered)

    def test_active_on_item_disqualifies_edge(self):
        stream = random_stream(1)
        compiled = self.compile(combiner_pipeline(count_with_echo), stream)
        assert plan_combiners(compiled) == {}

    def test_non_keyed_unordered_head_disqualifies_edge(self):
        stream = random_stream(1)
        compiled = self.compile(
            combiner_pipeline(lambda: SortOp(sort_key=lambda v: v, name="srt")),
            stream,
        )
        assert plan_combiners(compiled) == {}


class TestSimulatorBatchingParity:
    """The Section 2 motivation pipeline, serial vs. batched, on the
    simulated cluster — canonical sink traces must be identical to the
    sequential denotation for every seed and every batching mode."""

    SEEDS = (0, 1, 2, 3)

    @pytest.fixture(scope="class")
    def workload(self):
        return SensorWorkload(n_sensors=3, duration=30, marker_period=10)

    @pytest.fixture(scope="class")
    def baseline(self, workload):
        dag = iot_typed_dag(parallelism=2)
        return evaluate_dag(
            dag, {"SENSOR": workload.events()}
        ).sink_trace("SINK", False)

    def simulate(self, workload, seed, batching_mode):
        dag = iot_typed_dag(parallelism=2)
        compiled = compile_dag(
            dag,
            {"SENSOR": source_from_events(workload.events(), parallelism=2)},
        )
        if batching_mode == "off":
            batching = None
        elif batching_mode == "micro":
            batching = BatchingOptions.for_compiled(compiled, combine=False)
        elif batching_mode == "combine":
            batching = BatchingOptions.for_compiled(
                compiled, micro_batch=False
            )
        else:
            batching = BatchingOptions.for_compiled(compiled)
        simulator = Simulator(
            compiled.topology,
            Cluster(3, cores_per_machine=2),
            seed=seed,
            batching=batching,
        )
        report = simulator.run()
        trace = events_to_trace(compiled.sinks["SINK"].aligned_events, False)
        return trace, report

    @pytest.mark.parametrize("mode", ["off", "micro", "combine", "full"])
    def test_seed_sweep_matches_denotation(self, workload, baseline, mode):
        traces = []
        for seed in self.SEEDS:
            trace, _ = self.simulate(workload, seed, mode)
            assert trace == baseline, (mode, seed)
            traces.append(trace)
        # Seed-sweep invariance: every interleaving produced the same
        # canonical sink trace.
        assert all(trace == traces[0] for trace in traces)

    def test_batched_run_does_not_drop_work(self, workload):
        _, serial = self.simulate(workload, 1, "off")
        _, batched = self.simulate(workload, 1, "full")
        # Same inputs injected; the batched schedule coalesces
        # executions but every spout tuple is accounted for.
        assert batched.input_data_tuples == serial.input_data_tuples
        assert batched.input_all_tuples == serial.input_all_tuples
        assert batched.makespan > 0

    def test_max_batch_one_still_correct(self, workload, baseline):
        dag = iot_typed_dag(parallelism=2)
        compiled = compile_dag(
            dag,
            {"SENSOR": source_from_events(workload.events(), parallelism=2)},
        )
        batching = BatchingOptions.for_compiled(compiled, max_batch=1)
        Simulator(
            compiled.topology, Cluster(2), seed=2, batching=batching
        ).run()
        trace = events_to_trace(compiled.sinks["SINK"].aligned_events, False)
        assert trace == baseline
