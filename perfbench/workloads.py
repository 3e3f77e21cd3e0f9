"""The benchmark's three workloads.

Each workload generates its inputs from the seed (untimed), sets the
system up from those inputs (timed as ``setup_s``), and drives passes
over the whole input in each of its modes.  Every pass gets a freshly
built DAG and pipeline or simulator from the cached inputs, so passes
are independent and tracing can wrap a pass's objects before it runs.

- ``fig6-inproc``: the Figure 5 smart-homes DAG on the in-process
  backend; the work is in the operator kernels (SORT, LI, Predict, JFM).
  A single-input chain, so merge alignment does nothing.
- ``yahoo-fanin-inproc``: Figure 3's Query IV with eight Yahoo sources on
  the in-process backend; an 8-way implicit merge, worklist routing and
  table lookups do the work, with no SORT and no model.
- ``q3-sim-recovery``: Query III compiled to a topology (parallelism 8,
  two spouts) on the simulator, 4 machines x 2 cores, with epoch
  checkpoints and the demo fault plan; the primary mode adds
  micro-batching and the typed combiner, the serial mode runs per tuple.
  The simulator's loop, cost model, groupings, merge frontends,
  checkpoints, resequencing and rollback all run here.

In-process workloads are a closed loop: one producer pushes one epoch
block per source and waits for the push to return.  Simulator workloads
are batch jobs that run the whole stream to completion.

The reference output is the paper's semantics (Corollary 4.4,
``evaluate_dag``), reduced to one digest per epoch of each sink's
canonical trace.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.smarthomes import SmartHomesWorkload, smart_homes_dag, train_predictor
from repro.apps.yahoo.events import YahooWorkload
from repro.apps.yahoo.queries import query3, query3_costs, query4_multi_source
from repro.compiler import compile_dag
from repro.compiler.compile import source_from_events
from repro.compiler.inprocess import compile_inprocess
from repro.dag.semantics import evaluate_dag
from repro.storm import Cluster, Simulator
from repro.storm.batching import BatchingOptions
from repro.storm.faults import demo_plan
from repro.storm.local import events_to_trace
from repro.storm.recovery import RecoveryOptions, split_epochs

MACHINES = 4
CORES_PER_MACHINE = 2
SIM_PARALLELISM = MACHINES * CORES_PER_MACHINE
SPOUTS = 2
YAHOO_SOURCES = 8


@dataclasses.dataclass
class Pass:
    """What one pass measured (small: passes are kept for the whole run)."""

    wall: float
    #: input events (simulator: tuples the spouts emitted)
    events: int
    #: per epoch: wall seconds of a batched in-process push, or the
    #: simulated marker latency at the sink
    latencies: List[float]
    #: per-sink epoch digests
    outputs: Dict[str, List[str]] = dataclasses.field(default_factory=dict)
    makespan: Optional[float] = None
    #: simulator report figures the per-layer metrics use
    report: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return self.events / self.wall


def epoch_digests(events, ordered: bool) -> List[str]:
    """One digest per epoch of the canonical trace of ``events``: every
    closed block, then the trailing open block."""
    trace = events_to_trace(events, ordered)
    blocks = trace.closed_blocks() + [trace.open_block()]
    return [
        hashlib.sha1(repr((b.closing_marker, b.canonical())).encode()).hexdigest()
        for b in blocks
    ]


def compare_epochs(got: List[str], want: List[str]) -> Tuple[int, int]:
    """``(epochs checked, epochs differing)``; missing or extra epochs
    count as checked and differing."""
    n = max(len(got), len(want))
    failed = sum(
        1 for i in range(n)
        if i >= len(got) or i >= len(want) or got[i] != want[i]
    )
    return n, failed


class Workload:
    """Inputs, set-up and passes of one workload."""

    name = ""
    #: whether sink traces are compared as ordered (per-key sequences)
    ordered_sink = False
    #: "inprocess" or "simulator"
    backend = ""
    #: whether a run that forced no rollback measured nothing
    requires_rollback = False

    def __init__(self, seed: int):
        self.seed = seed

    def train(self) -> Any:
        """Models the DAG needs (``None`` for DAGs without a model)."""
        return None

    def make_dag(self, models: Any, parallelism: int = 1):
        raise NotImplementedError

    def source_events(self) -> Dict[str, List[Any]]:
        """Each source's whole input stream."""
        raise NotImplementedError

    def build(self, models: Any, primary: bool):
        """A fresh ``(DAG or compiled topology, pipeline or simulator)``."""
        raise NotImplementedError

    def drive(self, runner: Any, primary: bool) -> Pass:
        """Push the whole input through ``runner``."""
        raise NotImplementedError

    def outputs(self, handle: Any, runner: Any) -> Dict[str, List[str]]:
        """Per-sink epoch digests of what a pass delivered."""
        raise NotImplementedError

    def setup(self) -> Any:
        """Everything from generated inputs to a runnable instance:
        database, models, DAG, typecheck and compile.  Returns the models,
        which later passes reuse."""
        models = self.train()
        self.build(models, primary=True)
        return models

    def reference(self) -> Dict[str, List[str]]:
        """Per-sink epoch digests of the reference semantics."""
        result = evaluate_dag(self.make_dag(self.train()), self.source_events())
        return {
            name: epoch_digests(events, self.ordered_sink)
            for name, events in result.sink_events.items()
        }


class InProcessWorkload(Workload):
    backend = "inprocess"

    def __init__(self, seed: int):
        super().__init__(seed)
        #: per epoch: [(source name, block ending with its marker)]
        self.epochs: List[List[Tuple[str, List[Any]]]] = self.make_epochs()
        self.n_events = sum(
            len(block) for epoch in self.epochs for _, block in epoch
        )

    def make_epochs(self) -> List[List[Tuple[str, List[Any]]]]:
        raise NotImplementedError

    def source_events(self) -> Dict[str, List[Any]]:
        streams: Dict[str, List[Any]] = {}
        for epoch in self.epochs:
            for source, block in epoch:
                streams.setdefault(source, []).extend(block)
        return streams

    def build(self, models: Any, primary: bool):
        dag = self.make_dag(models)
        return dag, compile_inprocess(dag, batched=primary)

    def drive(self, pipe, primary: bool) -> Pass:
        """Batched: one ``push_batch`` per source per epoch, timing each
        epoch.  Serial: one ``push`` per event, sources interleaved per
        epoch."""
        clock = time.perf_counter
        latencies = []
        if primary:
            push_batch = pipe.push_batch
            start = clock()
            for epoch in self.epochs:
                t0 = clock()
                for source, block in epoch:
                    push_batch(source, block)
                latencies.append(clock() - t0)
        else:
            push = pipe.push
            start = clock()
            for epoch in self.epochs:
                for source, block in epoch:
                    for event in block:
                        push(source, event)
        return Pass(clock() - start, self.n_events, latencies)

    def outputs(self, dag, pipe) -> Dict[str, List[str]]:
        return {
            name: epoch_digests(pipe.outputs(name), self.ordered_sink)
            for name in pipe.sink_names()
        }


class YahooInputs:
    """A Yahoo stream of ``seconds`` one-second epochs."""

    seconds = 0
    events_per_second = 0

    def generator(self) -> YahooWorkload:
        return YahooWorkload(
            seconds=self.seconds, events_per_second=self.events_per_second,
            seed=self.seed,
        )


class Fig6InProcess(InProcessWorkload):
    name = "fig6-inproc"
    ordered_sink = True  # the sink's type is O_DTYPE
    plugs = (2, 5, 4)  # buildings, units per building, plugs per unit
    duration = 1000  # seconds of stream; one marker per 10 s, so 100 epochs

    def generator(self) -> SmartHomesWorkload:
        buildings, units, plugs = self.plugs
        return SmartHomesWorkload(
            n_buildings=buildings, units_per_building=units,
            plugs_per_unit=plugs, duration=self.duration, marker_period=10,
            seed=self.seed,
        )

    def make_epochs(self):
        return [[("hub", block)] for block in split_epochs(self.generator().events())]

    def train(self):
        return train_predictor(horizon=120, train_seconds=800, past=60, seed=self.seed)

    def make_dag(self, models, parallelism: int = 1):
        return smart_homes_dag(self.generator().make_database(), models, parallelism)


class YahooFanIn(YahooInputs, InProcessWorkload):
    name = "yahoo-fanin-inproc"
    seconds = 300
    events_per_second = 100

    def make_epochs(self):
        """Each second's events dealt round-robin across the sources;
        every source closes the epoch with its own marker."""
        epochs = []
        for block in split_epochs(self.generator().events()):
            marker = block[-1]
            per_source: List[List[Any]] = [[] for _ in range(YAHOO_SOURCES)]
            for i, event in enumerate(block[:-1]):
                per_source[i % YAHOO_SOURCES].append(event)
            epochs.append([
                (f"Yahoo{i}", events + [marker])
                for i, events in enumerate(per_source)
            ])
        return epochs

    def make_dag(self, models, parallelism: int = 1):
        return query4_multi_source(
            self.generator().make_database(), YAHOO_SOURCES, parallelism
        )


class Q3SimRecovery(YahooInputs, Workload):
    name = "q3-sim-recovery"
    backend = "simulator"
    requires_rollback = True
    seconds = 100  # 100 epochs, so the latency tail is p90
    events_per_second = 500

    def __init__(self, seed: int):
        super().__init__(seed)
        self.events = self.generator().events()

    def make_dag(self, models, parallelism: int = 1):
        return query3(self.generator().make_database(), parallelism)

    def source_events(self):
        return {"events": self.events}

    def build(self, models: Any, primary: bool):
        """The primary mode adds micro-batching and the typed combiner;
        both modes run the demo fault plan with a checkpoint per epoch."""
        compiled = compile_dag(
            self.make_dag(models, SIM_PARALLELISM),
            {"events": source_from_events(self.events, SPOUTS)},
        )
        simulator = Simulator(
            compiled.topology, Cluster(MACHINES, cores_per_machine=CORES_PER_MACHINE),
            cost_model=query3_costs(), seed=self.seed,
            batching=BatchingOptions.for_compiled(compiled) if primary else None,
            faults=demo_plan(compiled.topology, self.seed),
            recovery=RecoveryOptions(checkpoint_every=1),
        )
        return compiled, simulator

    def drive(self, simulator, primary: bool) -> Pass:
        start = time.perf_counter()
        report = simulator.run()
        wall = time.perf_counter() - start
        stats = report.recovery
        return Pass(
            wall, report.input_all_tuples,
            list(report.marker_latencies("SINK").values()),
            makespan=report.makespan,
            report={
                "sim_throughput_tps": report.throughput(),
                "delivered": sum(report.processed.values()),
                "rollbacks": stats.recoveries,
                "replayed_events": stats.replayed_events,
                "retransmissions": stats.retransmissions,
                "duplicates_filtered": stats.duplicates_filtered,
            },
        )

    def outputs(self, compiled, simulator) -> Dict[str, List[str]]:
        # The aligned record rolls back with the checkpoints, so it is
        # exactly-once; the report's raw sink_events are at-least-once.
        return {
            name: epoch_digests(bolt.aligned_events, self.ordered_sink)
            for name, bolt in compiled.sinks.items()
        }


WORKLOADS = {cls.name: cls for cls in (Fig6InProcess, YahooFanIn, Q3SimRecovery)}


def reference_digests(name: str, seed: int) -> Dict[str, List[str]]:
    """The reference for one workload and seed (run in a child process,
    so its memory does not count towards the measured peak RSS)."""
    return WORKLOADS[name](seed).reference()
