"""Correctness-oriented local execution of topologies.

:class:`LocalRunner` runs a topology through the discrete-event engine
with a zero cost model (free CPU, jittered-but-negligible network) on a
single big machine.  The outputs are exactly what a distributed run would
produce under one particular interleaving; sweeping ``seed`` explores
other interleavings.  This is the harness behind the Section 2
motivation experiment: an order-sensitive pipeline naively parallelized
produces seed-dependent outputs, while a compiled typed pipeline is
seed-invariant.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs import ObsContext
from repro.operators.base import Event
from repro.storm.cluster import Cluster
from repro.storm.costs import ZeroCostModel
from repro.storm.simulator import SimulationReport, Simulator
from repro.storm.topology import Topology
from repro.traces.blocks import BlockTrace


class LocalRunner:
    """Run a topology to completion in-process.

    ``obs`` (optional :class:`~repro.obs.ObsContext`) instruments the
    run; with the zero cost model the interesting signals are the
    marker-epoch spans and queue-depth timelines rather than CPU time.
    """

    def __init__(self, topology: Topology, seed: int = 0,
                 obs: Optional[ObsContext] = None):
        self.topology = topology
        self.seed = seed
        self.obs = obs

    def run(self) -> SimulationReport:
        cluster = Cluster(n_machines=1, cores_per_machine=4)
        simulator = Simulator(
            self.topology,
            cluster,
            cost_model=ZeroCostModel(),
            seed=self.seed,
            obs=self.obs,
        )
        return simulator.run()

    def sink_trace(self, sink: str, ordered: bool) -> BlockTrace:
        """Run and return the canonical trace delivered to ``sink``."""
        report = self.run()
        return events_to_trace(report.sink_events[sink], ordered)

    def sweep_seeds(
        self, sink: str, ordered: bool, seeds=range(5)
    ) -> List[BlockTrace]:
        """Canonical sink traces across interleaving seeds.

        All equal => the topology's output is interleaving-invariant on
        this workload; distinct values witness semantic nondeterminism.
        """
        traces = []
        for seed in seeds:
            report = LocalRunner(self.topology, seed=seed).run()
            traces.append(events_to_trace(report.sink_events[sink], ordered))
        return traces


def events_to_trace(events: List[Event], ordered: bool) -> BlockTrace:
    """Canonical :class:`BlockTrace` view of a delivered event sequence."""
    return BlockTrace.from_events(ordered, events)
