"""Cost models for the discrete-event simulator.

The simulator charges simulated seconds for each tuple a task processes
(CPU) and each hop a tuple makes between machines (network).  Costs are
what turn real operator executions into throughput curves; they are the
substitution for the paper's physical testbed, so each experiment
documents its cost assumptions.

Defaults (order-of-magnitude realistic for JVM stream processors):

- per-tuple framework overhead: 1 us
- local (same-machine) delivery: 0.2 us
- remote (cross-machine) delivery: 10 us plus seeded jitter

Per-component CPU costs are added on top (a database lookup in a JFM
stage costs tens of microseconds; a window-count update costs well under
one microsecond).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional

from repro.operators.base import Event


class CostModel:
    """Base cost model; all times in simulated seconds."""

    #: framework overhead applied to every processed tuple.
    framework_overhead = 1e-6
    local_delivery = 0.2e-6
    remote_delivery = 10e-6
    #: multiplicative jitter range applied to remote delivery.
    jitter = 0.5
    #: receiver-side CPU charged per tuple that crossed machines
    #: (serialization/deserialization); 0 by default, raised by the
    #: communication-cost ablation.
    remote_cpu = 0.0

    def cpu_cost(self, component: str, event: Event, task_index: int = 0) -> float:
        """Extra CPU seconds to process ``event`` at ``component``.

        ``task_index`` identifies the executing task instance; stateful
        cost entries (e.g. aligned-marker triggers) use it to charge
        once per task rather than once per delivery."""
        return 0.0

    def vertex_cost(self, vertex: str, event: Event, task_index: int = 0) -> float:
        """CPU seconds for one *vertex* of a fused chain to process one
        event (used by bolts exposing per-vertex work via ``cost_events``).
        Defaults to :meth:`cpu_cost` on the vertex name."""
        return self.cpu_cost(vertex, event, task_index)

    def glue_cost(self, component: str, event: Event) -> float:
        """Per-delivered-tuple charge for a compiled bolt's merge/align
        glue (charged once per delivery, on top of per-vertex costs)."""
        return 0.0

    def network_delay(
        self, src_machine: int, dst_machine: int, rng: random.Random
    ) -> float:
        """Delivery latency for one tuple between two machines."""
        if src_machine == dst_machine:
            return self.local_delivery
        base = self.remote_delivery
        return base * (1.0 + self.jitter * rng.random())

    def spout_cost(self, component: str, event: Event) -> float:
        """CPU seconds for a spout to emit one tuple."""
        return 0.5e-6


class UniformCostModel(CostModel):
    """Identical per-tuple CPU cost for every component."""

    def __init__(self, per_tuple: float = 1e-6):
        self._per_tuple = per_tuple

    def cpu_cost(self, component: str, event: Event, task_index: int = 0) -> float:
        return self._per_tuple


class PerComponentCostModel(CostModel):
    """Per-component CPU cost, by table with optional callables.

    ``costs`` maps component name to either a float (seconds per tuple)
    or a callable ``event -> seconds``; missing components cost
    ``default`` seconds.
    """

    def __init__(
        self,
        costs: Optional[Dict[str, Any]] = None,
        default: float = 0.5e-6,
    ):
        self._costs = dict(costs or {})
        self._default = default

    def cpu_cost(self, component: str, event: Event, task_index: int = 0) -> float:
        cost = self._costs.get(component, self._default)
        if callable(cost):
            return float(cost(event))
        return float(cost)


class ZeroCostModel(CostModel):
    """Everything free: used by the LocalRunner for correctness-only runs
    (seeded jitter still perturbs interleavings)."""

    framework_overhead = 0.0
    local_delivery = 0.0
    remote_delivery = 0.0

    def network_delay(self, src_machine, dst_machine, rng) -> float:
        # Tiny random delay keeps arrival interleavings nondeterministic
        # across seeds without affecting measured time materially.
        return rng.random() * 1e-9

    def spout_cost(self, component, event) -> float:
        return 0.0
