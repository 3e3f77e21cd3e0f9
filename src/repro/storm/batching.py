"""Type-licensed execution batching for the simulated cluster.

Two independent fast paths, both justified by the data-trace types of
the compiled DAG rather than by luck:

- **Micro-batching** — a task that has several tuples queued executes
  them as one batch through the bolt's ``execute_batch`` entry point,
  paying the per-invocation framework overhead once per batch instead of
  once per tuple.  Batches never run past a synchronization marker
  (epoch granularity), so marker alignment — the one ordering constraint
  every edge type shares — is timed exactly as in the serial engine.

- **Shuffle combiners** — on a ``U(K, V)`` hash-partitioned edge whose
  consumer's chain head is an :class:`OpKeyedUnordered` with the default
  (no-op) ``on_item``, the *sender* folds each epoch's items per key
  into one monoid aggregate and ships a single
  :class:`~repro.operators.keyed_unordered.CombinedAgg` tuple per
  distinct key per epoch.  This is the MapReduce-combiner move, but here
  it is *provably* invisible: the ``U`` edge type says between-marker
  items are mutually independent, and the Table 1 template says the only
  thing the consumer does with them is fold them through a commutative
  monoid — so pre-folding at the sender denotes the identical trace
  (Theorem 4.2's consistency argument, applied at the edge).

:func:`plan_combiners` derives the eligible edges mechanically from
``CompiledTopology.edge_kinds`` (the type checker's verdict projected
onto topology edges) — the type system, not a heuristic, decides where
the engine may batch and pre-aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.operators.keyed_unordered import OpKeyedUnordered
from repro.storm.groupings import MarkerAwareGrouping


@dataclass
class BatchingOptions:
    """Switches for the simulator's epoch-batched fast path.

    ``micro_batch`` — drain queued tuples into per-epoch batches through
    ``execute_batch`` (bolts without that entry point keep running
    tuple-at-a-time).
    ``max_batch`` — upper bound on tuples per batch, so one deep queue
    cannot monopolize a core for arbitrarily long.
    ``combiners`` — sender-side pre-aggregation plan: ``(src component,
    dst component) -> the consumer's head OpKeyedUnordered`` (whose
    ``fold_in``/``combine`` the combiner reuses).  Build it with
    :func:`plan_combiners`; an empty dict disables combining.
    """

    micro_batch: bool = True
    max_batch: int = 512
    combiners: Dict[Tuple[str, str], OpKeyedUnordered] = field(
        default_factory=dict
    )

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")

    @classmethod
    def for_compiled(
        cls,
        compiled,
        micro_batch: bool = True,
        combine: bool = True,
        max_batch: int = 512,
    ) -> "BatchingOptions":
        """Options for a :class:`~repro.compiler.compile.CompiledTopology`,
        with the combiner plan derived from its typed edges."""
        return cls(
            micro_batch=micro_batch,
            max_batch=max_batch,
            combiners=plan_combiners(compiled) if combine else {},
        )


def plan_combiners(compiled) -> Dict[Tuple[str, str], OpKeyedUnordered]:
    """Edges where a sender-side combiner is licensed by the types.

    An edge ``(src, dst)`` qualifies iff *all* of:

    - the type checker assigned it kind ``U`` (between-marker items are
      unordered, hence mutually independent);
    - the consumer is a compiled bolt whose chain head is an
      :class:`OpKeyedUnordered` — the only template whose per-item
      consumption is a commutative-monoid fold;
    - that head's ``on_item`` is the template default (no per-item
      output, so collapsing items is observationally invisible);
    - routing is the marker-aware ``hash`` policy, so every item of a
      key reaches the same task whether or not it was pre-folded.

    ``compiled`` is a :class:`~repro.compiler.compile.CompiledTopology`;
    the import is deferred to keep this module free of a compiler
    dependency cycle.
    """
    from repro.compiler.glue import CompiledBolt

    plan: Dict[Tuple[str, str], OpKeyedUnordered] = {}
    for spec in compiled.topology.components.values():
        payload = spec.payload
        if not isinstance(payload, CompiledBolt) or not payload.operators:
            continue
        head = payload.operators[0]
        if not isinstance(head, OpKeyedUnordered):
            continue
        if type(head).on_item is not OpKeyedUnordered.on_item:
            continue
        for upstream, grouping in spec.inputs.items():
            if not isinstance(grouping, MarkerAwareGrouping):
                continue
            if grouping.policy != "hash":
                continue
            if compiled.edge_kinds.get((upstream, spec.name)) != "U":
                continue
            plan[(upstream, spec.name)] = head
    return plan
