"""Denotational semantics of transduction DAGs (Section 4).

The paper defines the meaning of a DAG by labelling every edge with a
data trace: source edges get the input traces; each processing vertex, in
topological order, maps its incoming traces to outgoing traces; sinks
read off the result.  This module implements exactly that edge-labelling
evaluation over runtime event sequences, returning both the raw event
sequences (one representative of each edge's trace) and — on demand —
the canonical :class:`~repro.traces.blocks.BlockTrace` views used for
equivalence checking.

Multi-input OP vertices are given the marker-aligned ``MRG`` semantics;
the canonical interleaving feeds channels round-robin one event at a
time, which is immaterial at the trace level (any interleaving yields the
same output trace for well-typed DAGs) but keeps evaluation
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import DagError
from repro.operators.base import Event
from repro.operators.merge import Merge
from repro.dag.graph import TransductionDAG, Vertex, VertexKind
from repro.traces.blocks import BlockTrace


@dataclass
class EvaluationResult:
    """Edge labels and sink outputs of one DAG evaluation."""

    #: event sequence labelling each edge, by edge id.
    edge_events: Dict[int, List[Event]]
    #: events delivered to each sink, by sink name.
    sink_events: Dict[str, List[Event]]

    def sink_trace(self, sink_name: str, ordered: bool) -> BlockTrace:
        """The canonical trace delivered to a sink."""
        return BlockTrace.from_events(ordered, self.sink_events[sink_name])


def _interleave_round_robin(channels: List[List[Event]]) -> List[Any]:
    """Canonical interleaving: cycle through channels one event at a time.

    Returns ``(channel_index, event)`` pairs.
    """
    result: List[Any] = []
    cursors = [0] * len(channels)
    remaining = sum(len(c) for c in channels)
    while remaining:
        for i, channel in enumerate(channels):
            if cursors[i] < len(channel):
                result.append((i, channel[cursors[i]]))
                cursors[i] += 1
                remaining -= 1
    return result


def evaluate_dag(
    dag: TransductionDAG,
    source_events: Dict[str, Sequence[Event]],
) -> EvaluationResult:
    """Evaluate ``dag`` on per-source event sequences.

    ``source_events`` maps each source vertex name to the representative
    event sequence of its input trace.  Returns the full edge labelling
    plus per-sink outputs.
    """
    dag.validate()
    edge_events: Dict[int, List[Event]] = {}
    sink_events: Dict[str, List[Event]] = {}

    for vertex in dag.topological_order():
        if vertex.kind == VertexKind.SOURCE:
            if vertex.name not in source_events:
                raise DagError(f"no input supplied for source {vertex.name!r}")
            (out_edge,) = dag.out_edges(vertex)
            edge_events[out_edge.edge_id] = list(source_events[vertex.name])
        elif vertex.kind == VertexKind.SINK:
            (in_edge,) = dag.in_edges(vertex)
            sink_events[vertex.name] = list(edge_events[in_edge.edge_id])
        elif vertex.kind == VertexKind.OP:
            inputs = [edge_events[e.edge_id] for e in dag.in_edges(vertex)]
            merged = _merge_inputs(inputs)
            operator = vertex.payload
            state = operator.initial_state()
            output: List[Event] = []
            for event in merged:
                output.extend(operator.handle(state, event))
            for out_edge in dag.out_edges(vertex):
                edge_events[out_edge.edge_id] = list(output)
        elif vertex.kind == VertexKind.MERGE:
            inputs = [edge_events[e.edge_id] for e in dag.in_edges(vertex)]
            merge: Merge = vertex.payload
            state = merge.initial_state()
            output = []
            for channel, event in _interleave_round_robin(inputs):
                output.extend(merge.handle(state, channel, event))
            (out_edge,) = dag.out_edges(vertex)
            edge_events[out_edge.edge_id] = output
        elif vertex.kind == VertexKind.SPLIT:
            (in_edge,) = dag.in_edges(vertex)
            splitter = vertex.payload
            state = splitter.initial_state()
            per_channel: List[List[Event]] = [[] for _ in range(splitter.n_outputs)]
            for event in edge_events[in_edge.edge_id]:
                for channel, out_event in splitter.handle(state, event):
                    per_channel[channel].append(out_event)
            for out_edge in dag.out_edges(vertex):
                edge_events[out_edge.edge_id] = per_channel[out_edge.src_port]
        else:  # pragma: no cover - exhaustive over VertexKind
            raise DagError(f"unknown vertex kind {vertex.kind}")

    return EvaluationResult(edge_events=edge_events, sink_events=sink_events)


def check_dag_invariance(
    dag: TransductionDAG,
    source_events: Dict[str, Sequence[Event]],
    shuffles: int = 5,
    seed: int = 0,
    ordered_sinks: Optional[Dict[str, bool]] = None,
) -> None:
    """Spot-check that the DAG's denotation is a trace function.

    Evaluates the DAG on the given inputs and on ``shuffles`` random
    within-block permutations of each source stream; every sink must
    deliver the same trace each time.  Raises
    :class:`~repro.errors.ConsistencyError` with the offending sink name
    otherwise.  This is the whole-graph analogue of the per-operator
    Definition 3.5 checker — what Theorem 4.2 guarantees by construction
    for template-built DAGs.
    """
    import random as _random

    from repro.errors import ConsistencyError
    from repro.operators.sampling import shuffle_within_blocks

    ordered_sinks = ordered_sinks or {}
    rng = _random.Random(seed)
    base = evaluate_dag(dag, source_events)
    sink_names = list(base.sink_events)
    baseline = {
        name: base.sink_trace(name, ordered_sinks.get(name, False))
        for name in sink_names
    }
    for _ in range(shuffles):
        variant_inputs = {
            name: shuffle_within_blocks(events, rng)
            for name, events in source_events.items()
        }
        result = evaluate_dag(dag, variant_inputs)
        for name in sink_names:
            got = result.sink_trace(name, ordered_sinks.get(name, False))
            if got != baseline[name]:
                raise ConsistencyError(
                    f"sink {name!r}: output trace depends on the input "
                    "representative — the DAG is not a trace function"
                )


def _merge_inputs(inputs: List[List[Event]]) -> List[Event]:
    """Combine an OP vertex's input channels with implicit MRG semantics."""
    if len(inputs) == 1:
        return inputs[0]
    merge = Merge(len(inputs))
    state = merge.initial_state()
    output: List[Event] = []
    for channel, event in _interleave_round_robin(inputs):
        output.extend(merge.handle(state, channel, event))
    return output
