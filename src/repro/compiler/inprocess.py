"""A second compilation target: the in-process pipeline backend.

The paper's conclusion lists "extend the compilation procedure to target
streaming frameworks other than Storm" as future work.  This backend is
the smallest instance of that claim: the same typed DAG, the same type
checking, compiled not to a distributed topology but to a single-process
*push pipeline* — an object consuming events and returning output
events, suitable for embedding the computation in another program (or
another engine's operator slot).

The compilation reuses the DAG's topological structure directly: every
vertex becomes a node holding its operator state; events are pushed
through edges with an iterative worklist (no recursion, so deep chains
and high-fan-out DAGs cannot hit the interpreter's recursion limit).

Two execution granularities share that worklist:

- **event-at-a-time** (:meth:`InProcessPipeline.push`) moves one event
  per worklist entry through ``Operator.handle``;
- **epoch-batched** (:meth:`InProcessPipeline.push_batch`, the default
  for :meth:`InProcessPipeline.run` when compiled with ``batched=True``)
  moves whole ``List[Event]`` blocks through ``Operator.handle_batch``
  and ``Merge.handle_batch``, paying the per-edge plumbing once per
  block instead of once per event.

The batched path is licensed by the edge types: the type checker has
already established what order each edge's consumers may rely on, and
the batch kernels (see :mod:`repro.operators`) reorder only what the
edge type declares invisible — so both granularities denote the same
trace transduction and their canonical sink traces coincide (asserted by
the parity suite).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Sequence, Tuple

from repro.errors import CompilationError
from repro.dag.graph import TransductionDAG, VertexKind
from repro.dag.typecheck import typecheck_dag
from repro.operators.base import Event
from repro.operators.merge import Merge
from repro.storm.recovery import split_epochs


class InProcessPipeline:
    """A compiled single-process executor for a transduction DAG.

    Feed events per source with :meth:`push` (one at a time) or
    :meth:`push_batch` (a block at once); outputs accumulate per sink
    and are retrieved with :meth:`outputs`.  :meth:`run` is the batch
    convenience over whole streams — epoch-batched when the pipeline was
    compiled with ``batched=True``, event-at-a-time otherwise.  Both
    entry points thread the same operator states, so they can be mixed
    freely on one pipeline instance.
    """

    def __init__(self, dag: TransductionDAG, batched: bool = False):
        typecheck_dag(dag)
        self._dag = dag
        self._batched = batched
        self._order = dag.topological_order()
        self._op_state: Dict[int, Any] = {}
        self._merge_state: Dict[int, Any] = {}
        # Implicit merges for multi-input OP vertices.
        self._implicit_merge: Dict[int, Merge] = {}
        self._outputs: Dict[str, List[Event]] = {
            sink.name: [] for sink in dag.sinks()
        }
        self._source_edges: Dict[str, int] = {}
        for vertex in self._order:
            if vertex.kind == VertexKind.SOURCE:
                (edge,) = dag.out_edges(vertex)
                self._source_edges[vertex.name] = edge.edge_id
            elif vertex.kind == VertexKind.OP:
                self._op_state[vertex.vertex_id] = vertex.payload.initial_state()
                ins = dag.in_edges(vertex)
                if len(ins) > 1:
                    merge = Merge(len(ins))
                    self._implicit_merge[vertex.vertex_id] = merge
                    self._merge_state[vertex.vertex_id] = merge.initial_state()
            elif vertex.kind == VertexKind.MERGE:
                self._op_state[vertex.vertex_id] = vertex.payload.initial_state()
            elif vertex.kind == VertexKind.SPLIT:
                raise CompilationError(
                    "the in-process backend compiles logical DAGs; express "
                    "parallelism with hints (they are ignored here)"
                )

    # ------------------------------------------------------------------

    def push(self, source: str, event: Event) -> None:
        """Consume one event from the named source."""
        self._push_edge(self._resolve_source(source), event)

    def push_batch(self, source: str, events: Sequence[Event]) -> None:
        """Consume a block of events from the named source at once.

        The block travels the DAG as a unit: each vertex consumes the
        whole block through its batch kernel and forwards one output
        block per out-edge.
        """
        if events:
            self._push_edge_batch(self._resolve_source(source), list(events))

    def outputs(self, sink: str) -> List[Event]:
        """Everything delivered to ``sink`` so far."""
        return list(self._outputs[sink])

    def sink_names(self) -> List[str]:
        """The DAG's sink names, in declaration order."""
        return list(self._outputs)

    # -- fault tolerance (see repro.storm.recovery) --------------------

    def snapshot(self) -> Any:
        """Checkpoint the whole pipeline: every vertex state plus the
        sink output lengths.

        Meaningful at epoch boundaries — after pushing whole marker-
        terminated blocks through every source — where the DAG is fully
        drained (the push worklists run to completion), so there is no
        in-flight data to capture.
        """
        vertices = self._dag.vertices
        return {
            "ops": {
                vertex_id: vertices[vertex_id].payload.snapshot_state(state)
                for vertex_id, state in self._op_state.items()
            },
            "merges": {
                vertex_id: self._implicit_merge[vertex_id].snapshot_state(state)
                for vertex_id, state in self._merge_state.items()
            },
            "outputs": {
                name: len(events) for name, events in self._outputs.items()
            },
        }

    def restore(self, snapshot: Any) -> None:
        """Roll the pipeline back to a :meth:`snapshot` checkpoint.

        The snapshot survives intact, so it can be restored again after
        another failure.
        """
        vertices = self._dag.vertices
        for vertex_id, snap in snapshot["ops"].items():
            self._op_state[vertex_id] = (
                vertices[vertex_id].payload.restore_state(snap)
            )
        for vertex_id, snap in snapshot["merges"].items():
            self._merge_state[vertex_id] = (
                self._implicit_merge[vertex_id].restore_state(snap)
            )
        for name, length in snapshot["outputs"].items():
            del self._outputs[name][length:]

    def push_block(self, source: str, events: Sequence[Event]) -> None:
        """Consume a block of events at this pipeline's granularity:
        :meth:`push_batch` when compiled ``batched``, else :meth:`push`
        per event."""
        if self._batched:
            self.push_batch(source, events)
        else:
            for event in events:
                self.push(source, event)

    def run(
        self, source_events: Dict[str, Sequence[Event]]
    ) -> Dict[str, List[Event]]:
        """Batch evaluation over whole streams, draining fully.

        Each source's stream is cut into marker-terminated epoch blocks
        and the sources advance in rounds of one block each, so an
        implicit merge holds about one epoch per channel, never a whole
        stream.  A source drops out of the rotation once its blocks run
        out.
        """
        blocks = [
            (name, split_epochs(events))
            for name, events in source_events.items()
        ]
        rounds = max((len(source_blocks) for _, source_blocks in blocks), default=0)
        for epoch in range(rounds):
            for name, source_blocks in blocks:
                if epoch < len(source_blocks):
                    self.push_block(name, source_blocks[epoch])
        return {name: self.outputs(name) for name in self._outputs}

    # ------------------------------------------------------------------

    def _resolve_source(self, source: str) -> int:
        try:
            return self._source_edges[source]
        except KeyError:
            raise CompilationError(f"unknown source {source!r}")

    def _push_edge(self, edge_id: int, event: Event) -> None:
        """Move one event through the DAG with an iterative worklist.

        Entries are ``(edge_id, event)``; FIFO processing preserves
        per-edge delivery order, which is the only order the operators
        rely on.
        """
        edges = self._dag.edges
        vertices = self._dag.vertices
        work: Deque[Tuple[int, Event]] = deque()
        work.append((edge_id, event))
        while work:
            edge_id, event = work.popleft()
            edge = edges[edge_id]
            vertex = vertices[edge.dst]
            if vertex.kind == VertexKind.SINK:
                self._outputs[vertex.name].append(event)
                continue
            if vertex.kind == VertexKind.MERGE:
                outputs = vertex.payload.handle(
                    self._op_state[vertex.vertex_id], edge.dst_port, event
                )
                (out_edge,) = self._dag.out_edges(vertex)
                for out in outputs:
                    work.append((out_edge.edge_id, out))
                continue
            # OP vertex, possibly with an implicit merge frontend.
            merge = self._implicit_merge.get(vertex.vertex_id)
            events: List[Event]
            if merge is not None:
                events = merge.handle(
                    self._merge_state[vertex.vertex_id], edge.dst_port, event
                )
            else:
                events = [event]
            state = self._op_state[vertex.vertex_id]
            out_edges = self._dag.out_edges(vertex)
            handle = vertex.payload.handle
            for incoming in events:
                for out in handle(state, incoming):
                    for out_edge in out_edges:
                        work.append((out_edge.edge_id, out))

    def _push_edge_batch(self, edge_id: int, events: List[Event]) -> None:
        """Move a whole block of events through the DAG at once.

        The worklist carries ``(edge_id, List[Event])`` blocks; each
        vertex consumes its block through the batch kernels, so the
        per-edge bookkeeping is paid once per block rather than once per
        event.
        """
        edges = self._dag.edges
        vertices = self._dag.vertices
        work: Deque[Tuple[int, List[Event]]] = deque()
        work.append((edge_id, events))
        while work:
            edge_id, block = work.popleft()
            if not block:
                continue
            edge = edges[edge_id]
            vertex = vertices[edge.dst]
            if vertex.kind == VertexKind.SINK:
                self._outputs[vertex.name].extend(block)
                continue
            if vertex.kind == VertexKind.MERGE:
                outputs = vertex.payload.handle_batch(
                    self._op_state[vertex.vertex_id], edge.dst_port, block
                )
                (out_edge,) = self._dag.out_edges(vertex)
                work.append((out_edge.edge_id, outputs))
                continue
            merge = self._implicit_merge.get(vertex.vertex_id)
            if merge is not None:
                block = merge.handle_batch(
                    self._merge_state[vertex.vertex_id], edge.dst_port, block
                )
                if not block:
                    continue
            outputs = vertex.payload.handle_batch(
                self._op_state[vertex.vertex_id], block
            )
            for out_edge in self._dag.out_edges(vertex):
                work.append((out_edge.edge_id, outputs))


def compile_inprocess(
    dag: TransductionDAG, batched: bool = False
) -> InProcessPipeline:
    """Compile a typed DAG to the in-process backend (see module doc).

    ``batched=True`` selects the epoch-batched fast path for
    :meth:`InProcessPipeline.run` — same canonical sink traces, paid for
    with one batch-kernel invocation per block instead of one ``handle``
    per event.
    """
    return InProcessPipeline(dag, batched=batched)
