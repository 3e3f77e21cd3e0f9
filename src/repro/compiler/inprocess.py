"""A second compilation target: the in-process pipeline backend.

The paper's conclusion lists "extend the compilation procedure to target
streaming frameworks other than Storm" as future work.  This backend is
the smallest instance of that claim: the same typed DAG, the same type
checking, compiled not to a distributed topology but to a single-process
*push pipeline* — an object consuming events and returning output
events, suitable for embedding the computation in another program (or
another engine's operator slot).

The compilation reuses the DAG's topological structure directly: every
vertex becomes a node holding its operator state; blocks of events are
pushed through edges with one iterative FIFO worklist of
``(edge_id, block)`` entries (no recursion, so deep chains and high-fan-out
DAGs cannot hit the interpreter's recursion limit).

Execution granularity is a choice of block size, not a second routing
path or a second kernel.  Every vertex consumes its whole input block
and forwards one output block per out-edge, through the one kernel each
operator has (``Operator.handle_batch``, ``Merge.handle_batch``); a
flag picks how the kernel is fed:

- **event-at-a-time** (:meth:`InProcessPipeline.push`, and
  :meth:`InProcessPipeline.run` by default) calls the kernel once per
  event, on a one-event block — the paper's per-event semantics;
- **epoch-batched** (:meth:`InProcessPipeline.push_batch`, and ``run``
  when compiled with ``batched=True``) calls it once per block.

The kernels are licensed by the edge types: the type checker has
already established what order each edge's consumers may rely on, and
a kernel (see :mod:`repro.operators`) may reorder only what the edge
type declares invisible.  FIFO processing preserves per-edge delivery
order, the only order any operator relies on, so both feeds denote the
same trace transduction and their canonical sink traces coincide
(asserted by the parity suite); only the byte order across a fan-out
may differ.  :meth:`InProcessPipeline.run` and
:func:`~repro.storm.recovery.run_with_recovery` share one epoch loop,
:func:`~repro.storm.recovery.drive_epochs`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Sequence, Tuple

from repro.errors import CompilationError
from repro.dag.graph import TransductionDAG, VertexKind
from repro.dag.typecheck import typecheck_dag
from repro.operators.base import Event
from repro.operators.merge import Merge
from repro.storm.recovery import drive_epochs, split_epochs


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
        self._op_state: Dict[int, Any] = {}
        # Explicit MERGE vertices and the implicit merge frontends of
        # multi-input OP vertices, keyed by vertex id.
        self._merges: Dict[int, Merge] = {}
        self._merge_state: Dict[int, Any] = {}
        # Out-edge ids per vertex, resolved once: the worklist's routes.
        self._routes: Dict[int, List[int]] = {}
        self._outputs: Dict[str, List[Event]] = {
            sink.name: [] for sink in dag.sinks()
        }
        self._source_edges: Dict[str, int] = {}
        for vertex in dag.topological_order():
            vertex_id = vertex.vertex_id
            self._routes[vertex_id] = [e.edge_id for e in dag.out_edges(vertex)]
            if vertex.kind == VertexKind.SOURCE:
                (edge_id,) = self._routes[vertex_id]
                self._source_edges[vertex.name] = edge_id
            elif vertex.kind == VertexKind.OP:
                self._op_state[vertex_id] = vertex.payload.initial_state()
                ins = dag.in_edges(vertex)
                if len(ins) > 1:
                    self._merges[vertex_id] = Merge(len(ins))
            elif vertex.kind == VertexKind.MERGE:
                self._merges[vertex_id] = vertex.payload
            elif vertex.kind == VertexKind.SPLIT:
                raise CompilationError(
                    "the in-process backend compiles logical DAGs; express "
                    "parallelism with hints (they are ignored here)"
                )
        for vertex_id, merge in self._merges.items():
            self._merge_state[vertex_id] = merge.initial_state()

    # ------------------------------------------------------------------

    def push(self, source: str, event: Event) -> None:
        """Consume one event from the named source, event at a time."""
        self._drain(self._resolve_source(source), [event], False)

    def push_batch(self, source: str, events: Sequence[Event]) -> None:
        """Consume a block of events from the named source at once,
        one kernel call per vertex."""
        self._drain(self._resolve_source(source), list(events), True)

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
        drained (the push worklist runs to completion), so there is no
        in-flight data to capture.
        """
        vertices = self._dag.vertices
        return {
            "ops": {
                vertex_id: vertices[vertex_id].payload.snapshot_state(state)
                for vertex_id, state in self._op_state.items()
            },
            "merges": {
                vertex_id: self._merges[vertex_id].snapshot_state(state)
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
                self._merges[vertex_id].restore_state(snap)
            )
        for name, length in snapshot["outputs"].items():
            del self._outputs[name][length:]

    def push_block(self, source: str, events: Sequence[Event]) -> None:
        """Consume a block of events with this pipeline's compiled
        granularity: one kernel call per vertex when compiled
        ``batched``, else one per event."""
        self._drain(self._resolve_source(source), list(events), self._batched)

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
        drive_epochs(self, {
            name: split_epochs(events) for name, events in source_events.items()
        })
        return {name: self.outputs(name) for name in self._outputs}

    # ------------------------------------------------------------------

    def _resolve_source(self, source: str) -> int:
        try:
            return self._source_edges[source]
        except KeyError:
            raise CompilationError(f"unknown source {source!r}")

    def _drain(self, edge_id: int, block: List[Event], batched: bool) -> None:
        """Move a block through the DAG with one FIFO worklist.

        Entries are ``(edge_id, block)``; each vertex consumes its whole
        block and forwards one output block per out-edge.  ``batched``
        picks how its kernel is fed: the whole block at once, or one
        one-event block per event, with the kernel bound once.
        """
        edges = self._dag.edges
        vertices = self._dag.vertices
        merges = self._merges
        routes = self._routes
        work: Deque[Tuple[int, List[Event]]] = deque()
        work.append((edge_id, block))
        while work:
            edge_id, block = work.popleft()
            if not block:
                continue
            edge = edges[edge_id]
            vertex = vertices[edge.dst]
            if vertex.kind == VertexKind.SINK:
                self._outputs[vertex.name].extend(block)
                continue
            vertex_id = vertex.vertex_id
            merge = merges.get(vertex_id)
            if merge is not None:
                merge_state, port = self._merge_state[vertex_id], edge.dst_port
                merge_batch = merge.handle_batch
                if batched:
                    block = merge_batch(merge_state, port, block)
                else:
                    aligned: List[Event] = []
                    for event in block:
                        aligned.extend(merge_batch(merge_state, port, [event]))
                    block = aligned
            if vertex.kind == VertexKind.OP and block:
                state = self._op_state[vertex_id]
                kernel = vertex.payload.handle_batch
                if batched:
                    block = kernel(state, block)
                else:
                    outputs: List[Event] = []
                    for event in block:
                        outputs.extend(kernel(state, [event]))
                    block = outputs
            for out_id in routes[vertex_id]:
                work.append((out_id, block))


def compile_inprocess(
    dag: TransductionDAG, batched: bool = False
) -> InProcessPipeline:
    """Compile a typed DAG to the in-process backend (see module doc).

    ``batched=True`` selects the epoch-batched fast path for
    :meth:`InProcessPipeline.run` — same canonical sink traces, paid for
    with one kernel call per block instead of one per event.
    """
    return InProcessPipeline(dag, batched=batched)
