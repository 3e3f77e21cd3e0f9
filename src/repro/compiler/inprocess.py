"""A second compilation target: the in-process pipeline backend.

The paper's conclusion lists "extend the compilation procedure to target
streaming frameworks other than Storm" as future work.  This backend is
the smallest instance of that claim: the same typed DAG, the same type
checking, compiled not to a distributed topology but to a single-process
*push pipeline* — an object consuming events and returning output
events, suitable for embedding the computation in another program (or
another engine's operator slot).

The compilation reuses the DAG's topological structure directly: every
non-source vertex becomes one node, bound once at construction, that
holds its merge (an explicit ``MRG`` vertex, or the implicit merge of a
multi-input operator), its operator, its sink list and its out-targets
as ``(node, port)`` pairs.  Blocks of events move through the nodes on
one iterative FIFO worklist of ``(node, port, block)`` entries: no dict
lookup or vertex-kind test per hop, and no recursion, so deep chains and
high-fan-out DAGs cannot hit the interpreter's recursion limit.

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


class _Node:
    """One non-source vertex: its merge (an ``MRG`` payload or a multi-
    input operator's implicit merge), operator and sink output list, each
    ``None`` where it has none, and its out-edges' ``(node, port)`` targets."""

    __slots__ = ("merge", "merge_state", "op", "state", "sink", "targets")

    def __init__(self, merge, op, sink, targets):
        self.merge, self.op, self.sink, self.targets = merge, op, sink, targets
        self.merge_state = merge.initial_state() if merge is not None else None
        self.state = op.initial_state() if op is not None else None


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
        self._batched = batched
        self._outputs: Dict[str, List[Event]] = {
            sink.name: [] for sink in dag.sinks()
        }
        # Built downstream-first, so every out-edge's node already exists.
        self._nodes: List[_Node] = []
        self._sources: Dict[str, Tuple[_Node, int]] = {}
        node_of: Dict[int, _Node] = {}
        for vertex in reversed(dag.topological_order()):
            targets = [(node_of[e.dst], e.dst_port) for e in dag.out_edges(vertex)]
            kind = vertex.kind
            if kind == VertexKind.SOURCE:
                (self._sources[vertex.name],) = targets
                continue
            if kind == VertexKind.SPLIT:
                raise CompilationError(
                    "the in-process backend compiles logical DAGs; express "
                    "parallelism with hints (they are ignored here)"
                )
            merge = op = sink = None
            if kind == VertexKind.MERGE:
                merge = vertex.payload
            elif kind == VertexKind.SINK:
                sink = self._outputs[vertex.name]
            else:
                op = vertex.payload
                n_inputs = len(dag.in_edges(vertex))
                merge = Merge(n_inputs) if n_inputs > 1 else None
            node = node_of[vertex.vertex_id] = _Node(merge, op, sink, targets)
            self._nodes.append(node)

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
        """Checkpoint the whole pipeline: every node's operator and merge
        state plus the sink output lengths.

        Taken between pushes, when the push worklist has run to
        completion, so there is no in-flight data to capture; a merge
        whose channels are epochs apart keeps its buffered blocks in its
        state.
        """
        return {
            "nodes": [
                (node.op and node.op.snapshot_state(node.state),
                 node.merge and node.merge.snapshot_state(node.merge_state))
                for node in self._nodes
            ],
            "outputs": {
                name: len(events) for name, events in self._outputs.items()
            },
        }

    def restore(self, snapshot: Any) -> None:
        """Roll the pipeline back to a :meth:`snapshot` checkpoint.

        The snapshot survives intact, so it can be restored again after
        another failure.
        """
        for node, (op_snap, merge_snap) in zip(self._nodes, snapshot["nodes"]):
            if node.op:
                node.state = node.op.restore_state(op_snap)
            if node.merge:
                node.merge_state = node.merge.restore_state(merge_snap)
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

    def _resolve_source(self, source: str) -> Tuple[_Node, int]:
        try:
            return self._sources[source]
        except KeyError:
            raise CompilationError(f"unknown source {source!r}")

    def _drain(
        self, target: Tuple[_Node, int], block: List[Event], batched: bool
    ) -> None:
        """Move a block through the DAG with one FIFO worklist.

        Entries are ``(node, port, block)``; each node consumes its whole
        block and forwards one output block per out-edge.  ``batched``
        picks how its kernels are fed: the whole block at once, or one
        one-event block per event.  A kernel is looked up on its merge
        or operator at each hop, never cached, so a wrapper installed on
        the instance after compilation is the one called.
        """
        work: Deque[Tuple[_Node, int, List[Event]]] = deque([(*target, block)])
        while work:
            node, port, block = work.popleft()
            if not block:
                continue
            if node.sink is not None:
                node.sink.extend(block)
                continue
            if node.merge is not None:
                kernel, state = node.merge.handle_batch, node.merge_state
                if batched:
                    block = kernel(state, port, block)
                else:
                    aligned: List[Event] = []
                    for event in block:
                        aligned.extend(kernel(state, port, [event]))
                    block = aligned
            if node.op is not None and block:
                kernel, state = node.op.handle_batch, node.state
                if batched:
                    block = kernel(state, block)
                else:
                    outputs: List[Event] = []
                    for event in block:
                        outputs.extend(kernel(state, [event]))
                    block = outputs
            for target_node, target_port in node.targets:
                work.append((target_node, target_port, block))


def compile_inprocess(
    dag: TransductionDAG, batched: bool = False
) -> InProcessPipeline:
    """Compile a typed DAG to the in-process backend (see module doc).

    ``batched=True`` selects the epoch-batched fast path for
    :meth:`InProcessPipeline.run` — same canonical sink traces, paid for
    with one kernel call per block instead of one per event.
    """
    return InProcessPipeline(dag, batched=batched)
