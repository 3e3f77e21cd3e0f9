"""Transduction DAG construction and structural validation.

A DAG is a tuple ``(S, N, T, E, ->, lambda)`` (Section 4): source
vertices, processing vertices, sink vertices, and typed edges.  The
builder API mirrors the Figure 2 embedded DSL:

>>> dag = TransductionDAG()
>>> src = dag.add_source("events", output_type=U)
>>> op1 = dag.add_op(filter_op, parallelism=2, upstream=[src])
>>> op2 = dag.add_op(sum_op, parallelism=3, upstream=[op1])
>>> dag.add_sink("printer", upstream=op2)
>>> dag.validate()

Processing vertices may take several upstream edges; at evaluation and
deployment time those inputs are combined with a marker-aligned ``MRG``
exactly as the paper's semantics prescribes.  Structural vertices
(explicit merges and splitters) are first-class so that the rewrite rules
of :mod:`repro.dag.rewrite` can be expressed as graph surgery.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import DagError
from repro.operators.base import Operator
from repro.operators.merge import Merge
from repro.operators.split import Splitter
from repro.traces.trace_type import DataTraceType


class VertexKind(enum.Enum):
    """The role a vertex plays in the DAG."""

    SOURCE = "source"
    SINK = "sink"
    OP = "op"
    MERGE = "merge"
    SPLIT = "split"


@dataclass
class Vertex:
    """One DAG vertex.

    ``payload`` is an :class:`Operator` for ``OP``, a :class:`Merge` for
    ``MERGE``, a :class:`Splitter` for ``SPLIT``, and ``None`` for
    sources/sinks.  ``parallelism`` is the deployment hint of Figure 2
    (meaningful for OP vertices only).
    """

    vertex_id: int
    kind: VertexKind
    name: str
    payload: Any = None
    parallelism: int = 1
    #: For SOURCE vertices: the trace type of the emitted stream.
    output_type: Optional[DataTraceType] = None
    #: For SINK vertices: the trace type of the consumed stream.
    input_type: Optional[DataTraceType] = None

    def __repr__(self):
        return f"Vertex({self.vertex_id}, {self.kind.value}, {self.name!r})"


@dataclass
class Edge:
    """A typed channel from ``src`` (output port) to ``dst`` (input port).

    Ports order multiple channels at a splitter's output or a
    merge/operator's input; they are dense indexes starting at 0.
    """

    edge_id: int
    src: int
    src_port: int
    dst: int
    dst_port: int
    trace_type: Optional[DataTraceType] = None

    def __repr__(self):
        return (
            f"Edge({self.src}:{self.src_port} -> {self.dst}:{self.dst_port}, "
            f"{self.trace_type})"
        )


class TransductionDAG:
    """A typed dataflow graph of transduction operators."""

    def __init__(self, name: str = "dag"):
        self.name = name
        self.vertices: Dict[int, Vertex] = {}
        self.edges: Dict[int, Edge] = {}
        self._vertex_counter = itertools.count()
        self._edge_counter = itertools.count()

    # ------------------------------------------------------------------
    # Builder API (mirrors Figure 2).
    # ------------------------------------------------------------------

    def add_source(self, name: str, output_type: Optional[DataTraceType] = None) -> Vertex:
        """Add a source vertex (exactly one outgoing edge once wired)."""
        return self._add_vertex(VertexKind.SOURCE, name, output_type=output_type)

    def add_sink(
        self,
        name: str,
        upstream: Optional["Vertex"] = None,
        input_type: Optional[DataTraceType] = None,
    ) -> Vertex:
        """Add a sink vertex, optionally wiring it to ``upstream``."""
        sink = self._add_vertex(VertexKind.SINK, name, input_type=input_type)
        if upstream is not None:
            self.connect(upstream, sink, trace_type=input_type)
        return sink

    def add_op(
        self,
        operator: Operator,
        parallelism: int = 1,
        upstream: Sequence["Vertex"] = (),
        name: str = "",
        edge_types: Optional[Sequence[Optional[DataTraceType]]] = None,
    ) -> Vertex:
        """Add a processing vertex and wire edges from each ``upstream``.

        ``edge_types`` optionally annotates the new incoming edges; when
        omitted, the operator's declared ``input_type`` is used.
        """
        vertex = self._add_vertex(
            VertexKind.OP, name or operator.label(), payload=operator
        )
        vertex.parallelism = parallelism
        for i, up in enumerate(upstream):
            ttype = None
            if edge_types is not None:
                ttype = edge_types[i]
            elif operator.input_type is not None:
                ttype = operator.input_type
            self.connect(up, vertex, trace_type=ttype)
        return vertex

    def add_merge(
        self, merge: Merge, upstream: Sequence["Vertex"] = (), name: str = ""
    ) -> Vertex:
        """Add an explicit marker-aligned merge vertex."""
        vertex = self._add_vertex(VertexKind.MERGE, name or merge.label(), payload=merge)
        for up in upstream:
            self.connect(up, vertex)
        return vertex

    def add_split(
        self, splitter: Splitter, upstream: Optional["Vertex"] = None, name: str = ""
    ) -> Vertex:
        """Add an explicit splitter vertex (RR / HASH / UNQ)."""
        vertex = self._add_vertex(
            VertexKind.SPLIT, name or splitter.label(), payload=splitter
        )
        if upstream is not None:
            self.connect(upstream, vertex)
        return vertex

    def connect(
        self,
        src: "Vertex",
        dst: "Vertex",
        trace_type: Optional[DataTraceType] = None,
        src_port: Optional[int] = None,
        dst_port: Optional[int] = None,
    ) -> Edge:
        """Add a typed edge; ports default to the next free index."""
        if src.vertex_id not in self.vertices or dst.vertex_id not in self.vertices:
            raise DagError("both endpoints must belong to this DAG")
        if src_port is None:
            src_port = len(self.out_edges(src))
        if dst_port is None:
            dst_port = len(self.in_edges(dst))
        edge = Edge(
            next(self._edge_counter), src.vertex_id, src_port, dst.vertex_id, dst_port,
            trace_type,
        )
        self.edges[edge.edge_id] = edge
        return edge

    def _add_vertex(self, kind: VertexKind, name: str, **kwargs) -> Vertex:
        vertex = Vertex(next(self._vertex_counter), kind, name, **kwargs)
        self.vertices[vertex.vertex_id] = vertex
        return vertex

    # ------------------------------------------------------------------
    # Structure queries.
    # ------------------------------------------------------------------

    def in_edges(self, vertex: "Vertex") -> List[Edge]:
        """Incoming edges of ``vertex``, sorted by destination port."""
        found = [e for e in self.edges.values() if e.dst == vertex.vertex_id]
        return sorted(found, key=lambda e: e.dst_port)

    def out_edges(self, vertex: "Vertex") -> List[Edge]:
        """Outgoing edges of ``vertex``, sorted by source port."""
        found = [e for e in self.edges.values() if e.src == vertex.vertex_id]
        return sorted(found, key=lambda e: e.src_port)

    def sources(self) -> List[Vertex]:
        return [v for v in self.vertices.values() if v.kind == VertexKind.SOURCE]

    def sinks(self) -> List[Vertex]:
        return [v for v in self.vertices.values() if v.kind == VertexKind.SINK]

    def processing_vertices(self) -> List[Vertex]:
        return [
            v
            for v in self.vertices.values()
            if v.kind in (VertexKind.OP, VertexKind.MERGE, VertexKind.SPLIT)
        ]

    def topological_order(self) -> List[Vertex]:
        """Vertices in a topological order; raises on cycles."""
        indegree = {vid: 0 for vid in self.vertices}
        for edge in self.edges.values():
            indegree[edge.dst] += 1
        ready = sorted(vid for vid, deg in indegree.items() if deg == 0)
        order: List[Vertex] = []
        while ready:
            vid = ready.pop(0)
            order.append(self.vertices[vid])
            for edge in self.out_edges(self.vertices[vid]):
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    ready.append(edge.dst)
        if len(order) != len(self.vertices):
            raise DagError("graph contains a cycle")
        return order

    # ------------------------------------------------------------------
    # Validation.
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Structural checks: acyclicity, arity constraints, dense ports.

        - sources have exactly one outgoing and no incoming edge;
        - sinks have exactly one incoming and no outgoing edge;
        - splitter out-degree equals the splitter's ``n_outputs``;
        - merge in-degree equals the merge's ``n_inputs``;
        - input/output ports of each vertex are dense (0..k-1).
        """
        self.topological_order()  # raises on cycles
        for vertex in self.vertices.values():
            ins = self.in_edges(vertex)
            outs = self.out_edges(vertex)
            if vertex.kind == VertexKind.SOURCE:
                if ins:
                    raise DagError(f"source {vertex.name} has incoming edges")
                if len(outs) != 1:
                    raise DagError(
                        f"source {vertex.name} must have exactly one outgoing edge"
                    )
            elif vertex.kind == VertexKind.SINK:
                if outs:
                    raise DagError(f"sink {vertex.name} has outgoing edges")
                if len(ins) != 1:
                    raise DagError(
                        f"sink {vertex.name} must have exactly one incoming edge"
                    )
            elif vertex.kind == VertexKind.OP:
                if not ins:
                    raise DagError(f"operator {vertex.name} has no input")
                if not outs:
                    raise DagError(f"operator {vertex.name} has no consumer")
            elif vertex.kind == VertexKind.SPLIT:
                if len(ins) != 1:
                    raise DagError(f"splitter {vertex.name} must have one input")
                if len(outs) != vertex.payload.n_outputs:
                    raise DagError(
                        f"splitter {vertex.name} declares {vertex.payload.n_outputs} "
                        f"outputs but has {len(outs)} outgoing edges"
                    )
            elif vertex.kind == VertexKind.MERGE:
                if len(ins) != vertex.payload.n_inputs:
                    raise DagError(
                        f"merge {vertex.name} declares {vertex.payload.n_inputs} "
                        f"inputs but has {len(ins)} incoming edges"
                    )
                if len(outs) != 1:
                    raise DagError(f"merge {vertex.name} must have one output")
            for port, edge in enumerate(ins):
                if edge.dst_port != port:
                    raise DagError(f"non-dense input ports at {vertex.name}")
            for port, edge in enumerate(outs):
                if edge.src_port != port:
                    raise DagError(f"non-dense output ports at {vertex.name}")

    def __repr__(self):
        return (
            f"TransductionDAG({self.name!r}, {len(self.vertices)} vertices, "
            f"{len(self.edges)} edges)"
        )
