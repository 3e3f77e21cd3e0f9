"""The DAG-to-topology compiler (Section 5).

``compile_dag(dag, sources)`` produces a runnable topology:

1. the DAG is validated and type-checked (Figure 2's
   ``getStormTopology()`` behaviour — type errors abort compilation);
2. explicit ``MRG`` vertices are inlined into their consumer's merge
   frontend (every compiled bolt re-aligns all upstream substreams);
3. operators are grouped into *fusion chains* — maximal sequences that
   can run inside one task without repartitioning (``SORT;LI;Map`` in
   Figure 5).  A chain boundary is placed exactly where the next operator
   needs its input re-routed (a keyed operator after a key-changing one,
   or any parallelism change);
4. each chain becomes one bolt wrapped in a
   :class:`~repro.compiler.glue.CompiledBolt`; connections get
   marker-aware groupings chosen from the chain-head operator:
   round-robin for stateless heads, key hash for
   keyed/sorting heads, single-task for sinks.

Sinks compile to :class:`~repro.compiler.glue.AlignedCaptureBolt`
instances returned in the result for reading output traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CompilationError
from repro.compiler.glue import AlignedCaptureBolt, CompiledBolt
from repro.dag.graph import TransductionDAG, Vertex, VertexKind
from repro.dag.typecheck import typecheck_dag
from repro.operators.base import Event, KV, Marker, Operator
from repro.operators.identity import IdentityOp
from repro.operators.keyed_ordered import OpKeyedOrdered
from repro.operators.keyed_unordered import OpKeyedUnordered
from repro.operators.sort import SortOp
from repro.operators.stateless import OpStateless
from repro.storm.groupings import MarkerAwareGrouping
from repro.storm.topology import IteratorSpout, Topology, TopologyBuilder


@dataclass
class CompilerOptions:
    """Compilation switches.

    ``fusion`` — fuse chains into single bolts (disable for the ablation).
    """

    fusion: bool = True


@dataclass
class SourceSpec:
    """How a DAG source vertex materializes as a spout.

    ``make_iterator(task_index, n_tasks)`` yields this task's partition
    of the stream (each partition must carry the full marker sequence).
    """

    make_iterator: Callable[[int, int], Iterator[Event]]
    parallelism: int = 1


def source_from_events(events: Sequence[Event], parallelism: int = 1) -> SourceSpec:
    """A source spec that partitions a concrete event list round-robin
    across spout tasks, broadcasting every marker to each task."""

    def make_iterator(task_index: int, n_tasks: int) -> Iterator[Event]:
        data_seen = 0
        for event in events:
            if isinstance(event, Marker):
                yield event
            else:
                if data_seen % n_tasks == task_index:
                    yield event
                data_seen += 1

    return SourceSpec(make_iterator, parallelism)


@dataclass
class CompiledTopology:
    """Compilation result: the topology plus handles into it."""

    topology: Topology
    #: sink vertex name -> its AlignedCaptureBolt (read outputs here).
    sinks: Dict[str, AlignedCaptureBolt]
    #: DAG vertex id -> topology component name.
    component_of: Dict[int, str]
    #: (src component, dst component) -> stream kind ("U"/"O") of the
    #: traffic on that topology edge, from the DAG type checker.  Online
    #: monitors (:meth:`repro.obs.monitor.MonitorHub.for_compiled`) use
    #: this to decide which invariants each edge must satisfy.
    edge_kinds: Dict[Tuple[str, str], str] = field(default_factory=dict)


def compile_dag(
    dag: TransductionDAG,
    sources: Dict[str, SourceSpec],
    options: Optional[CompilerOptions] = None,
) -> CompiledTopology:
    """Compile a typed transduction DAG into a topology (see module doc)."""
    options = options or CompilerOptions()
    kinds_by_edge_id = typecheck_dag(dag)

    producers, consumers = _wiring_without_merges(dag)

    for vertex in dag.vertices.values():
        if vertex.kind == VertexKind.SPLIT:
            raise CompilationError(
                "explicit splitter vertices are not compiled; express data "
                "parallelism with parallelism hints instead"
            )
    for source in dag.sources():
        if source.name not in sources:
            raise CompilationError(f"no SourceSpec supplied for {source.name!r}")

    chains = _fusion_chains(dag, producers, consumers, options)
    chain_of: Dict[int, List[int]] = {}
    for chain in chains:
        for vid in chain:
            chain_of[vid] = chain

    builder = TopologyBuilder(dag.name)
    component_of: Dict[int, str] = {}
    used_names: Dict[str, int] = {}

    def unique_name(base: str) -> str:
        count = used_names.get(base, 0)
        used_names[base] = count + 1
        return base if count == 0 else f"{base}.{count}"

    # Spouts.
    for source in dag.sources():
        spec = sources[source.name]
        name = unique_name(source.name)
        component_of[source.vertex_id] = name
        builder.set_spout(name, IteratorSpout(spec.make_iterator), spec.parallelism)

    # Upstream parallelism lookup (component-level) is needed for merge
    # frontends; compute lazily after all names are assigned, so collect
    # bolt declarations first.
    chain_names: Dict[int, str] = {}
    for chain in chains:
        ops = [dag.vertices[vid].payload for vid in chain]
        base = ";".join(dag.vertices[vid].name for vid in chain)
        name = unique_name(base)
        for vid in chain:
            component_of[vid] = name
        chain_names[id(chain)] = name

    sink_bolts: Dict[str, AlignedCaptureBolt] = {}

    # Declare bolts with their inputs.
    parallelism_of: Dict[str, int] = {}
    for source in dag.sources():
        parallelism_of[component_of[source.vertex_id]] = sources[source.name].parallelism
    for chain in chains:
        parallelism_of[chain_names[id(chain)]] = dag.vertices[chain[0]].parallelism

    for chain in chains:
        head = dag.vertices[chain[0]]
        name = chain_names[id(chain)]
        upstream_vertices = producers[head.vertex_id]
        upstream_components = sorted(
            {component_of[u] for u in upstream_vertices}
        )
        n_channels = sum(parallelism_of[c] for c in upstream_components)
        bolt = CompiledBolt(
            [dag.vertices[vid].payload for vid in chain],
            n_channels=n_channels,
            name=name,
        )
        declarer = builder.set_bolt(name, bolt, head.parallelism)
        policy = _routing_policy(head.payload)
        for upstream in upstream_components:
            declarer.grouping(upstream, MarkerAwareGrouping(policy))

    # Sinks.
    for sink in dag.sinks():
        name = unique_name(sink.name)
        component_of[sink.vertex_id] = name
        upstream_vertices = producers[sink.vertex_id]
        upstream_components = sorted({component_of[u] for u in upstream_vertices})
        n_channels = sum(parallelism_of[c] for c in upstream_components)
        bolt = AlignedCaptureBolt(n_channels=n_channels)
        sink_bolts[sink.name] = bolt
        declarer = builder.set_bolt(name, bolt, 1)
        for upstream in upstream_components:
            declarer.grouping(upstream, MarkerAwareGrouping("global"))

    topology = builder.build()
    edge_kinds = _component_edge_kinds(dag, kinds_by_edge_id, component_of)
    return CompiledTopology(topology, sink_bolts, component_of, edge_kinds)


# ----------------------------------------------------------------------
# Helpers.
# ----------------------------------------------------------------------


def _component_edge_kinds(
    dag: TransductionDAG,
    kinds_by_edge_id: Dict[int, str],
    component_of: Dict[int, str],
) -> Dict[Tuple[str, str], str]:
    """Project DAG edge kinds onto topology component edges.

    MERGE vertices dissolve into their consumer's frontend, so the kind
    of traffic a producer component puts on the wire is the kind of its
    DAG out-edge (possibly routed through merges).  Edges internal to a
    fusion chain never hit the wire and are skipped.  If two DAG edges
    map onto one component edge with different kinds, the weaker ``U``
    wins — monitors must never demand more order than the type grants.
    """

    def producer_edges(edge) -> List[Tuple[int, int]]:
        """(producer vertex id, wire edge id) pairs behind ``edge``."""
        src = dag.vertices[edge.src]
        if src.kind == VertexKind.MERGE:
            pairs: List[Tuple[int, int]] = []
            for upstream in dag.in_edges(src):
                pairs.extend(producer_edges(upstream))
            return pairs
        return [(src.vertex_id, edge.edge_id)]

    edge_kinds: Dict[Tuple[str, str], str] = {}
    for vertex in dag.vertices.values():
        if vertex.kind == VertexKind.MERGE:
            continue
        dst = component_of.get(vertex.vertex_id)
        if dst is None:
            continue
        for edge in dag.in_edges(vertex):
            for producer_id, edge_id in producer_edges(edge):
                src = component_of.get(producer_id)
                if src is None or src == dst:
                    continue
                kind = kinds_by_edge_id.get(edge_id, "U")
                existing = edge_kinds.get((src, dst))
                if existing is not None and existing != kind:
                    kind = "U"
                edge_kinds[(src, dst)] = kind
    return edge_kinds


def _wiring_without_merges(dag: TransductionDAG):
    """Producer/consumer vertex-id maps with MERGE vertices inlined.

    ``producers[v]`` lists the non-merge vertices feeding ``v`` (merges
    replaced by their own producers, transitively); ``consumers[v]``
    symmetric.
    """
    producers: Dict[int, List[int]] = {}
    consumers: Dict[int, List[int]] = {}

    def resolve_up(vid: int) -> List[int]:
        vertex = dag.vertices[vid]
        result: List[int] = []
        for edge in dag.in_edges(vertex):
            up = dag.vertices[edge.src]
            if up.kind == VertexKind.MERGE:
                result.extend(resolve_up(up.vertex_id))
            else:
                result.append(up.vertex_id)
        return result

    def resolve_down(vid: int) -> List[int]:
        vertex = dag.vertices[vid]
        result: List[int] = []
        for edge in dag.out_edges(vertex):
            down = dag.vertices[edge.dst]
            if down.kind == VertexKind.MERGE:
                result.extend(resolve_down(down.vertex_id))
            else:
                result.append(down.vertex_id)
        return result

    for vertex in dag.vertices.values():
        if vertex.kind == VertexKind.MERGE:
            continue
        producers[vertex.vertex_id] = resolve_up(vertex.vertex_id)
        consumers[vertex.vertex_id] = resolve_down(vertex.vertex_id)
    return producers, consumers


def _preserves_keys(operator: Operator) -> bool:
    """Whether the operator is guaranteed to emit under its input key."""
    return isinstance(operator, (SortOp, OpKeyedOrdered, IdentityOp))


def _needs_hash(operator: Operator) -> bool:
    """Whether the operator requires all items of a key in one task."""
    return isinstance(operator, (SortOp, OpKeyedOrdered, OpKeyedUnordered))


def _routing_policy(operator: Operator) -> str:
    if _needs_hash(operator):
        return "hash"
    if isinstance(operator, OpStateless):
        return "rr"
    # Kind-polymorphic (identity-like): hash is always sound.
    return "hash"


def _fusion_chains(
    dag: TransductionDAG,
    producers: Dict[int, List[int]],
    consumers: Dict[int, List[int]],
    options: CompilerOptions,
) -> List[List[int]]:
    """Group OP vertices into maximal fusable chains (topological order)."""
    op_ids = [
        v.vertex_id for v in dag.topological_order() if v.kind == VertexKind.OP
    ]

    def fusable(up_id: int, down_id: int) -> bool:
        if not options.fusion:
            return False
        up, down = dag.vertices[up_id], dag.vertices[down_id]
        if up.kind != VertexKind.OP or down.kind != VertexKind.OP:
            return False
        if consumers[up_id] != [down_id] or producers[down_id] != [up_id]:
            return False
        if up.parallelism != down.parallelism:
            return False
        if isinstance(down.payload, OpStateless) or isinstance(
            down.payload, IdentityOp
        ):
            return True
        if _needs_hash(down.payload) and _preserves_keys(up.payload):
            return True
        return False

    chain_of: Dict[int, List[int]] = {}
    chains: List[List[int]] = []
    for vid in op_ids:
        ups = producers[vid]
        if (
            len(ups) == 1
            and ups[0] in chain_of
            and fusable(ups[0], vid)
        ):
            chain = chain_of[ups[0]]
            # Only extend if the upstream is the current chain tail.
            if chain[-1] == ups[0]:
                chain.append(vid)
                chain_of[vid] = chain
                continue
        chain = [vid]
        chains.append(chain)
        chain_of[vid] = chain
    return chains
