"""The whole-graph invariance checker (Theorem 4.2 at DAG granularity)."""

import pytest

from repro.errors import ConsistencyError
from repro.dag import TransductionDAG
from repro.dag.semantics import check_dag_invariance
from repro.operators.base import KV, Marker, Operator
from repro.operators.library import map_values, sliding_count, tumbling_count
from repro.operators.sort import SortOp
from repro.traces.trace_type import unordered_type

U = unordered_type()

EVENTS = [
    KV("a", 3), KV("b", 1), KV("a", 2), Marker(1),
    KV("b", 4), KV("a", 7), Marker(2),
]


class FirstSeen(Operator):
    """Deliberately inconsistent: emits only the first item it sees."""

    input_kind = "U"
    output_kind = "U"
    name = "firstSeen"

    def initial_state(self):
        return {"done": False}

    def handle(self, state, event):
        if isinstance(event, Marker):
            return [event]
        if not state["done"]:
            state["done"] = True
            return [event]
        return []


def template_dag():
    dag = TransductionDAG("good")
    src = dag.add_source("src", output_type=U)
    a = dag.add_op(map_values(lambda v: v * 2, name="M"), parallelism=2,
                   upstream=[src], edge_types=[U])
    b = dag.add_op(sliding_count(2, name="C"), upstream=[a], edge_types=[U])
    dag.add_sink("out", upstream=b)
    return dag


class TestInvarianceChecker:
    def test_template_dag_passes(self):
        check_dag_invariance(template_dag(), {"src": EVENTS}, shuffles=8)

    def test_ordered_sink_flag(self):
        dag = TransductionDAG("sorted")
        src = dag.add_source("src", output_type=U)
        sort = dag.add_op(SortOp(), upstream=[src], edge_types=[U])
        dag.add_sink("out", upstream=sort)
        check_dag_invariance(
            dag, {"src": EVENTS}, shuffles=6, ordered_sinks={"out": True}
        )

    def test_inconsistent_vertex_caught(self):
        dag = TransductionDAG("bad")
        src = dag.add_source("src", output_type=U)
        bad = dag.add_op(FirstSeen(), upstream=[src], edge_types=[U])
        dag.add_sink("out", upstream=bad)
        with pytest.raises(ConsistencyError, match="out"):
            check_dag_invariance(dag, {"src": EVENTS}, shuffles=10, seed=3)

    def test_multi_source(self):
        dag = TransductionDAG("multi")
        s1 = dag.add_source("s1", output_type=U)
        s2 = dag.add_source("s2", output_type=U)
        op = dag.add_op(tumbling_count("C"), upstream=[s1, s2],
                        edge_types=[U, U])
        dag.add_sink("out", upstream=op)
        check_dag_invariance(
            dag,
            {"s1": EVENTS, "s2": [KV("z", 1), Marker(1), Marker(2)]},
            shuffles=6,
        )
