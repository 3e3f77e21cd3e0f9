"""Operator templates and structural operators (Section 4).

The three templates of Table 1 constrain vertex code so that it is
consistent with its input/output trace types by construction
(Theorem 4.2):

- :class:`OpStateless` — ``U(K, V) -> U(L, W)``: per-item output only.
- :class:`OpKeyedOrdered` — ``O(K, V) -> O(K, W)``: per-key stateful,
  order-dependent, output preserves the input key.
- :class:`OpKeyedUnordered` — ``U(K, V) -> U(L, W)``: per-key stateful
  where between-marker items are folded through a commutative monoid
  (the Table 3 algorithm).

Structural operators complete the Section 4 algebra: marker-aligned
:class:`Merge` (``MRG``), the splitters :class:`RoundRobinSplit` (``RR``)
and :class:`HashSplit` (``HASH``), between-marker :class:`SortOp`
(``SORT``), and :func:`identity_op`.

:mod:`repro.operators.library` layers common streaming idioms (map,
filter, tumbling/sliding window aggregation, stream-table join) on top of
the templates; its ``SlidingAggregate`` (built by :func:`sliding_window`
and :func:`sliding_max`) is the conclusion's sliding-window template.
"""

from repro.operators.base import Operator, KV
from repro.operators.stateless import OpStateless, StatelessFn
from repro.operators.keyed_ordered import OpKeyedOrdered
from repro.operators.keyed_unordered import (
    OpKeyedUnordered,
    CommutativeMonoid,
    CombinedAgg,
)
from repro.operators.merge import Merge
from repro.operators.split import RoundRobinSplit, HashSplit, UnqSplit, Splitter
from repro.operators.sort import SortOp
from repro.operators.identity import identity_op, IdentityOp
from repro.operators.library import sliding_window, sliding_max
from repro.operators.validate import validate_operator
from repro.operators import library
from repro.operators import joins

__all__ = [
    "Operator",
    "KV",
    "OpStateless",
    "StatelessFn",
    "OpKeyedOrdered",
    "OpKeyedUnordered",
    "CommutativeMonoid",
    "CombinedAgg",
    "Merge",
    "RoundRobinSplit",
    "HashSplit",
    "UnqSplit",
    "Splitter",
    "SortOp",
    "identity_op",
    "IdentityOp",
    "sliding_window",
    "sliding_max",
    "validate_operator",
    "joins",
    "library",
]
