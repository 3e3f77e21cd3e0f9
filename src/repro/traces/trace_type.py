"""Data-trace types: a data type plus a dependence relation.

A data-trace type ``X = (A, D)`` (Section 3.1) determines the congruence
``=_D`` on ``A*`` and hence the set of data traces of type ``X``.  This
module provides the general :class:`DataTraceType` together with
constructors for every shape the paper uses:

- :func:`sequence_type` — singleton tag, self-dependent: traces are
  sequences over ``T``.
- :func:`bag_type` — singleton tag, self-independent: traces are bags.
- :func:`channels_type` — one self-dependent tag per channel: acyclic
  Kahn-network channels (Example 3.3).
- :func:`unordered_type` — ``U(K, V)`` of Section 4: linearly ordered
  markers, unordered key-value pairs between markers.
- :func:`ordered_type` — ``O(K, V)`` of Section 4: markers plus per-key
  order between markers.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from repro.errors import TraceTypeError
from repro.traces.dependence import DependenceRelation
from repro.traces.items import Item
from repro.traces.tags import MARKER, DataType, Tag, nat_validator


class DataTraceType:
    """A data-trace type ``X = (A, D)``.

    Parameters
    ----------
    data_type:
        The data type ``A`` (alphabet plus value types).
    dependence:
        The symmetric dependence relation ``D`` on the alphabet.
    name:
        Human-readable name used in reprs and type-error messages.
    keyed:
        Marks the Section 4 key-value types (``U``/``O``): the DAG
        machinery uses this flag to know that items are key-value pairs
        eligible for hash-based data parallelism.
    ordered_per_key:
        For keyed types: whether same-key items between markers are
        linearly ordered (``O``) or unordered (``U``).
    """

    def __init__(
        self,
        data_type: DataType,
        dependence: DependenceRelation,
        name: str = "",
        keyed: bool = False,
        ordered_per_key: bool = False,
    ):
        self.data_type = data_type
        self.dependence = dependence
        self.name = name or "DataTraceType"
        self.keyed = keyed
        self.ordered_per_key = ordered_per_key

    # ------------------------------------------------------------------
    # Item-level operations.
    # ------------------------------------------------------------------

    def check_item(self, item: Item) -> None:
        """Raise :class:`TraceTypeError` unless ``item`` inhabits ``A``."""
        self.data_type.check_item(item.tag, item.value)

    def check_sequence(self, items: Iterable[Item]) -> None:
        """Type-check every item of a sequence."""
        for item in items:
            self.check_item(item)

    def items_dependent(self, a: Item, b: Item) -> bool:
        """The dependence relation induced on items by ``D`` (Section 3.1)."""
        return self.dependence.dependent(a.tag, b.tag)

    def items_independent(self, a: Item, b: Item) -> bool:
        """Whether two items commute (their tags are independent)."""
        return not self.items_dependent(a, b)

    # ------------------------------------------------------------------
    # Structural queries used by the DAG layer.
    # ------------------------------------------------------------------

    def is_marker_type(self) -> bool:
        """Whether the alphabet includes the synchronization-marker tag."""
        return self.data_type.contains_tag(MARKER)

    def stream_kind(self) -> Optional[str]:
        """The Section 4 stream kind: ``"O"``, ``"U"``, or ``None``.

        ``None`` means the type is outside the keyed U/O fragment
        (sequences, bags, channel products); the DAG type checker and
        the online monitors both classify edges through this method.
        """
        if not self.keyed:
            return None
        return "O" if self.ordered_per_key else "U"

    def compatible_with(self, other: "DataTraceType") -> bool:
        """Loose structural compatibility used by the DAG type checker.

        Two types are compatible when they agree on keyedness and per-key
        ordering.  (Value types are checked dynamically per item.)
        """
        return (
            self.keyed == other.keyed
            and self.ordered_per_key == other.ordered_per_key
        )

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        if not isinstance(other, DataTraceType):
            return NotImplemented
        return (
            self.name == other.name
            and self.keyed == other.keyed
            and self.ordered_per_key == other.ordered_per_key
        )

    def __hash__(self):
        return hash((self.name, self.keyed, self.ordered_per_key))


# ----------------------------------------------------------------------
# Constructors.
# ----------------------------------------------------------------------


def sequence_type(value_type: Any = None, tag_name: str = "item") -> DataTraceType:
    """Traces over a single self-dependent tag: plain sequences over ``T``."""
    tag = Tag(tag_name)
    data_type = DataType({tag: value_type})
    dependence = DependenceRelation.full([tag])
    return DataTraceType(data_type, dependence, name=f"Seq({tag_name})")


def bag_type(value_type: Any = None, tag_name: str = "item") -> DataTraceType:
    """Traces over a single self-independent tag: bags over ``T``."""
    tag = Tag(tag_name)
    data_type = DataType({tag: value_type})
    dependence = DependenceRelation.empty()
    return DataTraceType(data_type, dependence, name=f"Bag({tag_name})")


def channels_type(
    channel_names: Sequence[str], value_types: Optional[Sequence[Any]] = None
) -> DataTraceType:
    """Independent linearly ordered channels (Example 3.3).

    One tag per channel, each dependent only on itself; the set of traces
    is isomorphic to the product of the per-channel sequence sets.
    """
    names = list(channel_names)
    if value_types is None:
        value_types = [None] * len(names)
    if len(value_types) != len(names):
        raise TraceTypeError("one value type per channel is required")
    data_type = DataType({Tag(n): vt for n, vt in zip(names, value_types)})
    dependence = DependenceRelation.keyed()
    return DataTraceType(data_type, dependence, name=f"Channels({','.join(names)})")


def _keyed_type(
    ordered: bool,
    key_predicate: Optional[Callable[[Any], bool]],
    value_type: Any,
    name: str,
) -> DataTraceType:
    tag_predicate = None
    if key_predicate is not None:
        tag_predicate = lambda tag: tag == MARKER or key_predicate(tag.name)
    data_type = DataType(
        value_types={MARKER: nat_validator},
        default_value_type=value_type if value_type is not None else (lambda _v: True),
        tag_predicate=tag_predicate,
    )
    dependence = DependenceRelation.with_marker(data_tags_self_dependent=ordered)
    return DataTraceType(
        data_type,
        dependence,
        name=name,
        keyed=True,
        ordered_per_key=ordered,
    )


def unordered_type(
    key_type: str = "K",
    value_type: Any = None,
    key_predicate: Optional[Callable[[Any], bool]] = None,
) -> DataTraceType:
    """The type ``U(K, V)`` of Section 4.

    Marker tags ``#`` are linearly ordered and dependent on every key;
    key-value pairs between consecutive markers are completely unordered.
    ``key_type``/``value_type`` are descriptive: keys become tags and are
    unconstrained unless ``key_predicate`` is supplied.
    """
    return _keyed_type(False, key_predicate, value_type, f"U({key_type},{_vt_name(value_type)})")


def ordered_type(
    key_type: str = "K",
    value_type: Any = None,
    key_predicate: Optional[Callable[[Any], bool]] = None,
) -> DataTraceType:
    """The type ``O(K, V)`` of Section 4.

    Like ``U(K, V)`` but same-key items between markers are linearly
    ordered (each key tag depends on itself).
    """
    return _keyed_type(True, key_predicate, value_type, f"O({key_type},{_vt_name(value_type)})")


def _vt_name(value_type: Any) -> str:
    if value_type is None:
        return "V"
    if isinstance(value_type, str):
        return value_type
    if isinstance(value_type, type):
        return value_type.__name__
    return getattr(value_type, "__name__", "V")
