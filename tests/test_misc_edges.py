"""Edge-of-API coverage: small contracts that the larger suites exercise
only indirectly."""

import pytest

from repro.errors import ConsistencyError, TraceTypeError
from repro.operators.base import KV, Marker, is_marker_event
from repro.storm.tuples import StormTuple
from repro.traces.items import Item, is_marker, kv_item, marker
from repro.traces.tags import MARKER, Tag
from repro.traces.trace import DataTrace
from repro.traces.trace_type import channels_type, ordered_type, unordered_type

U = unordered_type()


class TestItems:
    def test_kv_item_tag_is_key(self):
        item = kv_item(("b", 3), 1.5)
        assert item.key == ("b", 3)
        assert item.tag == Tag(("b", 3))

    def test_marker_timestamp_property(self):
        assert marker(7).timestamp == 7
        with pytest.raises(AttributeError):
            Item(Tag("M"), 1).timestamp

    def test_is_marker_helpers(self):
        assert is_marker(marker(1))
        assert not is_marker(kv_item("a", 1))
        assert is_marker_event(Marker(1))
        assert not is_marker_event(KV("a", 1))

    def test_reprs(self):
        assert repr(marker(3)) == "#3"
        assert repr(kv_item("a", 1)) == "(a,1)"
        assert repr(KV("a", 1)) == "KV('a', 1)"
        assert repr(Marker(3)) == "Marker(3)"


class TestStormTuple:
    def test_channel_identity(self):
        tup = StormTuple(KV("a", 1), "comp", 3)
        assert tup.channel() == ("comp", 3)

    def test_repr_mentions_provenance(self):
        tup = StormTuple(Marker(1), "src", 0)
        assert "src[0]" in repr(tup)

    def test_value_equality_and_hash(self):
        a = StormTuple(KV("a", 1), "comp", 3)
        b = StormTuple(KV("a", 1), "comp", 3)
        assert a == b
        assert hash(a) == hash(b)
        assert a != StormTuple(KV("a", 1), "comp", 4)
        assert a != StormTuple(KV("a", 2), "comp", 3)
        assert len({a, b}) == 1

    def test_fields_by_name(self):
        tup = StormTuple(KV("a", 1), "comp", 3)
        assert tup.event == KV("a", 1)
        assert tup.src_component == "comp"
        assert tup.src_task == 3

    def test_immutable(self):
        tup = StormTuple(KV("a", 1), "comp", 3)
        with pytest.raises(AttributeError):
            tup.src_task = 4
        with pytest.raises(AttributeError):
            tup.event = Marker(2)
        assert tup.src_task == 3

    def test_exact_repr(self):
        assert repr(StormTuple(KV("a", 1), "comp", 3)) == (
            "Tuple(KV('a', 1) from comp[3])"
        )
        assert repr(StormTuple(Marker(2), "src", 0)) == (
            "Tuple(Marker(2) from src[0])"
        )


class TestTraceTypeConstructors:
    def test_channels_type_arity_check(self):
        with pytest.raises(TraceTypeError):
            channels_type(["a", "b"], value_types=[int])

    def test_u_o_names(self):
        assert unordered_type("CID", "Long").name == "U(CID,Long)"
        assert ordered_type("ID", float).name == "O(ID,float)"

    def test_key_predicate_enforced(self):
        restricted = unordered_type(key_predicate=lambda k: isinstance(k, int))
        restricted.check_item(kv_item(3, "x"))
        with pytest.raises(TraceTypeError):
            restricted.check_item(kv_item("string-key", "x"))

    def test_compatible_with(self):
        assert unordered_type().compatible_with(unordered_type("A", "B"))
        assert not unordered_type().compatible_with(ordered_type())

    def test_marker_values_are_nats(self):
        with pytest.raises(TraceTypeError):
            U.check_item(Item(MARKER, -1))


class TestTraceMethodSurface:
    def test_foata_method(self):
        t = DataTrace(U, [kv_item("a", 1), kv_item("b", 2), marker(1)])
        steps = t.foata()
        assert len(steps) == 2  # the unordered pair, then the marker
        assert steps[1] == (marker(1),)

    def test_repr_shows_type_and_items(self):
        t = DataTrace(U, [kv_item("a", 1)])
        assert "U(K,V)" in repr(t)

    def test_consistency_error_carries_witness(self):
        error = ConsistencyError("msg", witness=("a", "b"))
        assert error.witness == ("a", "b")
