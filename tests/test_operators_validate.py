"""The template validation helper: accepts lawful operators, produces
witnesses against broken ones."""

import pytest

from repro.errors import ConsistencyError
from repro.operators.base import KV, Marker
from repro.operators.keyed_unordered import OpKeyedUnordered
from repro.operators.library import (
    map_values,
    sliding_count,
    sliding_max,
    sliding_window,
    tumbling_count,
)
from repro.operators.joins import DistinctCount, TopK
from repro.operators.sort import SortOp
from repro.operators.stateless import OpStateless
from repro.operators.validate import (
    check_consistency_on,
    check_monoid_laws,
    validate_operator,
)


class BrokenMonoid(OpKeyedUnordered):
    """combine is subtraction: neither associative nor commutative."""

    def fold_in(self, key, value):
        return value

    def identity(self):
        return 0

    def combine(self, x, y):
        return x - y

    def init(self):
        return 0

    def update_state(self, old_state, agg):
        return old_state + agg

    def on_marker(self, new_state, key, m, emit):
        emit(key, new_state)


class OrderLeaker(OpStateless):
    """Emits a running index — output depends on arrival order."""

    def initial_state(self):
        state = super().initial_state()
        self._counter = 0  # intentionally hidden mutable state
        return state

    def on_item(self, key, value, emit):
        self._counter += 1
        emit(key, (value, self._counter))


class TestValidateAccepts:
    @pytest.mark.parametrize("factory", [
        lambda: map_values(lambda v: v + 1),
        tumbling_count,
        lambda: sliding_count(2),
        lambda: sliding_max(2),
        lambda: TopK(2),
        DistinctCount,
    ])
    def test_lawful_operators_pass(self, factory):
        validate_operator(factory())

    def test_sort_passes_with_ordered_output_flag(self):
        validate_operator(SortOp(), output_ordered=True)


class TestValidateRejects:
    def test_broken_monoid_caught(self):
        with pytest.raises(ConsistencyError, match="monoid"):
            check_monoid_laws(BrokenMonoid(), [KV("a", 1), KV("a", 2)])

    def test_broken_monoid_caught_by_validate(self):
        with pytest.raises(ConsistencyError):
            validate_operator(BrokenMonoid())

    def test_nonassociative_sliding_window_caught(self):
        from repro.operators.validate import validate_operator_findings

        averaging = sliding_window(2, lambda k, v: v, 0, lambda x, y: (x + y) / 2)
        codes = {f.code for f in validate_operator_findings(averaging)}
        assert codes == {"DT901", "DT902"}

    def test_order_leaking_stateless_caught(self):
        with pytest.raises(ConsistencyError, match="inconsistent"):
            check_consistency_on(
                OrderLeaker(),
                [KV("a", 1), KV("a", 2), KV("b", 3), Marker(1)],
                shuffles=20,
                seed=1,
            )

    def test_witness_contains_inputs(self):
        try:
            check_consistency_on(
                OrderLeaker(),
                [KV("a", 1), KV("a", 2), KV("b", 3), Marker(1)],
                shuffles=20,
                seed=1,
            )
        except ConsistencyError as error:
            assert "input A" in str(error) and "input B" in str(error)
        else:
            pytest.fail("expected a consistency violation")


class TestSampling:
    """The shared sample-stream generators and the explicit-RNG plumbing."""

    def test_random_sample_events_deterministic_per_seed(self):
        import random

        from repro.operators.sampling import random_sample_events

        a = random_sample_events(random.Random(5))
        b = random_sample_events(random.Random(5))
        c = random_sample_events(random.Random(6))
        assert a == b
        assert a != c
        markers = [e for e in a if isinstance(e, Marker)]
        assert [m.timestamp for m in markers] == [1, 2, 3]

    def test_validate_operator_accepts_rng(self):
        import random

        # The same RNG instance drives the shuffles: two fresh generators
        # with one seed validate identically (and don't touch the global
        # RNG state).
        state_before = random.getstate()
        validate_operator(tumbling_count(), rng=random.Random(11))
        assert random.getstate() == state_before

    def test_check_consistency_on_rng_overrides_seed(self):
        import random

        with pytest.raises(ConsistencyError):
            check_consistency_on(
                OrderLeaker(),
                [KV("a", 1), KV("a", 2), KV("b", 3), Marker(1)],
                shuffles=20,
                seed=999,  # ignored: the rng below wins
                rng=random.Random(1),
            )
