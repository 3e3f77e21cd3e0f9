"""SORT's output is a function of each block's bag of items.

Items with equal sort keys come out in the values' natural order when
that order is a strict chain (exact duplicates allowed), and in ``repr``
order otherwise.  These blocks are built to break the natural order in
every way the built-in types can: heavy ties, exact duplicates, NaN,
``0.0``/``-0.0``, ``1``/``1.0``/``True``, ``str`` against ``int`` and
frozensets ordered by inclusion.  Every shuffle of a block, fed whole,
one event at a time, or across a ``snapshot_state``/``restore_state``
split, must give byte-identical output.
"""

import random
from operator import itemgetter

import pytest

from repro.operators.base import KV, Marker
from repro.operators.sort import SortOp

NAN = float("nan")

#: Per key, the values of one block; the sort key is the first slot.
BLOCK = {
    # Heavy ties whose numeric order is not their repr order.
    "ties": [(1, 9.5), (1, 10.5), (1, 100.25), (0, 7.0), (1, 9.5), (2, 8.0), (0, 70.0)],
    # Exact duplicates only: still the natural path.
    "dups": [(5, 2.0), (5, 10.0), (5, 2.0), (5, 10.0), (4, 3.0)],
    # NaN: one shared object, fresh objects, and numbers tied with them.
    "nan": [(1, NAN), (1, NAN), (1, float("nan")), (1, 2.0), (1, -3.0), (0, NAN)],
    "signed_zero": [(3, 0.0), (3, -0.0), (3, 0.0), (2, -0.0)],
    "one": [(1, 1), (1, 1.0), (1, True), (1, 1), (0, True)],
    "mixed": [(1, "b"), (1, 2), (1, "a"), (1, 10), (2, "z")],
    "sets": [(1, frozenset({1})), (1, frozenset({2})), (1, frozenset({1, 2})),
             (1, frozenset()), (0, frozenset({3}))],
    # A chain under inclusion: natural order, unlike repr order.
    "chain": [(1, frozenset({1, 2, 3})), (1, frozenset({1})), (1, frozenset({1, 2}))],
}

#: What a single-key block comes out as, by the path it takes.
NATURAL = {"ties", "dups", "chain"}
BY_REPR = {"nan", "signed_zero", "one", "mixed", "sets"}

SHUFFLES = 40


def _events():
    return [KV(key, value) for key, values in BLOCK.items() for value in values]


def _whole_block(op, blocks):
    state = op.initial_state()
    out = []
    for block in blocks:
        out.extend(op.handle_batch(state, block))
    return out


def _one_event(op, blocks):
    state = op.initial_state()
    return [out for block in blocks for event in block for out in op.handle(state, event)]


def _snapshot_split(op, blocks):
    """Cut each block in the middle and carry the state across a
    snapshot into a fresh restore."""
    state = op.initial_state()
    out = []
    for block in blocks:
        cut = len(block) // 2
        out.extend(op.handle_batch(state, block[:cut]))
        state = op.restore_state(op.snapshot_state(state))
        out.extend(op.handle_batch(state, block[cut:]))
    return out


FEEDS = [_whole_block, _one_event, _snapshot_split]


def _shuffled_blocks(rng, n_blocks=2):
    blocks = []
    for epoch in range(n_blocks):
        items = _events()
        rng.shuffle(items)
        blocks.append(items + [Marker(epoch)])
    return blocks


def _values_of(out, key):
    return [event.value for event in out if type(event) is KV and event.key == key]


@pytest.mark.parametrize("feed", FEEDS, ids=lambda f: f.__name__.strip("_"))
def test_every_shuffle_gives_identical_bytes(feed):
    rng = random.Random(7)
    op = SortOp(sort_key=itemgetter(0))
    reference = repr(_whole_block(op, _shuffled_blocks(rng)))
    for _ in range(SHUFFLES):
        assert repr(feed(op, _shuffled_blocks(rng))) == reference


def test_output_nondecreasing_in_sort_key_per_key():
    out = _whole_block(SortOp(sort_key=itemgetter(0)), _shuffled_blocks(random.Random(3), 1))
    for key in BLOCK:
        sort_keys = [value[0] for value in _values_of(out, key)]
        assert sort_keys == sorted(sort_keys)
        assert len(sort_keys) == len(BLOCK[key])


def test_each_key_takes_its_path():
    """A key whose ties form a strict chain comes out in natural order,
    any other in repr order, and the two orders differ on every block
    here, so both paths are seen to run."""
    out = _whole_block(SortOp(sort_key=itemgetter(0)), _shuffled_blocks(random.Random(5), 1))
    assert NATURAL | BY_REPR == set(BLOCK)
    for key, values in BLOCK.items():
        by_repr = sorted(values, key=lambda v: (v[0], repr(v)))
        got = _values_of(out, key)
        if key in NATURAL:
            natural = sorted(values)
            assert repr(got) == repr(natural) != repr(by_repr), key
        else:
            assert repr(got) == repr(by_repr), key


def test_identity_sort_key_on_equal_but_distinct_values():
    """With the identity sort key, ``1``/``1.0``/``True`` and
    ``0.0``/``-0.0`` are tied sort keys that only repr tells apart."""
    values = [1, 1.0, True, 0.0, -0.0, 2, 0.0]
    rng = random.Random(11)
    outputs = set()
    for _ in range(SHUFFLES):
        rng.shuffle(values)
        outputs.add(repr(SortOp().run([KV("k", v) for v in values] + [Marker(0)])))
    assert outputs == {repr(
        [KV("k", v) for v in (-0.0, 0.0, 0.0, 1, 1.0, True, 2)] + [Marker(0)]
    )}
