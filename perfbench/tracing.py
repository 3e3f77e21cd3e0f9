"""Outside-in per-layer tracing for the benchmark.

Spans are recorded by wrapping calls into each layer's public entry
points from the benchmark's own code; nothing under ``src/`` knows it is
being traced.  A layer is named after the module that owns it
(``compiler.inprocess``, ``storm.groupings``, ...), or
``operators.<vertex>`` for one operator instance.

Self time is a span's duration minus the durations of its direct child
spans, so the self times of all layers plus the producer loop's own remainder
add up to the traced pass's wall time.  A call into a layer that is
already the innermost open span (a batch kernel falling back to its own
``handle``, ``Derby.lookup`` delegating to ``Table.lookup_one``) is the
same unit of work and opens no second span, so counts are not doubled.

:func:`patch` installs a wrapper on a ``contextlib.ExitStack``; closing
the stack restores the exact attribute that was there before, so
untraced passes that follow see the original methods.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from unittest import mock
from typing import Any, Callable, Dict, List, Optional

#: Pseudo-layer charged with the wrappers' own counting work, so that it
#: is not billed to the span that happens to enclose it.
BOOKKEEPING = "trace.bookkeeping"


class Recorder:
    """Aggregated spans: per-layer self time, call counts and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: open spans, innermost last: [layer, child seconds]
        self.stack: List[List[Any]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: (layer, counter name) -> summed value
        self.counters: Dict[Any, int] = defaultdict(int)
        #: (layer, gauge name) -> running maximum
        self.peaks: Dict[Any, int] = defaultdict(int)

    def call(self, layer: str, fn: Callable, args, kwargs,
             after: Optional[Callable[["Recorder", tuple, Any], None]] = None):
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        stack = self.stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        clock = self.clock
        frame = [layer, 0.0]
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
        duration = end - start
        self.self_s[layer] += duration - frame[1]
        self.calls[layer] += 1
        if after is not None:
            after(self, args, result)
            spent = clock() - end
            self.self_s[BOOKKEEPING] += spent
            duration += spent
        if stack:
            stack[-1][1] += duration
        return result

    def count(self, layer: str, name: str, value: int) -> None:
        self.counters[(layer, name)] += value

    def peak(self, layer: str, name: str, value: int) -> None:
        if value > self.peaks[(layer, name)]:
            self.peaks[(layer, name)] = value

    def total_self(self) -> float:
        return sum(self.self_s.values())


def wrapper(recorder: Recorder, layer: str, fn: Callable,
            after: Optional[Callable] = None) -> Callable:
    """A drop-in replacement for ``fn`` that records a ``layer`` span."""
    call = recorder.call

    def traced(*args, **kwargs):
        return call(layer, fn, args, kwargs, after)

    traced.__wrapped__ = fn
    return traced


def patch(stack: contextlib.ExitStack, recorder: Recorder, owner: Any,
          name: str, layer: str, after: Optional[Callable] = None) -> None:
    """Replace ``owner.name`` (class or instance level) by a ``layer``
    wrapper until ``stack`` closes."""
    stack.enter_context(mock.patch.object(
        owner, name, wrapper(recorder, layer, getattr(owner, name), after)
    ))


# -- `after` hooks: counts read at the layer boundary --------------------


def count_operator_events(layer: str, batched: bool) -> Callable:
    """Events into and out of one operator call."""

    def after(recorder: Recorder, args, result) -> None:
        recorder.count(layer, "events_in", len(args[1]) if batched else 1)
        recorder.count(layer, "events_out", len(result))

    return after


def merge_buffered(recorder: Recorder, args, result) -> None:
    """``Merge.handle*(self, state, ...)``: buffered events after the call."""
    state = args[1]
    recorder.peak(
        "operators.merge", "peak_buffered_events",
        sum(len(block) for queue in state.pending for block in queue),
    )


def frontend_buffered(recorder: Recorder, args, result) -> None:
    """``MergeFrontend.accept*(self, state, ...)``: buffered tuples after
    the call (``stats()["buffered_tuples"]``, without the rest of stats)."""
    frontend, state = args[0], args[1]
    recorder.peak(
        "compiler.glue.merge", "peak_buffered_events",
        sum(len(block) for queue in frontend.merge_state(state).pending
            for block in queue),
    )


def glue_tuples(batched: bool) -> Callable:
    """Tuples handed to one compiled-bolt execution."""

    def after(recorder: Recorder, args, result) -> None:
        recorder.count("compiler.glue", "tuples", len(args[2]) if batched else 1)

    return after
