"""The identity operator (pass-through).

Used as the unit of streaming composition, in splitter/merge identity
laws (``SPLIT >> MRG = id``), and as a placeholder vertex in rewrite
tests.
"""

from __future__ import annotations

from typing import Any, List

from repro.operators.base import Event, Operator


class IdentityOp(Operator):
    """Pass every event through unchanged."""

    name = "ID"

    def handle_batch(self, state: Any, events) -> List[Event]:
        return list(events)


def identity_op() -> IdentityOp:
    """Construct a fresh identity operator."""
    return IdentityOp()
