"""Template validation helpers.

Theorem 4.2's guarantee rests on side conditions the templates cannot
enforce statically in Python: ``combine`` must be associative and
commutative, the pure functions must actually be pure, and
``OpKeyedOrdered`` emissions must preserve keys (that one *is* enforced
at runtime).  :func:`validate_operator` spot-checks what can be checked:

- for :class:`OpKeyedUnordered` subclasses (the sliding-window template
  ``library.SlidingAggregate`` among them), the monoid laws on
  aggregates derived from sample events;
- for any operator, Definition 3.5 consistency over random
  dependence-respecting shuffles of sample streams.

It raises :class:`~repro.errors.ConsistencyError` with a concrete
witness on failure, and is cheap enough to run in CI for every operator
a project defines.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.errors import ConsistencyError
from repro.operators.base import Event, KV, Operator
from repro.operators.keyed_unordered import CommutativeMonoid, OpKeyedUnordered
from repro.operators.sampling import default_sample_events, shuffle_within_blocks
from repro.traces.blocks import BlockTrace

__all__ = [
    "check_monoid_laws",
    "check_consistency_on",
    "validate_operator",
    "validate_operator_findings",
    "shuffle_within_blocks",  # re-exported from repro.operators.sampling
]


def _sample_aggregates(operator: OpKeyedUnordered, events: Sequence[Event]):
    """Monoid elements reachable from the sample events."""
    singles = [
        operator.fold_in(e.key, e.value) for e in events if isinstance(e, KV)
    ]
    samples = [operator.identity()] + singles[:4]
    # A few combined elements widen the law check beyond singletons.
    acc = operator.identity()
    for value in singles[:4]:
        acc = operator.combine(acc, value)
        samples.append(acc)
    return samples


def check_monoid_laws(
    operator: OpKeyedUnordered, events: Sequence[Event]
) -> None:
    """Spot-check identity/associativity/commutativity of the template's
    monoid on aggregates derived from ``events``."""
    monoid = CommutativeMonoid(operator.identity(), operator.combine)
    samples = _sample_aggregates(operator, events)
    if not monoid.spot_check(samples):
        raise ConsistencyError(
            f"{operator.label()}: combine() violates the commutative-monoid "
            f"laws on sampled aggregates {samples!r}"
        )


def check_consistency_on(
    operator: Operator,
    events: Sequence[Event],
    shuffles: int = 10,
    seed: int = 0,
    output_ordered: bool = False,
    rng: Optional[random.Random] = None,
) -> None:
    """Definition 3.5 spot-check: equivalent (block-shuffled) inputs must
    give trace-equivalent outputs.

    ``rng`` overrides ``seed`` when supplied, letting callers thread one
    deterministic generator through a whole validation session.
    """
    rng = rng if rng is not None else random.Random(seed)
    base = BlockTrace.from_events(output_ordered, operator.run(list(events)))
    for _ in range(shuffles):
        variant = shuffle_within_blocks(events, rng)
        got = BlockTrace.from_events(output_ordered, operator.run(variant))
        if got != base:
            raise ConsistencyError(
                f"{operator.label()}: inconsistent outputs across equivalent "
                f"inputs\n  input A: {list(events)}\n  input B: {variant}"
            )


def validate_operator(
    operator: Operator,
    sample_events: Optional[Sequence[Event]] = None,
    shuffles: int = 10,
    seed: int = 0,
    output_ordered: bool = False,
    rng: Optional[random.Random] = None,
) -> None:
    """Run every applicable spot-check on ``operator`` (see module doc).

    Determinism: the shuffles are drawn from ``rng`` when supplied, else
    from ``random.Random(seed)`` — never from the global RNG — so CI
    failures reproduce exactly from the logged seed.
    """
    events = (
        list(sample_events) if sample_events is not None
        else default_sample_events()
    )
    if isinstance(operator, OpKeyedUnordered):
        check_monoid_laws(operator, events)
    # Order-sensitive (O-input) operators are consistent only for
    # per-key-order-preserving equivalences, which block shuffles are not;
    # the block-shuffle consistency check applies to U-input operators.
    if operator.input_kind != "O":
        check_consistency_on(
            operator, events, shuffles=shuffles, seed=seed,
            output_ordered=output_ordered, rng=rng,
        )


def validate_operator_findings(
    operator: Operator,
    sample_events: Optional[Sequence[Event]] = None,
    shuffles: int = 10,
    seed: int = 0,
    output_ordered: bool = False,
    *,
    path: str = "",
    line: int = 0,
    symbol: str = "",
):
    """Dynamic-witness results as the linter's ``Finding`` records.

    The ``DT9xx`` backend of ``repro lint --dynamic``: runs the same
    spot-checks as :func:`validate_operator`, but instead of raising it
    returns a list of findings — DT901 for monoid-law failures, DT902
    for Definition 3.5 shuffle inconsistencies, DT903 when a check
    crashed before producing a verdict — so static and dynamic results
    merge into one report.  An empty list means every applicable check
    passed.
    """
    # Imported lazily: repro.analysis imports this module's checkers,
    # so a module-level import back into the analysis package would be
    # circular.
    from repro.analysis.registry import get_rule

    events = (
        list(sample_events) if sample_events is not None
        else default_sample_events()
    )
    symbol = symbol or operator.label()
    findings = []

    def spot(code: str, message: str):
        findings.append(
            get_rule(code).finding(
                message, path=path, line=line, symbol=symbol,
            )
        )

    if isinstance(operator, OpKeyedUnordered):
        try:
            check_monoid_laws(operator, events)
        except ConsistencyError as exc:
            spot("DT901", str(exc))
        except Exception as exc:  # crashed before a verdict
            spot("DT903", f"monoid-law check crashed: {exc!r}")
    if operator.input_kind != "O":
        try:
            check_consistency_on(
                operator, events, shuffles=shuffles, seed=seed,
                output_ordered=output_ordered,
            )
        except ConsistencyError as exc:
            spot("DT902", str(exc))
        except Exception as exc:
            spot("DT903", f"consistency check crashed: {exc!r}")
    return findings
