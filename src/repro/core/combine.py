"""Declared combiners: the framework contract for concurrent updates.

Section III-B makes the programmer specify, for every piece of per-vertex
data a primitive communicates, *how* concurrently-produced updates merge:
BFS min-combines labels, SSSP ``atomicMin``s distances, PR ``atomicAdd``s
rank shares, CC min-combines component IDs.  The framework's correctness
argument — "an unmodified single-GPU primitive stays correct on multiple
GPUs" — holds only when those merge operators are order-independent
across the superstep boundary.

A :class:`Combiner` is that declaration made explicit.  Problems list one
per mutable slice array in :attr:`ProblemBase.combiners`; the static
linter (rule ``undeclared-combiner``) requires the declaration whenever a
primitive registers value associates, and the BSP race sanitizer consults
it at every barrier: write-write conflicts on replicated vertices are
benign exactly when the declared combiner is commutative or idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

__all__ = [
    "Combiner",
    "MIN", "MAX", "SUM", "ANY", "WITNESS", "OVERWRITE",
    "OpSemantics", "op_semantics", "register_op_semantics", "known_ops",
    "INT_DOMAIN", "BOOL_DOMAIN",
]


@dataclass(frozen=True)
class Combiner:
    """How concurrent writes to one slice array merge at the barrier.

    Attributes
    ----------
    op:
        Symbolic operator name (``min``, ``sum``, ...), for reports.
    commutative:
        Applying the updates in any order yields the same state.
    idempotent:
        Re-applying an already-applied update is a no-op (lets proxies
        re-send without double counting).
    reason:
        Free-form justification, shown in sanitizer reports.
    """

    op: str
    commutative: bool = True
    idempotent: bool = False
    reason: str = ""

    @property
    def order_independent(self) -> bool:
        """Whether superstep-concurrent writes merged by this combiner are
        race-free under the BSP contract."""
        return self.commutative or self.idempotent

    def describe(self) -> str:
        props = []
        if self.commutative:
            props.append("commutative")
        if self.idempotent:
            props.append("idempotent")
        return f"{self.op}({', '.join(props) or 'order-dependent'})"


#: atomicMin merge — labels, distances, component IDs.
MIN = Combiner("min", commutative=True, idempotent=True)

#: atomicMax merge.
MAX = Combiner("max", commutative=True, idempotent=True)

#: atomicAdd merge — rank shares, sigma/delta accumulation.
SUM = Combiner("sum", commutative=True, idempotent=False)

#: boolean OR merge — frontier-membership bitmaps.
ANY = Combiner("or", commutative=True, idempotent=True)

#: any concurrently-written value is acceptable (e.g. BFS predecessors:
#: every writer is a valid witness of the same BFS level).
WITNESS = Combiner(
    "witness", commutative=True, idempotent=False,
    reason="any valid witness is acceptable",
)

#: last-writer-wins — order-DEPENDENT, the sanitizer flags conflicts.
OVERWRITE = Combiner("overwrite", commutative=False, idempotent=False)


# ---------------------------------------------------------------------------
# Concrete operator semantics — the ground truth behind each declaration.
#
# A Combiner's ``commutative``/``idempotent`` flags are programmer *claims*.
# The deep analysis tier (``repro check --deep``, repro.check.deep.certify)
# verifies the claims by exhaustively evaluating the operator's concrete
# semantics over a small finite domain and emits a machine-checkable
# CombinerCertificate; the model checker (``repro check --mc``) folds each
# array by the certified algebra.  Ops registered with ``fn=None`` are
# declared nondeterministic (any concurrently-written value is acceptable,
# e.g. ``witness``): they have no equational semantics to certify and are
# excluded from the model checker's final-state comparison.


@dataclass(frozen=True)
class OpSemantics:
    """Concrete evaluation semantics for one combiner op name.

    ``fn`` merges (current_state, incoming_update) -> new_state, or is
    ``None`` for declared-nondeterministic ops.  ``domain`` is the finite
    value set the certifier quantifies over; it must be rich enough to
    expose counterexamples (signs, zero, duplicates).
    """

    fn: Optional[Callable]
    domain: Tuple
    note: str = ""


#: integers with signs, zero, and magnitude spread — enough to refute
#: commutativity/associativity/idempotency for every arithmetic op here
INT_DOMAIN: Tuple = (-2, -1, 0, 1, 2, 7)
BOOL_DOMAIN: Tuple = (False, True)

_OP_SEMANTICS: Dict[str, OpSemantics] = {
    "min": OpSemantics(min, INT_DOMAIN),
    "max": OpSemantics(max, INT_DOMAIN),
    "sum": OpSemantics(lambda a, b: a + b, INT_DOMAIN),
    "or": OpSemantics(lambda a, b: a or b, BOOL_DOMAIN),
    "and": OpSemantics(lambda a, b: a and b, BOOL_DOMAIN),
    "mul": OpSemantics(lambda a, b: a * b, INT_DOMAIN),
    "sub": OpSemantics(lambda a, b: a - b, INT_DOMAIN),
    "first": OpSemantics(lambda a, b: a, INT_DOMAIN,
                         note="keep the already-applied value"),
    "last": OpSemantics(lambda a, b: b, INT_DOMAIN,
                        note="last writer wins"),
    "overwrite": OpSemantics(lambda a, b: b, INT_DOMAIN,
                             note="last writer wins"),
    "witness": OpSemantics(
        None, INT_DOMAIN,
        note="nondeterministic by declaration: any valid witness is "
             "acceptable, so there is no merge function to certify",
    ),
}


def op_semantics(op: str) -> Optional[OpSemantics]:
    """Registered semantics for a combiner op name, or None if unknown."""
    return _OP_SEMANTICS.get(op)


def known_ops() -> Tuple[str, ...]:
    """All registered op-semantics names, sorted.

    The certification tiers enumerate this to cross-check each other:
    the property test in ``tests/check/test_mc_property.py`` asserts the
    model checker's schedule-level verdict agrees with the algebraic
    ``evaluate_op`` verdict for every op listed here."""
    return tuple(sorted(_OP_SEMANTICS))


def register_op_semantics(
    op: str,
    fn: Optional[Callable],
    domain: Sequence = INT_DOMAIN,
    note: str = "",
) -> None:
    """Register (or override) concrete semantics for a combiner op.

    User primitives with custom merge operators register them here so the
    deep tier can certify their declarations instead of rejecting the op
    as unknown.
    """
    _OP_SEMANTICS[op] = OpSemantics(fn, tuple(domain), note)
