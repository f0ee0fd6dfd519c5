"""Declared combiners: the framework contract for concurrent updates.

Section III-B makes the programmer specify, for every piece of per-vertex
data a primitive communicates, *how* concurrently-produced updates merge:
BFS min-combines labels, SSSP ``atomicMin``s distances, PR ``atomicAdd``s
rank shares, CC min-combines component IDs.  The framework's correctness
argument — "an unmodified single-GPU primitive stays correct on multiple
GPUs" — holds only when those merge operators are order-independent
across the superstep boundary.

A :class:`Combiner` is that declaration made explicit.  Problems name
one per slice array in the ``arrays`` of their
:class:`~repro.core.problem.RunState` (``None`` for an array only its
hosting GPU writes), and the BSP race sanitizer consults it at every
barrier: write-write conflicts on replicated vertices are benign exactly
when the declared combiner is commutative or idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Combiner",
    "MIN", "MAX", "SUM", "ANY", "WITNESS", "OVERWRITE",
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

