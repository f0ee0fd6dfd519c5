"""Iteration base: the per-primitive hooks of the BSP loop.

Mirrors the paper's ``IterationBase`` (Appendix A): the programmer
provides ``FullQueue_Core`` (the unmodified single-GPU computation for one
iteration) and ``Expand_Incoming`` (the combiner for received data); the
framework owns everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..partition.duplication import SubGraph
from ..sim.device import VirtualGPU
from ..sim.kernel import KernelModel
from .comm import Message
from .problem import DataSlice, ProblemBase
from .stats import OpStats

__all__ = ["GpuContext", "IterationBase"]


@dataclass
class GpuContext:
    """Everything one GPU's hooks may touch during an iteration."""

    gpu: VirtualGPU
    sub: SubGraph
    slice: DataSlice
    kernel_model: KernelModel
    #: whether the enactor's allocation scheme fuses advance+filter
    fused: bool
    iteration: int
    num_gpus: int
    #: attached obs.Tracer, or None (the common, zero-overhead case);
    #: primitives forward it to operator calls for wall-clock sampling
    tracer: Optional[object] = None
    #: vertex-ID width of the subgraph in bytes, read once here because
    #: hooks and operators consult it on every call
    ids_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.ids_bytes = self.sub.csr.ids.vertex_bytes


class IterationBase:
    """Per-primitive iteration hooks.

    Subclasses implement :meth:`full_queue_core` and (for multi-GPU)
    :meth:`expand_incoming`; the defaults for the remaining hooks match
    the paper's BFS ("BFS uses the default Stop_Condition(), which exits
    the iteration loop when all frontiers are empty").
    """

    #: instance attributes excluded from checkpoints: references to
    #: structures the enactor rebuilds (the problem) and caches that
    #: :meth:`on_restore` re-derives.  Subclasses extend this set.
    SNAPSHOT_EXCLUDE = frozenset({"problem"})

    def __init__(self, problem: ProblemBase):
        self.problem = problem

    # -- required hooks -----------------------------------------------------
    def full_queue_core(
        self, ctx: GpuContext, frontier: np.ndarray
    ) -> Tuple[np.ndarray, List[OpStats]]:
        """One iteration of the unmodified single-GPU primitive.

        Receives the merged input frontier (local IDs) and returns the
        output frontier plus the operator stats for cost charging.  Both
        frontiers are int64 ndarrays; the enactor does not convert.
        """
        raise NotImplementedError

    def expand_incoming(
        self, ctx: GpuContext, msg: Message
    ) -> Tuple[np.ndarray, List[OpStats]]:
        """Combine one received message with local data.

        Returns the received vertices that must join the next input
        frontier (already deduplicated against local state; an int64
        ndarray, as ``msg.vertices`` is), plus stats.
        The default accepts every vertex and is only correct for
        primitives with idempotent updates.
        """
        return msg.vertices, []

    # -- data-to-communicate hooks (Section III-B "Data to communicate") ----
    def vertex_associate_arrays(self, ctx: GpuContext) -> Sequence[np.ndarray]:
        """Per-vertex ID arrays to package with sent vertices."""
        return []

    def value_associate_arrays(self, ctx: GpuContext) -> Sequence[np.ndarray]:
        """Per-vertex value arrays to package with sent vertices."""
        return []

    # -- optional hooks -------------------------------------------------------
    def communicates_this_iteration(self, iteration: int) -> bool:
        """Whether the end of this iteration exchanges frontiers at all."""
        return True

    def should_stop(
        self,
        iteration: int,
        frontier_sizes: Sequence[int],
        messages_in_flight: int,
    ) -> bool:
        """Global stop condition; default: all frontiers empty, no mail."""
        return sum(frontier_sizes) == 0 and messages_in_flight == 0

    def max_iterations(self) -> int:
        """Safety bound; a primitive exceeding it raises ConvergenceError."""
        return 10000

    def on_iteration_end(self, iteration: int) -> None:
        """Post-barrier hook (e.g. PR's convergence bookkeeping)."""

    def direction_of(self, gpu: int) -> str:
        """Traversal direction label for metrics (DOBFS overrides)."""
        return ""

    # -- checkpoint hooks (docs/robustness.md) -------------------------------
    def snapshot_state(self) -> dict:
        """Deep-copied instance state for a barrier checkpoint.

        Everything in ``__dict__`` except :attr:`SNAPSHOT_EXCLUDE` is
        captured; the copy is isolated so later supersteps cannot mutate
        a taken checkpoint.
        """
        import copy

        return {
            k: copy.deepcopy(v)
            for k, v in self.__dict__.items()
            if k not in self.SNAPSHOT_EXCLUDE
        }

    def restore_state(self, state: dict) -> None:
        """Restore from :meth:`snapshot_state` (the checkpoint survives
        repeated rollbacks: values are copied in, never moved)."""
        import copy

        for k, v in state.items():
            setattr(self, k, copy.deepcopy(v))
        self.on_restore()

    def on_restore(self) -> None:
        """Invalidate caches after a rollback (subclasses override)."""
