"""Operator workload statistics.

Operators are pure array transforms; they *describe* the work they did in
an :class:`OpStats`, and the enactor turns that description into virtual
time through the device's :class:`~repro.sim.kernel.KernelModel`.  This
separation keeps correctness code (NumPy) independent of the cost model —
the same discipline the paper uses when it analyzes every primitive with
BSP counts (Table I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = ["OpStats", "combine_stats"]


@dataclass
class OpStats:
    """Workload of one (possibly fused) operator invocation.

    ``streaming_bytes``/``random_bytes``/``atomic_ops`` feed the kernel
    cost model; ``edges_visited``/``vertices_processed`` feed the BSP
    W counter; ``launches`` feeds launch-overhead accounting (and is what
    kernel fusion reduces).
    """

    name: str = ""
    input_size: int = 0
    output_size: int = 0
    edges_visited: int = 0
    vertices_processed: int = 0
    launches: int = 1
    streaming_bytes: float = 0.0
    random_bytes: float = 0.0
    atomic_ops: float = 0.0

    def merged_with(self, other: "OpStats", fused: bool = False) -> "OpStats":
        """Combine two operator invocations (fusion drops a launch)."""
        return OpStats(
            name=f"{self.name}+{other.name}",
            input_size=self.input_size,
            output_size=other.output_size,
            edges_visited=self.edges_visited + other.edges_visited,
            vertices_processed=self.vertices_processed + other.vertices_processed,
            launches=self.launches + (0 if fused else other.launches),
            streaming_bytes=self.streaming_bytes + other.streaming_bytes,
            random_bytes=self.random_bytes + other.random_bytes,
            atomic_ops=self.atomic_ops + other.atomic_ops,
        )


def combine_stats(stats: List[OpStats]) -> OpStats:
    """Fold a list of OpStats into totals (launches summed, not fused)."""
    total = OpStats(name="total", launches=0)
    for s in stats:
        total.edges_visited += s.edges_visited
        total.vertices_processed += s.vertices_processed
        total.launches += s.launches
        total.streaming_bytes += s.streaming_bytes
        total.random_bytes += s.random_bytes
        total.atomic_ops += s.atomic_ops
        total.output_size = s.output_size
    return total
