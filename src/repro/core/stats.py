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

__all__ = ["OpStats"]


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
