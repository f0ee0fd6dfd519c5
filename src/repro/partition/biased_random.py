"""Biased random partitioner.

"Biased random (like random, but biased toward assigning a vertex to a GPU
that contains more of its neighbors) ... tries to reduce the border size
without affecting the load balancing too much" (Section V-C).

Vertices are visited in random order; each draws its GPU from a
distribution that mixes uniform randomness with the already-assigned
neighbor histogram, subject to a soft balance cap.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CsrGraph
from .base import Partitioner

__all__ = ["BiasedRandomPartitioner"]


class BiasedRandomPartitioner(Partitioner):
    """Neighbor-majority-biased random assignment with balance cap.

    Parameters
    ----------
    bias:
        Weight of the neighbor histogram vs. the uniform component
        (0 = pure random, 1 = always follow assigned neighbors).
    imbalance:
        Soft cap: a GPU stops receiving vertices once it holds more than
        ``imbalance * |V| / n`` of them.
    """

    name = "biased-random"

    def __init__(self, seed: int = 0, bias: float = 0.8, imbalance: float = 1.05):
        if not 0.0 <= bias <= 1.0:
            raise ValueError("bias must be in [0, 1]")
        if imbalance < 1.0:
            raise ValueError("imbalance must be >= 1")
        self.seed = seed
        self.bias = bias
        self.imbalance = imbalance

    def key(self) -> tuple:
        return (self.name, self.seed, self.bias, self.imbalance)

    def assign(self, graph: CsrGraph, num_gpus: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        n = graph.num_vertices
        assignment = np.full(n, -1, dtype=np.int32)
        counts = np.zeros(num_gpus, dtype=np.int64)
        cap = int(np.ceil(self.imbalance * n / num_gpus))
        order = rng.permutation(n)
        offsets = graph.row_offsets.astype(np.int64)
        cols = graph.col_indices
        uniform = np.full(num_gpus, 1.0 / num_gpus)
        draws = rng.random(n)
        use_bias = rng.random(n) < self.bias
        for v in order:
            nbrs = cols[offsets[v] : offsets[v + 1]]
            p = None
            if use_bias[v] and nbrs.size:
                assigned = assignment[nbrs]
                assigned = assigned[assigned >= 0]
                if assigned.size:
                    hist = np.bincount(assigned, minlength=num_gpus).astype(float)
                    p = hist / hist.sum()
            if p is None:
                p = uniform
            # soft balance: zero out full GPUs, renormalize
            open_mask = counts < cap
            p = p * open_mask
            total = p.sum()
            if total <= 0:
                p = uniform * open_mask
                total = p.sum()
            p = p / total
            g = int(np.searchsorted(np.cumsum(p), draws[v], side="right"))
            g = min(g, num_gpus - 1)
            assignment[v] = g
            counts[g] += 1
        return assignment
