"""Random partitioner — the paper's default.

"While the random partitioner captures no graph locality, it does achieve
excellent load balancing, and performs fairly well across our tests. ...
all other experiments in this paper use the random partitioner."
(Section V-C)

We implement balanced random assignment: a random permutation dealt
round-robin, so partition sizes differ by at most one vertex.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CsrGraph
from .base import Partitioner

__all__ = ["RandomPartitioner"]


class RandomPartitioner(Partitioner):
    """Uniform random balanced vertex assignment."""

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def key(self) -> tuple:
        return (self.name, self.seed)

    def assign(self, graph: CsrGraph, num_gpus: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        n = graph.num_vertices
        perm = rng.permutation(n)
        assignment = np.empty(n, dtype=np.int32)
        # deal the shuffled vertices round-robin => sizes differ by <= 1
        assignment[perm] = np.arange(n, dtype=np.int32) % num_gpus
        return assignment
