"""Graph partitioning: partitioners, borders, vertex duplication."""

from .base import PartitionResult, Partitioner, reassign_onto_survivors
from .biased_random import BiasedRandomPartitioner
from .border import BorderStats, border_matrix, border_stats, edge_cut
from .duplication import (
    DUPLICATE_1HOP,
    DUPLICATE_ALL,
    SubGraph,
    build_subgraphs,
)
from .metis_like import MetisLikePartitioner
from .partitioned import PartitionedGraph
from .random_part import RandomPartitioner

__all__ = [
    "Partitioner",
    "PartitionResult",
    "reassign_onto_survivors",
    "RandomPartitioner",
    "BiasedRandomPartitioner",
    "MetisLikePartitioner",
    "make_partitioner",
    "edge_cut",
    "border_matrix",
    "border_stats",
    "BorderStats",
    "SubGraph",
    "build_subgraphs",
    "PartitionedGraph",
    "DUPLICATE_ALL",
    "DUPLICATE_1HOP",
]


def make_partitioner(name: str, seed: int = 0) -> Partitioner:
    """Factory used by benches and the CLI: name in Fig. 2's legend."""
    if name == "random":
        return RandomPartitioner(seed=seed)
    if name in ("biased-random", "biasrandom", "biased_random"):
        return BiasedRandomPartitioner(seed=seed)
    if name == "metis":
        return MetisLikePartitioner(seed=seed)
    raise ValueError(f"unknown partitioner {name!r}")
