"""Partitioner interface and partition result tables.

The paper's framework "partitions the graph and its associated data,
reordering or relabeling if necessary" (Section III-B) and exposes a
modular partitioner interface (Section V-C): any assignment of vertices to
GPUs is acceptable; vertices travel with their outgoing edges (edge-cut
partitioning, Section III-C).

A :class:`PartitionResult` is exactly the paper's pair of tables
(Appendix A): ``partition_table[v]`` = host GPU of global vertex ``v``,
``conversion_table[v]`` = v's vertex ID on its host GPU.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import PartitionError
from ..graph.csr import CsrGraph

__all__ = ["PartitionResult", "Partitioner", "reassign_onto_survivors"]


@dataclass
class PartitionResult:
    """Vertex-to-GPU assignment plus derived tables.

    Attributes
    ----------
    num_gpus:
        Number of partitions.
    partition_table:
        ``partition_table[v]`` is the GPU hosting global vertex ``v``.
    conversion_table:
        ``conversion_table[v]`` is the local index of ``v`` among the
        vertices hosted by its GPU (contiguous per GPU, in global-ID
        order).
    """

    num_gpus: int
    partition_table: np.ndarray
    conversion_table: np.ndarray

    @classmethod
    def from_assignment(cls, assignment: np.ndarray, num_gpus: int) -> "PartitionResult":
        """Build the tables from a raw vertex->GPU array."""
        assignment = np.asarray(assignment)
        if assignment.ndim != 1:
            raise PartitionError("assignment must be 1-D")
        if assignment.size and (
            assignment.min() < 0 or assignment.max() >= num_gpus
        ):
            raise PartitionError(
                f"assignment values must lie in [0, {num_gpus})"
            )
        conversion = np.zeros(assignment.size, dtype=np.int64)
        for g in range(num_gpus):
            mask = assignment == g
            conversion[mask] = np.arange(int(mask.sum()))
        return cls(
            num_gpus=num_gpus,
            partition_table=assignment.astype(np.int32),
            conversion_table=conversion,
        )

    @property
    def num_vertices(self) -> int:
        return int(self.partition_table.size)

    def hosted_by(self, gpu: int) -> np.ndarray:
        """Global IDs of the vertices hosted by ``gpu`` (L_i), sorted."""
        return np.flatnonzero(self.partition_table == gpu)

    def counts(self) -> np.ndarray:
        """Vertices hosted per GPU (load balance check)."""
        return np.bincount(self.partition_table, minlength=self.num_gpus)

    def validate(self) -> None:
        if self.conversion_table.shape != self.partition_table.shape:
            raise PartitionError("table shapes differ")
        for g in range(self.num_gpus):
            conv = self.conversion_table[self.partition_table == g]
            if conv.size and (
                np.unique(conv).size != conv.size
                or conv.min() != 0
                or conv.max() != conv.size - 1
            ):
                raise PartitionError(
                    f"conversion table for GPU {g} is not a bijection onto "
                    f"[0, {conv.size})"
                )


class Partitioner(ABC):
    """Strategy object assigning vertices to GPUs.

    Subclasses implement :meth:`assign`; the framework calls
    :meth:`partition` which wraps the assignment in a
    :class:`PartitionResult`.  The paper keeps this modular because no
    partitioner was a clear winner (Section V-C, Fig. 2).
    """

    name: str = "base"

    def key(self) -> Optional[tuple]:
        """A hashable value naming the assignment this object produces,
        or None (the default) when there is none.

        Two partitioners with equal keys must assign every graph
        identically for every GPU count:
        :meth:`~repro.partition.partitioned.PartitionedGraph.of` lets
        problems on one graph share a partition built under an equal
        key.  The built-in partitioners return ``(name, seed,
        ...parameters)``; one that holds state a tuple of scalars cannot
        name (a fixed assignment array, say) keeps the default and is
        never shared.  A subclass that changes what ``assign`` depends
        on must extend the key with it.
        """
        return None

    @abstractmethod
    def assign(self, graph: CsrGraph, num_gpus: int) -> np.ndarray:
        """Return an array of length |V| with values in [0, num_gpus)."""

    def partition(self, graph: CsrGraph, num_gpus: int) -> PartitionResult:
        if num_gpus < 1:
            raise PartitionError("num_gpus must be positive")
        if num_gpus == 1:
            assignment = np.zeros(graph.num_vertices, dtype=np.int32)
        else:
            assignment = self.assign(graph, num_gpus)
        result = PartitionResult.from_assignment(assignment, num_gpus)
        return result


def partitioner_registry() -> List[str]:
    """Names of the built-in partitioners (for CLI/bench sweeps)."""
    return ["random", "biased-random", "metis"]


def reassign_onto_survivors(
    partition_table: np.ndarray, lost_gpus, num_gpus: int
) -> np.ndarray:
    """Deal a lost GPU's vertices round-robin onto the survivors.

    Degraded-mode recovery keeps every surviving GPU's assignment intact
    (their subgraphs and frontiers stay meaningful) and spreads only the
    orphaned vertices, preserving balance to within one vertex per
    survivor.  Deterministic: orphans are dealt in global-ID order.
    """
    lost = {int(g) for g in lost_gpus}
    survivors = np.array(
        [g for g in range(num_gpus) if g not in lost], dtype=np.int32
    )
    if survivors.size == 0:
        raise PartitionError("no surviving GPUs to reassign onto")
    assignment = np.asarray(partition_table).astype(np.int32).copy()
    orphans = np.flatnonzero(np.isin(assignment, list(lost)))
    assignment[orphans] = survivors[
        np.arange(orphans.size, dtype=np.int64) % survivors.size
    ]
    return assignment
