"""A graph partitioned once: assignment tables plus per-GPU sub-graphs.

The paper partitions at ``Init`` and then runs ``for src in srcs { Reset;
Enact }`` (Section III-B, Appendix A): the partition is a property of
(graph, partitioner, GPU count, duplication strategy), not of the
primitive that happens to traverse it.  :class:`PartitionedGraph` is that
object — immutable, every array read-only — and it is the only way a
problem gets its sub-graphs.

**Interning.**  :meth:`PartitionedGraph.of` returns the *live* instance
built for the same graph object under an equal
``(partitioner.key(), num_gpus, duplication)``, if there is one, and
builds (and registers) a new one otherwise.  The registry hangs off the
graph object (``CsrGraph._partitioned``, beside its ``_csc`` /
``_offsets64`` caches) and holds its entries weakly: an entry dies with
the last problem using it, so nothing is retained on a problem's behalf
and there is nothing to invalidate or to size.  A partitioner whose
``key()`` is None (the :class:`~repro.partition.base.Partitioner`
default) is never interned.

**Replacement, not mutation.**  Degraded-mode recovery builds a fresh,
un-interned instance with :meth:`PartitionedGraph.from_assignment` and
the problem rebinds to it; the shared one is never touched, so another
problem on the same partition — concurrently open, on any backend — keeps
exactly what it had.

**Edge structure lives once.**  Under duplicate-all a sub-graph is a
row view of the input graph (:class:`~repro.graph.csr.CsrRows`): the
graph's own ``cols64`` / ``values``, its ``offsets64[:-1]`` as row
starts, and one |V|-long ``ends64`` per GPU; the ID tables are one copy
shared by every GPU.  So a build — and the rebuild a GPU loss makes in
the parent and in every surviving ``processes`` worker — writes O(|V|)
per GPU, never an array of |E| items.  The one per-GPU edge array any
primitive reads, the hosted rows' packed columns
(:attr:`~repro.partition.duplication.SubGraph.hosted_cols64`), is
built at its first use, by the process that runs that GPU.

Forked ``processes`` workers read all of this through the fork's
copy-on-write pages: it is never written, so it is never copied.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..errors import PartitionError
from ..graph.csr import CsrGraph
from .base import Partitioner, PartitionResult
from .duplication import DUPLICATE_ALL, SubGraph, build_subgraphs

__all__ = ["PartitionedGraph"]


@dataclass(frozen=True, eq=False)
class PartitionedGraph:
    """Partition tables and sub-graphs of one graph, shared read-only.

    Attributes
    ----------
    graph:
        The full input graph (the caller's object; not frozen here).
    partition:
        The paper's partition / conversion tables.
    duplication:
        The strategy the sub-graphs were built under.
    subgraphs:
        One :class:`~repro.partition.duplication.SubGraph` per GPU.
    hosted_frontiers:
        Per GPU, the ascending local IDs of the vertices it hosts —
        hooks hand these out as frontiers instead of rescanning
        ``host_of_local`` every superstep.
    """

    graph: CsrGraph
    partition: PartitionResult
    duplication: str
    subgraphs: Tuple[SubGraph, ...]
    hosted_frontiers: Tuple[np.ndarray, ...]
    #: per GPU, the global -> local table of :meth:`global_to_local`,
    #: built at its first use
    _local_of: List[Optional[np.ndarray]] = field(repr=False)

    @property
    def num_gpus(self) -> int:
        return self.partition.num_gpus

    # -- construction ----------------------------------------------------
    @classmethod
    def of(
        cls,
        graph: CsrGraph,
        partitioner: Partitioner,
        num_gpus: int,
        duplication: str,
    ) -> "PartitionedGraph":
        """The partition of ``graph`` by ``partitioner``: the live one
        built under an equal key if there is one, else a new one."""
        # anything with a ``partition`` method is accepted as a
        # partitioner; one without ``key`` is, like key() None, not shared
        key_of = getattr(partitioner, "key", None)
        key = None if key_of is None else key_of()
        if key is None:
            return cls._build(
                graph, partitioner.partition(graph, num_gpus), duplication
            )
        live = graph._partitioned
        if live is None:
            live = graph._partitioned = weakref.WeakValueDictionary()
        key = (key, num_gpus, duplication)
        found = live.get(key)
        if found is None:
            found = live[key] = cls._build(
                graph, partitioner.partition(graph, num_gpus), duplication
            )
        return found

    @classmethod
    def from_assignment(
        cls,
        graph: CsrGraph,
        assignment: np.ndarray,
        num_gpus: int,
        duplication: str,
    ) -> "PartitionedGraph":
        """A private (never interned) partition from a raw vertex -> GPU
        array: what a repartition after a GPU loss binds."""
        return cls._build(
            graph, PartitionResult.from_assignment(assignment, num_gpus),
            duplication,
        )

    @classmethod
    def _build(
        cls, graph: CsrGraph, partition: PartitionResult, duplication: str
    ) -> "PartitionedGraph":
        subgraphs = tuple(build_subgraphs(graph, partition, duplication))
        hosted = tuple(
            np.flatnonzero(sub.host_of_local == sub.gpu_id)
            for sub in subgraphs
        )
        frozen = [partition.partition_table, partition.conversion_table,
                  *hosted]
        for sub in subgraphs:
            csr = sub.csr
            # the int64 views the operators traverse are built here, so
            # forked workers inherit them instead of each building its own
            frozen += [
                sub.local_to_global, sub.host_of_local, sub.host_local_id,
                sub.owner_keys, csr.starts64, csr.ends64, csr.cols64,
            ]
            if isinstance(csr, CsrGraph):
                frozen += [csr.row_offsets, csr.col_indices]
            if csr.values is not None:
                frozen.append(csr.values)
        for arr in frozen:
            arr.setflags(write=False)
        return cls(
            graph, partition, duplication, subgraphs, hosted,
            [None] * partition.num_gpus,
        )

    # -- queries ---------------------------------------------------------
    def global_to_local(self, gpu: int, global_ids: np.ndarray) -> np.ndarray:
        """Map global vertex IDs into ``gpu``'s local numbering.

        Every requested vertex must exist in the sub-graph (hosted or
        1-hop proxy); a miss means the caller routed state to the wrong
        GPU and raises :class:`~repro.errors.PartitionError`.
        """
        ids = np.asarray(global_ids, dtype=np.int64)
        if self.duplication == DUPLICATE_ALL:
            return ids
        local_of = self._local_of[gpu]
        if local_of is None:
            sub = self.subgraphs[gpu]
            local_of = np.full(self.graph.num_vertices, -1, dtype=np.int64)
            local_of[sub.local_to_global] = np.arange(
                sub.num_vertices, dtype=np.int64
            )
            local_of.setflags(write=False)
            self._local_of[gpu] = local_of
        out = local_of[ids]
        if out.size and out.min() < 0:
            missing = ids[out < 0][:4]
            raise PartitionError(
                f"vertices {missing.tolist()} are not present on GPU {gpu}",
                gpu_id=gpu, site="problem.global_to_local",
            )
        return out
