"""Vertex duplication: building per-GPU subgraphs.

Section III-C: vertices are distributed to GPUs together with their
outgoing edges; remote vertices referenced by those edges are duplicated
locally as *proxies* so that per-GPU computation touches only local data.
Two strategies:

* **duplicate-1-hop** — proxies only for the immediate remote neighbors;
  vertices renumbered with continuous local IDs (hosted vertices first,
  then proxies).  Less memory, but communication needs ID conversion.
* **duplicate-all** — every vertex of V exists on every GPU (remote ones
  with zero out-edges); IDs stay global, no conversion needed, more
  memory.  Required by primitives that look beyond one hop or traverse
  backward (DOBFS, CC).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..errors import PartitionError
from ..graph.csr import CsrGraph
from .base import PartitionResult

__all__ = ["SubGraph", "build_subgraphs", "DUPLICATE_ALL", "DUPLICATE_1HOP"]

DUPLICATE_ALL = "duplicate-all"
DUPLICATE_1HOP = "duplicate-1-hop"


@dataclass
class SubGraph:
    """The portion of the graph owned by one GPU, in local index space.

    Attributes
    ----------
    gpu_id:
        Owning GPU.
    csr:
        Local CSR over the GPU's vertex set V_i (hosted + proxies).
        Proxy vertices have zero out-edges.
    num_hosted:
        |L_i| — vertices this GPU is responsible for.
    local_to_global:
        Global ID of each local vertex (length |V_i|).
    host_of_local:
        Hosting GPU of each local vertex (length |V_i|).
    host_local_id:
        For each local vertex, its vertex ID *on its hosting GPU* — what
        must be placed in an outgoing message.  For duplicate-all this is
        the identity (global IDs are universal).
    strategy:
        Which duplication strategy built this subgraph.
    owner_keys:
        ``host_of_local`` in the narrowest unsigned dtype that holds it
        (one byte up to 256 GPUs): the sort key of
        :func:`repro.core.comm.split_frontier`'s counting partition.
        NumPy's stable sort of keys of at most 16 bits is an O(n) radix
        pass, which the 32-bit table would not get.  Derived host-side
        bookkeeping, not device structure: :meth:`memory_bytes` does not
        count it.
    """

    gpu_id: int
    csr: CsrGraph
    num_hosted: int
    local_to_global: np.ndarray
    host_of_local: np.ndarray
    host_local_id: np.ndarray
    strategy: str
    owner_keys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        hosts = self.host_of_local
        self.owner_keys = hosts.astype(
            np.min_scalar_type(int(hosts.max(initial=0)))
        )

    @property
    def num_vertices(self) -> int:
        """|V_i|: hosted plus proxy vertices."""
        return self.csr.num_vertices

    @property
    def num_edges(self) -> int:
        """|E_i|."""
        return self.csr.num_edges

    def is_hosted(self, local_ids: np.ndarray) -> np.ndarray:
        """Boolean mask: which of these local vertices does this GPU host?"""
        return self.host_of_local[local_ids] == self.gpu_id

    def hosted_mask(self) -> np.ndarray:
        return self.host_of_local == self.gpu_id

    def memory_bytes(self) -> int:
        """Logical bytes of the subgraph structure on the device."""
        total = self.csr.memory_bytes()
        total += self.local_to_global.nbytes
        total += self.host_of_local.nbytes
        return int(total)


def _subgraph_duplicate_all(
    graph: CsrGraph, part: PartitionResult, gpu: int,
    deg: np.ndarray, edge_owner: np.ndarray,
) -> SubGraph:
    """Every global vertex exists locally; only hosted rows keep edges."""
    pt = part.partition_table
    hosted = pt == gpu
    local_deg = np.where(hosted, deg, 0)
    row_offsets = np.zeros(graph.num_vertices + 1, dtype=graph.ids.size_dtype)
    np.cumsum(local_deg, out=row_offsets[1:])
    # gather the hosted rows' column slices
    keep = edge_owner == gpu
    cols = graph.col_indices[keep]
    values = None if graph.values is None else graph.values[keep]
    csr = CsrGraph(
        graph.num_vertices, row_offsets, cols, values,
        ids=graph.ids, directed=graph.directed,
    )
    n = graph.num_vertices
    ident = np.arange(n, dtype=np.int64)
    return SubGraph(
        gpu_id=gpu,
        csr=csr,
        num_hosted=int(hosted.sum()),
        local_to_global=ident,
        host_of_local=pt.astype(np.int32),
        host_local_id=ident,
        strategy=DUPLICATE_ALL,
    )


def _subgraph_duplicate_1hop(
    graph: CsrGraph, part: PartitionResult, gpu: int,
    deg: np.ndarray, edge_owner: np.ndarray,
) -> SubGraph:
    """Hosted vertices renumbered [0, |L_i|), proxies [|L_i|, |V_i|).

    O(|V| + |E_i|) on the bounded vertex domain: the proxy set is a mark
    array read back with ``flatnonzero`` (ascending, as a sort would give)
    and destinations are renumbered through one scattered global->local
    table — no sort, no binary search.
    """
    pt = part.partition_table
    n = graph.num_vertices
    hosted_globals = part.hosted_by(gpu)  # sorted global ids
    num_hosted = hosted_globals.size
    # gather this GPU's edges (outgoing edges of hosted vertices)
    keep = edge_owner == gpu
    dst_global = graph.col_indices[keep]
    values = None if graph.values is None else graph.values[keep]
    # proxies: distinct remote destinations, by ascending global id
    is_proxy = np.zeros(n, dtype=bool)
    is_proxy[dst_global] = True
    is_proxy[hosted_globals] = False
    remote = np.flatnonzero(is_proxy)
    l2g = np.concatenate([hosted_globals, remote])
    # global -> local: hosted via the conversion table, proxies appended;
    # only the entries of this GPU's vertices are ever read
    local_of = np.empty(n, dtype=np.int64)
    local_of[hosted_globals] = part.conversion_table[hosted_globals]
    local_of[remote] = np.arange(num_hosted, l2g.size, dtype=np.int64)
    row_offsets = np.zeros(l2g.size + 1, dtype=graph.ids.size_dtype)
    np.cumsum(
        np.concatenate([deg[hosted_globals], np.zeros(remote.size, np.int64)]),
        out=row_offsets[1:],
    )
    csr = CsrGraph(
        l2g.size,
        row_offsets,
        local_of[dst_global].astype(graph.ids.vertex_dtype),
        values,
        ids=graph.ids,
        directed=graph.directed,
    )
    host_of_local = np.concatenate(
        [np.full(num_hosted, gpu, dtype=np.int32), pt[remote].astype(np.int32)]
    )
    # ID each local vertex carries on its host GPU: the conversion table
    host_local_id = part.conversion_table[l2g].astype(np.int64)
    return SubGraph(
        gpu_id=gpu,
        csr=csr,
        num_hosted=num_hosted,
        local_to_global=l2g,
        host_of_local=host_of_local,
        host_local_id=host_local_id,
        strategy=DUPLICATE_1HOP,
    )


def build_subgraphs(
    graph: CsrGraph,
    part: PartitionResult,
    strategy: str = DUPLICATE_ALL,
) -> List[SubGraph]:
    """Build every GPU's subgraph under the chosen duplication strategy.

    A single-GPU partition returns one trivially-complete subgraph so
    primitives can run the same code path for n = 1.
    """
    if strategy not in (DUPLICATE_ALL, DUPLICATE_1HOP):
        raise PartitionError(f"unknown duplication strategy: {strategy!r}")
    if part.num_vertices != graph.num_vertices:
        raise PartitionError(
            "partition table size does not match the graph"
        )
    builder = (
        _subgraph_duplicate_all
        if strategy == DUPLICATE_ALL
        else _subgraph_duplicate_1hop
    )
    # shared by every GPU's builder: out-degrees, and per edge the GPU
    # hosting its source (vertices travel with their outgoing edges)
    deg = np.diff(graph.row_offsets).astype(np.int64)
    edge_owner = np.repeat(part.partition_table, deg)
    return [
        builder(graph, part, g, deg, edge_owner)
        for g in range(part.num_gpus)
    ]
