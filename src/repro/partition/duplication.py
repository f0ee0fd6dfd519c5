"""Vertex duplication: building per-GPU subgraphs.

Section III-C: vertices are distributed to GPUs together with their
outgoing edges; remote vertices referenced by those edges are duplicated
locally as *proxies* so that per-GPU computation touches only local data.
Two strategies:

* **duplicate-1-hop** — proxies only for the immediate remote neighbors;
  vertices renumbered with continuous local IDs (hosted vertices first,
  then proxies).  Less memory, but communication needs ID conversion.
  Each GPU gets its own materialised :class:`~repro.graph.csr.CsrGraph`.
* **duplicate-all** — every vertex of V exists on every GPU (remote ones
  with zero out-edges); IDs stay global, no conversion needed, more
  memory.  Required by primitives that look beyond one hop or traverse
  backward (DOBFS, CC).  With global IDs a GPU's sub-graph *is* the
  input graph's rows that it hosts, so it is a
  :class:`~repro.graph.csr.CsrRows` over the input CSR: the only
  per-GPU array is its |V|-long ``ends64``, and the ID tables, equal on
  every GPU, exist once.  No duplicate-all sub-graph owns an array of
  |E| items; :meth:`SubGraph.hosted_cols64` packs the hosted rows'
  columns at its first use, in the process that runs that GPU.

The device is charged for a materialised sub-graph either way
(:meth:`SubGraph.memory_bytes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from ..errors import PartitionError
from ..graph.csr import CsrGraph, CsrRows
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
        The GPU's rows over its vertex set V_i (hosted + proxies):
        a :class:`~repro.graph.csr.CsrRows` view of the input graph under
        duplicate-all, a local :class:`~repro.graph.csr.CsrGraph` under
        duplicate-1-hop.  Proxy vertices have zero out-edges.  Operators
        read it through ``starts64`` / ``ends64`` / ``cols64``.
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
        count it.  Derived from ``host_of_local`` unless given.
    """

    gpu_id: int
    csr: Union[CsrGraph, CsrRows]
    num_hosted: int
    local_to_global: np.ndarray
    host_of_local: np.ndarray
    host_local_id: np.ndarray
    strategy: str
    owner_keys: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _hosted_cols64: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.owner_keys is None:
            self.owner_keys = _owner_keys(self.host_of_local)

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

    @property
    def hosted_cols64(self) -> np.ndarray:
        """The hosted rows' columns, concatenated in row order (int64,
        read-only): the per-edge destinations PR's push and CC's hooking
        sweep.  Built at first use and kept, so it exists once per
        sub-graph — shared by every problem on the partition — and only
        in a process that runs this GPU.  Under duplicate-1-hop it is the
        local CSR's ``cols64`` itself (proxies keep no out-edges)."""
        cols = self._hosted_cols64
        if cols is None:
            cols = self._hosted_cols64 = self.csr.packed_cols64()
        return cols

    def memory_bytes(self) -> int:
        """Logical bytes of the subgraph structure on the device."""
        total = self.csr.memory_bytes()
        total += self.local_to_global.nbytes
        total += self.host_of_local.nbytes
        return int(total)


def _owner_keys(hosts: np.ndarray) -> np.ndarray:
    return hosts.astype(np.min_scalar_type(int(hosts.max(initial=0))))


def _subgraphs_duplicate_all(
    graph: CsrGraph, part: PartitionResult
) -> List[SubGraph]:
    """Every global vertex exists locally; only hosted rows keep edges.

    Each GPU's sub-graph is a row view of ``graph``: O(|V|) per GPU, and
    the ID tables — the same on every GPU — are built once and shared.
    """
    pt = part.partition_table
    ident = np.arange(graph.num_vertices, dtype=np.int64)
    hosts = pt.astype(np.int32)
    keys = _owner_keys(hosts)
    subs = []
    for gpu in range(part.num_gpus):
        hosted = pt == gpu
        subs.append(SubGraph(
            gpu_id=gpu,
            csr=graph.rows(hosted),
            num_hosted=int(np.count_nonzero(hosted)),
            local_to_global=ident,
            host_of_local=hosts,
            host_local_id=ident,
            strategy=DUPLICATE_ALL,
            owner_keys=keys,
        ))
    return subs


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
    if strategy == DUPLICATE_ALL:
        return _subgraphs_duplicate_all(graph, part)
    # shared by every GPU's builder: out-degrees, and per edge the GPU
    # hosting its source (vertices travel with their outgoing edges)
    deg = np.diff(graph.row_offsets).astype(np.int64)
    edge_owner = np.repeat(part.partition_table, deg)
    return [
        _subgraph_duplicate_1hop(graph, part, g, deg, edge_owner)
        for g in range(part.num_gpus)
    ]
