"""Fused advance+filter (kernel fusion, Section VI-C).

Fusing an advance with the filter that follows it has three effects the
paper calls out, all reproduced here:

1. one kernel launch instead of two (less launch overhead);
2. producer-consumer locality — the intermediate neighbor list is consumed
   in registers/shared memory, so its streaming write+read disappears from
   the traffic model;
3. **no intermediate O(|E|) frontier buffer in device memory**, which is
   the memory-footprint win that lets larger subgraphs fit per GPU
   (Fig. 3 "prealloc+fusion").

The unfused path must materialize the advance output (the enactor sizes an
``intermediate`` buffer for it); the fused path never does.

It is one function, as it is one kernel: one row gather, the label
probe and claim, and one :class:`OpStats`.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ...graph.csr import CsrGraph, CsrRows
from ..stats import OpStats
from .advance import gather_neighbors
from .compute import dedup, member_mask, segment_first

__all__ = ["fused_advance_filter", "first_witness"]


def first_witness(
    neighbors: np.ndarray,
    sources: np.ndarray,
    survivors: np.ndarray,
    num_vertices: int,
) -> np.ndarray:
    """For each survivor, the source of its first discovery.

    "First" is the lowest position in the gathered neighbor list — a
    deterministic stand-in for the GPU's atomic race, used for
    predecessor marking.  ``survivors`` is the filter's output (distinct
    IDs); only the candidates that survived enter the min-scatter.
    ``num_vertices`` bounds every neighbor ID.
    """
    if survivors.size == 0:
        return np.empty(0, dtype=np.int64)
    pos = member_mask(neighbors, survivors, num_vertices).nonzero()[0]
    first_pos = segment_first(
        neighbors.take(pos), pos, survivors, num_vertices
    )
    return sources.take(first_pos)


def fused_advance_filter(
    csr: Union[CsrGraph, CsrRows],
    frontier: np.ndarray,
    labels: np.ndarray,
    invalid_label,
    ids_bytes: int = 4,
    tracer=None,
    witness: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray], OpStats]:
    """Advance then unvisited-filter as one fused kernel.

    Returns ``(survivors, their_sources, stats)`` where each source is
    that of the first edge that discovered the surviving vertex
    (deterministic: first in gather order wins, matching the
    serialized-atomics tie-break of a GPU run re-executed for
    reproducibility).  A caller that marks no predecessors passes
    ``witness=False`` and gets ``None``: the per-edge sources are not
    built and the witness is not computed.
    """
    # one fused kernel means one wall-clock sample under the fused name
    _wall0 = tracer.wall() if tracer is not None else 0.0
    neighbors, sources, _ = gather_neighbors(
        csr, frontier, need_sources=witness
    )
    nf, edges = int(frontier.size), int(neighbors.size)
    survivors = neighbors
    if edges:
        # label probe, then the atomic claim of each unvisited vertex
        unvisited = (labels[neighbors] == invalid_label).nonzero()[0]
        survivors = dedup(neighbors.take(unvisited), labels.shape[0])
    n_out = int(survivors.size)
    w_sources = None
    if witness:
        w_sources = first_witness(
            neighbors, sources, survivors, labels.shape[0]
        )
    size_bytes = csr.ids.size_bytes
    # the advance's terms, then the filter's, as the unfused charges
    # sum them: the same floats and types bit for bit
    stats = OpStats(
        name="advance+filter(fused)", input_size=nf, output_size=n_out,
        edges_visited=edges, vertices_processed=nf + edges, launches=1,
        streaming_bytes=max(0.0, (nf + edges) * ids_bytes
                            + (edges + n_out) * ids_bytes
                            - 2 * edges * ids_bytes),
        random_bytes=2 * nf * size_bytes
        + edges * (ids_bytes + 0.75 * size_bytes) + edges * ids_bytes,
        atomic_ops=float(n_out),
    )
    if tracer is not None:
        tracer.op_wall_sample("advance+filter(fused)", tracer.wall() - _wall0)
    return survivors, w_sources, stats
