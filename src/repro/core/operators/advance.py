"""Advance operator: visit the neighbors of a frontier.

Gunrock's advance "generates a new frontier by visiting the neighbors of
the current frontier" (Section II-B).  Two parallelization modes matter to
the paper:

* :func:`advance_push` — the classic per-*edge* parallel advance: every
  neighbor of every frontier vertex is produced.  W = O(edges gathered).
* :func:`advance_pull` — the per-*vertex* mode added in Section VI-A for
  direction-optimizing traversal: each candidate vertex scans its
  neighbor list *serially* and stops at the first neighbor found in the
  frontier ("edge skipping").  W = O(edges actually scanned), which can be
  far below the candidate vertices' total degree.

Both return real arrays (correctness) plus an :class:`OpStats`
(cost-model input).  All segment processing is vectorized.  The pull
reads what it charges for: it searches for each candidate's first hit
in rounds over growing chunks of the rows still in play — columns
[0, 2), then [2, 10), [10, 42), each chunk 4x the last — and a row
leaves at its first hit, so it reads fewer than four columns per edge
it scans.

Rows are read as ``cols64[starts64[v]:ends64[v]]``, so one code path
serves a materialised :class:`~repro.graph.csr.CsrGraph` (duplicate-1-hop,
whose two names are views of its ``offsets64``) and a duplicate-all
sub-graph's :class:`~repro.graph.csr.CsrRows`, which reads the input
graph's rows in place.  Edge indices are positions in whatever ``cols64``
the rows index — the whole graph's, for a row view — and therefore valid
for its ``values``.

Hot-path allocation discipline: CSR structure is indexed through cached
int64 views (no per-call ``astype`` copy); the edge-length temporaries are
plain NumPy arrays, allocated per call.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ...graph.csr import CsrGraph, CsrRows
from ..stats import OpStats

__all__ = ["gather_neighbors", "advance_push", "advance_pull", "push_stats"]

_BIG = np.iinfo(np.int64).max
#: columns per row in the pull's first round; each later round reads 4x
#: the last (see :func:`advance_pull`)
_PULL_CHUNK0 = 2


def push_stats(nf: int, edges: int, ids_bytes: int, size_bytes: int) -> OpStats:
    """The push-advance cost model for ``nf`` frontier items and
    ``edges`` traversed edges: shared by :func:`advance_push` and by
    hooks that charge a frontier other than the one they gather (SSSP
    charges every copy of a vertex and gathers each once), so stats stay
    bit-identical no matter which computed the arrays."""
    return OpStats(
        name="advance",
        input_size=nf,
        output_size=edges,
        edges_visited=edges,
        vertices_processed=nf,
        launches=1,
        streaming_bytes=(nf + edges) * ids_bytes,
        random_bytes=2 * nf * size_bytes
        + edges * (ids_bytes + 0.75 * size_bytes),
    )


def _frontier64(frontier: np.ndarray) -> np.ndarray:
    """The frontier as int64, without copying already-converted input."""
    frontier = np.asarray(frontier)
    if frontier.dtype == np.int64:
        return frontier
    return frontier.astype(np.int64)


def gather_neighbors(
    csr: Union[CsrGraph, CsrRows],
    frontier: np.ndarray,
    need_sources: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Gather all out-neighbors of ``frontier``.

    Returns ``(neighbors, sources, edge_indices)``, each of length equal
    to the total degree of the frontier.  ``sources[k]`` is the frontier
    vertex whose edge produced ``neighbors[k]`` and ``edge_indices[k]`` is
    that edge's position in ``csr.cols64`` (for weight lookup).  A
    caller that never reads ``sources`` passes ``need_sources=False`` and
    gets ``None``: the edge-length repeat is not materialised.
    """
    frontier = _frontier64(frontier)
    starts = csr.starts64[frontier]
    counts = csr.ends64[frontier] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy() if need_sources else None, empty.copy()
    # flattened edge indices: repeat(start - exclusive_prefix) + arange
    seg_base = (starts + counts - counts.cumsum()).repeat(counts)
    edge_idx = seg_base + np.arange(total, dtype=np.int64)
    neighbors = csr.cols64[edge_idx]
    sources = frontier.repeat(counts) if need_sources else None
    return neighbors, sources, edge_idx


def advance_push(
    csr: Union[CsrGraph, CsrRows],
    frontier: np.ndarray,
    ids_bytes: int = 4,
    tracer=None,
    need_sources: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray, OpStats]:
    """Per-edge parallel advance (the standard forward traversal).

    Returns ``(neighbors, sources, edge_indices, stats)``; ``sources`` is
    ``None`` with ``need_sources=False`` (see :func:`gather_neighbors`).

    Traffic model: frontier read + output write are streaming; offset
    lookups and neighbor-list gathers are random.  Per traversed edge the
    kernel moves one column index (``VertexT``) plus load-balancing /
    edge-offset data at ``SizeT`` width — the term that makes 64-bit edge
    IDs slower (Table V: "reads 2x data per edge").

    ``tracer`` (optional) samples the call's wall-clock cost into the
    per-operator profile; it never changes results.
    """
    _wall0 = tracer.wall() if tracer is not None else 0.0
    neighbors, sources, edge_idx = gather_neighbors(
        csr, frontier, need_sources=need_sources
    )
    edges = int(neighbors.size)
    nf = int(np.asarray(frontier).size)
    stats = push_stats(nf, edges, ids_bytes, csr.ids.size_bytes)
    if tracer is not None:
        tracer.op_wall_sample("advance", tracer.wall() - _wall0)
    return neighbors, sources, edge_idx, stats


def advance_pull(
    csr: Union[CsrGraph, CsrRows],
    candidates: np.ndarray,
    in_frontier: np.ndarray,
    ids_bytes: int = 4,
    tracer=None,
) -> Tuple[np.ndarray, np.ndarray, OpStats]:
    """Per-vertex pull advance with edge skipping (Section VI-A).

    Parameters
    ----------
    csr:
        The graph; for the paper's undirected datasets the out-adjacency
        doubles as the in-adjacency, which is what backward traversal
        scans.
    candidates:
        Vertices looking for a parent (the unvisited set).
    in_frontier:
        Boolean mask over vertices: membership in the current frontier.

    Returns
    -------
    discovered, parents, stats:
        ``discovered`` are the candidates that found a parent in the
        frontier; ``parents[k]`` is the first such neighbor (serial-scan
        order, deterministic).  ``stats.edges_visited`` counts only edges
        actually *scanned* — a candidate stops at its first hit, which is
        the entire point of direction-optimization.

    The search runs in rounds: round *k* reads the next ``2 * 4**k``
    columns of every row still in play, finds each row's first hit among
    them with ``np.minimum.reduceat`` over masked positions, and drops the
    rows that hit or ran out.  A row whose first hit is column *p* has read
    at most the end of *p*'s chunk, under ``4 * (p + 1)`` columns; a row
    without a hit has read its whole row, which it is charged for anyway.
    So ``in_frontier`` is looked up fewer than ``4 * edges_visited`` times,
    where a full gather of every row reads the candidates' total degree.
    """
    _wall0 = tracer.wall() if tracer is not None else 0.0
    candidates = _frontier64(candidates)
    n_candidates = int(candidates.size)
    starts = csr.starts64[candidates]
    counts = csr.ends64[candidates] - starts
    rows = counts.nonzero()[0]
    if rows.size == 0:
        empty = np.empty(0, dtype=np.int64)
        stats = OpStats(
            name="advance-pull",
            input_size=n_candidates,
            vertices_processed=n_candidates,
            launches=1,
            streaming_bytes=n_candidates * ids_bytes,
            random_bytes=2 * n_candidates * ids_bytes,
        )
        if tracer is not None:
            tracer.op_wall_sample("advance-pull", tracer.wall() - _wall0)
        return empty, empty.copy(), stats

    # each row's parent (its first hit), -1 while it has none: the rows
    # still in play read columns [lo, lo + size) of their own row per
    # round, and leave at a hit or at their row's end
    parent = np.full(rows.size, -1, dtype=np.int64)
    live = np.arange(rows.size, dtype=np.int64)
    starts = starts.take(rows)
    counts = counts.take(rows)
    edges_scanned = 0
    lo, size = 0, _PULL_CHUNK0
    while live.size:
        width = np.minimum(counts - lo, size)
        ends = width.cumsum()
        total = int(ends[-1])
        seg = ends - width
        flat = np.arange(total, dtype=np.int64)
        edge_idx = (starts + (lo - seg)).repeat(width)
        edge_idx += flat
        neighbors = csr.cols64[edge_idx]
        hit = in_frontier[neighbors]
        first = np.minimum.reduceat(np.where(hit, flat, _BIG), seg)
        missed = first == _BIG
        got = (~missed).nonzero()[0]
        first = first.take(got)
        parent[live.take(got)] = neighbors.take(first)
        # a row with a hit scanned up to and including it, the others
        # their whole chunk
        edges_scanned += total - int((ends.take(got) - 1 - first).sum())
        lo += size
        size *= 4
        stay = (missed & (counts > lo)).nonzero()[0]
        live, starts, counts = live.take(stay), starts.take(stay), \
            counts.take(stay)
    found = parent >= 0
    discovered = candidates.take(rows)[found]
    parents = parent[found]
    n_discovered = int(discovered.size)
    stats = OpStats(
        name="advance-pull",
        input_size=n_candidates,
        output_size=n_discovered,
        edges_visited=edges_scanned,
        vertices_processed=n_candidates,
        launches=1,
        streaming_bytes=(n_candidates + n_discovered) * ids_bytes,
        random_bytes=2 * n_candidates * csr.ids.size_bytes
        + edges_scanned * (ids_bytes + 0.75 * csr.ids.size_bytes + 1),
    )
    if tracer is not None:
        tracer.op_wall_sample("advance-pull", tracer.wall() - _wall0)
    return discovered, parents, stats
