"""Multilevel edge-cut partitioner (Metis stand-in).

The paper compares against Metis [Karypis & Kumar 1998]; without the
library available we implement the same algorithmic skeleton from scratch:

1. **Coarsening** by heavy-edge matching until the graph is small;
2. **Initial partitioning** of the coarsest graph by greedy graph growing
   (balanced BFS regions);
3. **Uncoarsening** with greedy boundary refinement (Kernighan-Lin-style
   positive-gain moves under a balance constraint).

Like Metis, it minimizes *edge cut* — which Section V-C argues is the
wrong objective for this system (border vertex count is what matters) —
so it reproduces the paper's finding that Metis "only wins in a few
situations, with small margins, but takes a much longer time to
partition" (Fig. 2).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

from ..graph.csr import CsrGraph
from .base import Partitioner

__all__ = ["MetisLikePartitioner"]


def _to_weighted_adj(graph: CsrGraph) -> sp.csr_matrix:
    """Adjacency matrix with unit edge weights, symmetrized, no diagonal."""
    n = graph.num_vertices
    indptr = graph.row_offsets.astype(np.int64)
    indices = graph.col_indices.astype(np.int64)
    data = np.ones(indices.size, dtype=np.float64)
    a = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    a = a + a.T  # symmetrize; duplicate edges merge with summed weight
    a.setdiag(0)
    a.eliminate_zeros()
    return a.tocsr()


def _heavy_edge_matching(
    adj: sp.csr_matrix, rng: np.random.Generator
) -> np.ndarray:
    """Return ``match[v]`` = partner of v (or v itself if unmatched)."""
    n = adj.shape[0]
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    for v in order:
        if match[v] >= 0:
            continue
        best, best_w = -1, -1.0
        for idx in range(indptr[v], indptr[v + 1]):
            u = indices[idx]
            if match[u] < 0 and u != v and data[idx] > best_w:
                best, best_w = u, data[idx]
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v
    return match


def _coarsen(
    adj: sp.csr_matrix, vwgt: np.ndarray, match: np.ndarray
) -> Tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Contract matched pairs; returns (coarse adj, coarse vwgt, mapping)."""
    n = adj.shape[0]
    # canonical representative = min(v, match[v]); number them contiguously
    rep = np.minimum(np.arange(n), match)
    uniq, mapping = np.unique(rep, return_inverse=True)
    nc = uniq.size
    proj = sp.csr_matrix(
        (np.ones(n), (np.arange(n), mapping)), shape=(n, nc)
    )
    coarse = (proj.T @ adj @ proj).tocsr()
    coarse.setdiag(0)
    coarse.eliminate_zeros()
    coarse_vwgt = np.asarray(proj.T @ vwgt).ravel()
    return coarse, coarse_vwgt, mapping


def _greedy_grow(
    adj: sp.csr_matrix, vwgt: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Initial partition by balanced region growing on the coarsest graph."""
    n = adj.shape[0]
    target = vwgt.sum() / k
    part = np.full(n, -1, dtype=np.int32)
    indptr, indices = adj.indptr, adj.indices
    unassigned = set(range(n))
    for p in range(k - 1):
        # seed: random unassigned vertex
        seed = int(rng.choice(np.fromiter(unassigned, dtype=np.int64)))
        frontier = [seed]
        weight = 0.0
        while frontier and weight < target:
            v = frontier.pop()
            if part[v] >= 0:
                continue
            part[v] = p
            weight += vwgt[v]
            unassigned.discard(v)
            for idx in range(indptr[v], indptr[v + 1]):
                u = indices[idx]
                if part[u] < 0:
                    frontier.append(u)
        if not unassigned:
            break
        # region ran out of frontier before reaching target: top up randomly
        while weight < target and unassigned:
            v = unassigned.pop()
            part[v] = p
            weight += vwgt[v]
    for v in list(unassigned):
        part[v] = k - 1
    part[part < 0] = k - 1
    return part


def _refine(
    adj: sp.csr_matrix,
    vwgt: np.ndarray,
    part: np.ndarray,
    k: int,
    imbalance: float,
    passes: int,
) -> np.ndarray:
    """Greedy positive-gain boundary moves under a balance constraint."""
    n = adj.shape[0]
    part = part.copy()
    cap = imbalance * vwgt.sum() / k
    for _ in range(passes):
        onehot = sp.csr_matrix(
            (np.ones(n), (np.arange(n), part)), shape=(n, k)
        )
        conn = np.asarray((adj @ onehot).todense())  # n x k edge weight to each part
        internal = conn[np.arange(n), part]
        best_part = np.argmax(conn, axis=1)
        gain = conn[np.arange(n), best_part] - internal
        movers = np.flatnonzero((gain > 0) & (best_part != part))
        if movers.size == 0:
            break
        weights = np.bincount(part, weights=vwgt, minlength=k)
        moved = 0
        # move in descending gain order; conn is stale after moves but a
        # pass-based KL heuristic tolerates that (next pass re-evaluates)
        for v in movers[np.argsort(-gain[movers])]:
            tgt = best_part[v]
            if weights[tgt] + vwgt[v] > cap:
                continue
            weights[part[v]] -= vwgt[v]
            weights[tgt] += vwgt[v]
            part[v] = tgt
            moved += 1
        if moved == 0:
            break
    return part


class MetisLikePartitioner(Partitioner):
    """Multilevel edge-cut minimizing partitioner.

    Parameters
    ----------
    seed:
        RNG seed (matching/growing are randomized).
    coarsen_to:
        Stop coarsening once the graph has at most ``coarsen_to * k``
        vertices.
    imbalance:
        Allowed load imbalance factor (Metis default is 1.03; we are
        slightly looser because the refinement is simpler).
    refine_passes:
        Boundary-refinement passes per uncoarsening level.
    """

    name = "metis"

    def __init__(
        self,
        seed: int = 0,
        coarsen_to: int = 64,
        imbalance: float = 1.06,
        refine_passes: int = 4,
    ):
        self.seed = seed
        self.coarsen_to = coarsen_to
        self.imbalance = imbalance
        self.refine_passes = refine_passes

    def key(self) -> tuple:
        return (self.name, self.seed, self.coarsen_to, self.imbalance,
                self.refine_passes)

    def assign(self, graph: CsrGraph, num_gpus: int) -> np.ndarray:
        k = num_gpus
        rng = np.random.default_rng(self.seed)
        adj = _to_weighted_adj(graph)
        vwgt = np.ones(graph.num_vertices, dtype=np.float64)

        levels: List[Tuple[sp.csr_matrix, np.ndarray, np.ndarray]] = []
        cur_adj, cur_vwgt = adj, vwgt
        while cur_adj.shape[0] > max(self.coarsen_to * k, 32):
            match = _heavy_edge_matching(cur_adj, rng)
            coarse, coarse_vwgt, mapping = _coarsen(cur_adj, cur_vwgt, match)
            if coarse.shape[0] >= cur_adj.shape[0] * 0.95:
                break  # matching stalled (e.g. star graphs); stop coarsening
            levels.append((cur_adj, cur_vwgt, mapping))
            cur_adj, cur_vwgt = coarse, coarse_vwgt

        part = _greedy_grow(cur_adj, cur_vwgt, k, rng)
        part = _refine(
            cur_adj, cur_vwgt, part, k, self.imbalance, self.refine_passes
        )
        for fine_adj, fine_vwgt, mapping in reversed(levels):
            part = part[mapping]
            part = _refine(
                fine_adj, fine_vwgt, part, k, self.imbalance, self.refine_passes
            )
        return part.astype(np.int32)
