"""Single-source shortest path.

Frontier-based Bellman-Ford relaxation (Gunrock's SSSP): each iteration
advances from the frontier relaxing tentative distances; vertices whose
distance improved form the next frontier.  A vertex can re-enter the
frontier, which is Table I's factor ``b``: W = O(b|Ei|), H = O(2b|Bi|)
(vertex + distance value per item), S ~ b*D/2.

* Vertex duplication: **duplicate-1-hop** — SSSP only ever touches the
  immediate neighbors of outgoing edges, the case Section III-C says
  duplicate-1-hop + selective-communication is made for (it also
  exercises the ID-conversion machinery).
* Communication: **selective**; value associate = the tentative distance,
  optional vertex associate = the predecessor (global ID).
* Combination: ``atomicMin`` on distances; improved vertices join the
  next frontier.
* Duplicates: a frontier holds up to one copy of a vertex per GPU that
  improved it.  The core charges each copy and relaxes each vertex once
  — ``min`` is idempotent, so the result and every cost counter equal
  those of relaxing all copies (``tests/primitives/test_sssp.py``).
* Convergence: all frontiers empty.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core import combine
from ..core.comm import SELECTIVE, Message
from ..core.iteration import GpuContext, IterationBase
from ..core.operators.advance import advance_push, push_stats
from ..core.operators.compute import (
    dedup,
    member_mask,
    segment_first,
    segment_reduce_min,
)
from ..core.problem import DataSlice, ProblemBase, RunState
from ..core.stats import OpStats
from ..errors import GraphFormatError
from ..partition.duplication import DUPLICATE_1HOP, SubGraph

__all__ = ["SSSPProblem", "SSSPIteration", "run_sssp"]


class SSSPProblem(ProblemBase):
    """Per-GPU SSSP state: tentative distances (+ optional preds)."""

    name = "sssp"
    duplication = DUPLICATE_1HOP
    communication = SELECTIVE
    NUM_VALUE_ASSOCIATES = 1  # the distance travels with each vertex
    # distances atomicMin-combine; any improving predecessor is a witness
    state = RunState(arrays={"dist": combine.MIN, "preds": combine.WITNESS})

    def __init__(self, *args, mark_predecessors: bool = False, **kwargs):
        self.mark_predecessors = mark_predecessors
        self.NUM_VERTEX_ASSOCIATES = 1 if mark_predecessors else 0
        super().__init__(*args, **kwargs)
        if self.graph.values is None:
            raise GraphFormatError(
                "SSSP needs edge values; use add_random_weights()"
            )

    def init_data_slice(self, ds: DataSlice, sub: SubGraph) -> None:
        ids = sub.csr.ids
        ds.allocate("dist", sub.num_vertices, ids.value_dtype, fill=np.inf)
        if self.mark_predecessors:
            ds.allocate("preds", sub.num_vertices, ids.vertex_dtype, fill=-1)

    def reset(self, src: int = 0) -> List[np.ndarray]:
        for ds in self.data_slices:
            ds["dist"].fill(np.inf)
            if self.mark_predecessors:
                ds["preds"].fill(-1)
        src_gpu, local_src = self.locate(src)
        self.data_slices[src_gpu]["dist"][local_src] = 0.0
        frontiers = [np.empty(0, dtype=np.int64) for _ in range(self.num_gpus)]
        frontiers[src_gpu] = np.array([local_src], dtype=np.int64)
        return frontiers

    def distances(self) -> np.ndarray:
        """Global distance array (inf = unreached)."""
        return self.extract("dist")

    def predecessors(self):
        if not self.mark_predecessors:
            return None
        return self.extract("preds")


class SSSPIteration(IterationBase):
    """Relaxation core and min-distance combiner."""

    def full_queue_core(
        self, ctx: GpuContext, frontier: np.ndarray
    ) -> Tuple[np.ndarray, List[OpStats]]:
        problem: SSSPProblem = self.problem  # type: ignore[assignment]
        dist = ctx.slice["dist"]
        csr = ctx.sub.csr
        if frontier.size == 0:
            return np.empty(0, dtype=np.int64), []
        # a vertex may appear several times (local rediscovery + up to
        # one remote update per peer): charge each copy, relax each
        # vertex once.  Every copy would read the same ``dist[v]`` and
        # offer the same candidates, and ``min`` is idempotent (``dist``
        # combines with ``combine.MIN``), so the copies cannot
        # change what one relaxation leaves behind — but the GPU kernel
        # does traverse them, so ``advance`` and ``relax`` are priced for
        # the frontier as received.
        starts, ends = csr.starts64, csr.ends64
        nf = frontier.size
        edges = int((ends[frontier] - starts[frontier]).sum())
        num_vertices = ctx.sub.num_vertices
        frontier = dedup(frontier, num_vertices)
        nbrs, _, cand, _ = advance_push(
            csr, frontier, ids_bytes=ctx.ids_bytes, tracer=ctx.tracer,
            need_sources=False, need_values=True,
        )
        a_stats = push_stats(nf, edges, ctx.ids_bytes, csr.ids.size_bytes)
        if edges == 0:
            return np.empty(0, dtype=np.int64), [a_stats]
        # candidate = edge weight + its source's distance, repeated along
        # the source's row rather than gathered through an edge-length
        # source array
        degrees = ends[frontier] - starts[frontier]
        cand += dist[frontier].repeat(degrees)
        # deterministic atomicMin: per-neighbor minimum candidate; the
        # vertices whose distance dropped, distinct and ascending, are
        # the next frontier
        improved = segment_reduce_min(nbrs, cand, dist)
        relax_stats = OpStats(
            name="relax",
            input_size=edges,
            output_size=int(improved.size),
            vertices_processed=nf,
            launches=1,
            streaming_bytes=(edges + improved.size) * ctx.ids_bytes,
            random_bytes=edges * (8 + 8),  # dist read + weight read
            atomic_ops=float(edges),
        )
        if problem.mark_predecessors and improved.size:
            # winner edge per improved vertex: the candidate equal to the
            # final distance with the smallest edge index.  Each improved
            # vertex's final distance IS its minimum candidate, so it has
            # at least one hit.  The frontier is ascending and distinct,
            # so gather positions run in edge-index order and the first
            # hit is the winner; its source is the first frontier row
            # whose running degree total exceeds its position.
            hits = (
                member_mask(nbrs, improved, num_vertices)
                & (cand <= dist[nbrs] + 1e-12)
            ).nonzero()[0]
            win_pos = segment_first(
                nbrs.take(hits), hits, improved, num_vertices
            )
            win_src = frontier.take(
                np.searchsorted(degrees.cumsum(), win_pos, "right")
            )
            ctx.slice["preds"][improved] = ctx.sub.local_to_global[win_src]
        return improved, [a_stats, relax_stats]

    def expand_incoming(
        self, ctx: GpuContext, msg: Message
    ) -> Tuple[np.ndarray, List[OpStats]]:
        problem: SSSPProblem = self.problem  # type: ignore[assignment]
        dist = ctx.slice["dist"]
        verts = msg.vertices
        incoming = msg.value_associates[0]
        improved = (incoming < dist[verts]).nonzero()[0]
        fresh = verts.take(improved)
        dist[fresh] = incoming.take(improved)
        if problem.mark_predecessors and msg.vertex_associates:
            ctx.slice["preds"][fresh] = msg.vertex_associates[0].take(improved)
        stats = OpStats(
            name="expand_incoming",
            input_size=int(verts.size),
            output_size=int(fresh.size),
            vertices_processed=int(verts.size),
            launches=1,
            streaming_bytes=verts.size * (ctx.ids_bytes + 8),
            random_bytes=verts.size * 16,
        )
        return fresh, [stats]

    def value_associate_arrays(self, ctx: GpuContext):
        return [ctx.slice["dist"]]

    def vertex_associate_arrays(self, ctx: GpuContext):
        problem: SSSPProblem = self.problem  # type: ignore[assignment]
        if problem.mark_predecessors:
            return [ctx.slice["preds"]]
        return []


def run_sssp(graph, machine, src: int = 0, partitioner=None, scheme=None,
             **enactor_kwargs):
    """Convenience one-shot SSSP: returns (distances, metrics, problem)."""
    from ..core.enactor import Enactor

    problem = SSSPProblem(graph, machine, partitioner=partitioner)
    with Enactor(problem, SSSPIteration, scheme=scheme,
                 **enactor_kwargs) as enactor:
        metrics = enactor.enact(src=src)
    return problem.distances(), metrics, problem
