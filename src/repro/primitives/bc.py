"""Betweenness centrality (Brandes, single-source dependency).

Three phases, matching how Gunrock's BC maps onto the framework and
producing exactly Table I's cost row (W = O(2|Ei|), H = O(5|Bi| +
2(n-1)|Li|), C = O(2|Vi| + |V|), S ~ D/2 per direction):

1. **forward** — BFS computing depth labels and shortest-path counts
   (sigma).  Selective communication: each discovered remote vertex is
   sent once with its locally-accumulated sigma contribution; the
   receiver min-combines the label and add-combines sigma (the 5|Bi|
   term: vertex + label + sigma and re-sends).
2. **sync** — one broadcast of every hosted vertex's final (depth, sigma)
   so all GPUs share the full arrays (the 2(n-1)|Li| term).
3. **backward** — dependency accumulation level by level, deepest first:
   each GPU computes delta for its hosted vertices of the current level
   (all their edges are local; sigma/depth are mirrored; deeper deltas
   arrived by broadcast the previous superstep) and broadcasts them.

BC uses duplicate-all so the mirrored arrays exist everywhere.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core import combine
from ..core.comm import BROADCAST, SELECTIVE, Message
from ..core.iteration import GpuContext, IterationBase
from ..core.operators.advance import advance_push
from ..core.operators.compute import dedup, segment_reduce_sum
from ..core.problem import DataSlice, ProblemBase, RunState
from ..core.stats import OpStats
from ..partition.duplication import DUPLICATE_ALL, SubGraph

__all__ = ["BCProblem", "BCIteration", "run_bc"]

_FORWARD, _SYNC, _SYNC_WAIT, _BACKWARD = (
    "forward",
    "sync",
    "sync-wait",
    "backward",
)


class BCProblem(ProblemBase):
    """Per-GPU BC state: depth labels, sigma, delta; phase machine."""

    name = "bc"
    duplication = DUPLICATE_ALL
    communication = SELECTIVE  # forward phase; flipped to broadcast later
    NUM_VERTEX_ASSOCIATES = 1  # depth label
    NUM_VALUE_ASSOCIATES = 1  # sigma (forward) / delta (backward)
    # depths min-combine like BFS labels; sigma/delta are atomicAdd
    # accumulations of path counts / dependencies.  should_stop runs the
    # phase machine; it derives max_depth from each GPU's deepest hosted
    # label, which the sync superstep writes.
    state = RunState(
        arrays={
            "labels": combine.MIN,
            "sigma": combine.SUM,
            "delta": combine.SUM,
        },
        per_gpu=("deepest",),
        replicated=("phase", "max_depth", "level", "communication"),
    )

    def init_data_slice(self, ds: DataSlice, sub: SubGraph) -> None:
        ids = sub.csr.ids
        ds.allocate("labels", sub.num_vertices, ids.vertex_dtype, fill=-1)
        ds.allocate("sigma", sub.num_vertices, ids.value_dtype, fill=0.0)
        ds.allocate("delta", sub.num_vertices, ids.value_dtype, fill=0.0)

    def reset(self, src: int = 0) -> List[np.ndarray]:
        self.phase = _FORWARD
        self.max_depth = 0
        self.level = -1
        self.communication = SELECTIVE
        self.deepest = [0] * self.num_gpus
        for ds in self.data_slices:
            ds["labels"].fill(-1)
            ds["sigma"].fill(0.0)
            ds["delta"].fill(0.0)
        src_gpu, local_src = self.locate(src)
        self.data_slices[src_gpu]["labels"][local_src] = 0
        self.data_slices[src_gpu]["sigma"][local_src] = 1.0
        frontiers = [np.empty(0, dtype=np.int64) for _ in range(self.num_gpus)]
        frontiers[src_gpu] = np.array([local_src], dtype=np.int64)
        return frontiers

    def bc_values(self, src: int = None) -> np.ndarray:
        """Per-vertex dependency of the traversed source (delta array)."""
        return self.extract("delta")

    def depths(self) -> np.ndarray:
        return self.extract("labels")

    def sigmas(self) -> np.ndarray:
        return self.extract("sigma")


class BCIteration(IterationBase):
    """Forward sigma-BFS, sync broadcast, backward delta accumulation."""

    # ------------------------------------------------------------------
    def _forward_core(self, ctx: GpuContext, frontier):
        problem: BCProblem = self.problem  # type: ignore[assignment]
        ds = ctx.slice
        labels, sigma = ds["labels"], ds["sigma"]
        csr = ctx.sub.csr
        if frontier.size == 0:
            return np.empty(0, dtype=np.int64), []
        label_val = ctx.iteration + 1
        nbrs, srcs, eidx, a_stats = advance_push(
            csr, frontier, ids_bytes=ctx.ids_bytes, tracer=ctx.tracer,
        )
        if nbrs.size == 0:
            return np.empty(0, dtype=np.int64), [a_stats]
        # the edges into unvisited vertices, found once.  They are also
        # exactly the shortest-path edges of this level: a label of
        # ``label_val`` is only ever written two lines below (remote
        # discoveries arrive one superstep later, at the receiver's then
        # current level), so no neighbor carries it yet.
        fresh = (labels[nbrs] == -1).nonzero()[0]
        targets = nbrs.take(fresh)
        survivors = dedup(targets, labels.shape[0])
        labels[survivors] = label_val
        # sigma accumulation along every shortest-path edge of this level
        segment_reduce_sum(targets, sigma[srcs.take(fresh)], sigma)
        s_stats = OpStats(
            name="sigma-accumulate",
            input_size=int(nbrs.size),
            output_size=int(survivors.size),
            vertices_processed=int(frontier.size),
            launches=1,
            streaming_bytes=nbrs.size * ctx.ids_bytes,
            random_bytes=nbrs.size * (8 + 8),
            atomic_ops=float(fresh.size),
        )
        return survivors, [a_stats, s_stats]

    def _sync_core(self, ctx: GpuContext):
        """Broadcast every hosted vertex's (depth, sigma), and record
        the deepest of those depths for ``should_stop``."""
        problem: BCProblem = self.problem  # type: ignore[assignment]
        gpu = ctx.gpu.device_id
        hosted = problem.hosted_frontiers[gpu]
        problem.deepest[gpu] = int(
            np.maximum.reduce(ctx.slice.arrays["labels"][hosted], initial=0)
        )
        stats = OpStats(
            name="sync-package",
            input_size=int(hosted.size),
            output_size=int(hosted.size),
            vertices_processed=int(hosted.size),
            launches=1,
            streaming_bytes=hosted.size * (8 + 8 + ctx.ids_bytes),
        )
        return hosted, [stats]

    def _backward_core(self, ctx: GpuContext):
        problem: BCProblem = self.problem  # type: ignore[assignment]
        ds = ctx.slice
        labels, sigma, delta = ds["labels"], ds["sigma"], ds["delta"]
        level = problem.level
        hosted = problem.hosted_frontiers[ctx.gpu.device_id]
        cand = hosted[labels[hosted] == level]
        if cand.size == 0:
            return np.empty(0, dtype=np.int64), []
        nbrs, srcs, _eidx, a_stats = advance_push(
            ctx.sub.csr, cand, ids_bytes=ctx.ids_bytes, tracer=ctx.tracer,
        )
        # the edges into the next level, found once; both endpoint
        # arrays are gathered through the one index list
        succ = (labels[nbrs] == level + 1).nonzero()[0]
        if succ.size:
            parents, children = srcs.take(succ), nbrs.take(succ)
            contrib = (
                sigma[parents]
                / np.maximum(sigma[children], 1e-300)
                * (1.0 + delta[children])
            )
            segment_reduce_sum(parents, contrib, delta)
        d_stats = OpStats(
            name="delta-accumulate",
            input_size=int(nbrs.size),
            output_size=int(cand.size),
            vertices_processed=int(cand.size),
            launches=1,
            streaming_bytes=cand.size * ctx.ids_bytes,
            random_bytes=nbrs.size * (8 + 8 + 8),
            atomic_ops=float(succ.size),
        )
        return cand, [a_stats, d_stats]

    def full_queue_core(
        self, ctx: GpuContext, frontier: np.ndarray
    ) -> Tuple[np.ndarray, List[OpStats]]:
        problem: BCProblem = self.problem  # type: ignore[assignment]
        if problem.phase == _FORWARD:
            return self._forward_core(ctx, frontier)
        if problem.phase == _SYNC:
            return self._sync_core(ctx)
        if problem.phase == _SYNC_WAIT:
            # sync messages are being combined this superstep; no compute
            return np.empty(0, dtype=np.int64), []
        return self._backward_core(ctx)

    # ------------------------------------------------------------------
    def expand_incoming(
        self, ctx: GpuContext, msg: Message
    ) -> Tuple[np.ndarray, List[OpStats]]:
        problem: BCProblem = self.problem  # type: ignore[assignment]
        ds = ctx.slice
        verts = msg.vertices
        values_in = msg.value_associates[0]
        labels = ds["labels"]
        stats = OpStats(
            name="expand_incoming",
            input_size=int(verts.size),
            vertices_processed=int(verts.size),
            launches=1,
            streaming_bytes=verts.size * (ctx.ids_bytes + 8 + 8),
            random_bytes=verts.size * 24,
        )
        if problem.phase == _FORWARD:
            sigma = ds["sigma"]
            level = ctx.iteration  # sender discovered at our current level
            fresh = verts.take((labels[verts] == -1).nonzero()[0])
            labels[fresh] = level
            # add sigma contributions for every vertex whose (possibly just
            # set) label matches this level; stale discoveries are dropped
            valid = (labels[verts] == level).nonzero()[0]
            segment_reduce_sum(verts.take(valid), values_in.take(valid), sigma)
            stats.output_size = int(fresh.size)
            return fresh, [stats]
        if problem.phase in (_SYNC, _SYNC_WAIT):
            # overwrite with the host's authoritative depth/sigma
            labels[verts] = msg.vertex_associates[0]
            ds["sigma"][verts] = values_in
            return np.empty(0, dtype=np.int64), [stats]
        # backward: the host's delta for this level is authoritative
        ds["delta"][verts] = values_in
        return np.empty(0, dtype=np.int64), [stats]

    def vertex_associate_arrays(self, ctx: GpuContext) -> Sequence[np.ndarray]:
        return [ctx.slice["labels"]]

    def value_associate_arrays(self, ctx: GpuContext) -> Sequence[np.ndarray]:
        problem: BCProblem = self.problem  # type: ignore[assignment]
        if problem.phase == _BACKWARD:
            return [ctx.slice["delta"]]
        return [ctx.slice["sigma"]]

    # ------------------------------------------------------------------
    def should_stop(self, iteration, frontier_sizes, messages_in_flight) -> bool:
        problem: BCProblem = self.problem  # type: ignore[assignment]
        if problem.phase == _FORWARD:
            if sum(frontier_sizes) or messages_in_flight:
                if problem.num_gpus == 1:
                    # every discovery is hosted, and in the frontier
                    # labelled iteration + 1: the deepest level so far
                    problem.max_depth = iteration + 1
                return False
            # forward done; depths are globally known only after the
            # sync broadcast has been *combined* (one superstep later)
            if problem.num_gpus == 1:
                problem.phase = _BACKWARD
                problem.level = problem.max_depth - 1
                return problem.level < 1
            problem.phase = _SYNC
            problem.communication = BROADCAST
            return False
        if problem.phase == _SYNC:
            # sync messages are in flight; combine them next superstep
            problem.phase = _SYNC_WAIT
            return False
        if problem.phase == _SYNC_WAIT:
            # every GPU now holds the full (labels, sigma) arrays
            problem.phase = _BACKWARD
            problem.max_depth = max(problem.deepest)
            problem.level = problem.max_depth - 1
            return problem.level < 1
        # backward: walk levels toward the source; level 0 is the source,
        # which Brandes excludes, so level 1 is the last one computed
        problem.level -= 1
        return problem.level < 1

    def max_iterations(self) -> int:
        return 4 * self.problem.graph.num_vertices + 16


def run_bc(graph, machine, src: int = 0, partitioner=None, scheme=None,
           **enactor_kwargs):
    """Convenience one-shot BC: returns (dependencies, metrics, problem)."""
    from ..core.enactor import Enactor

    problem = BCProblem(graph, machine, partitioner=partitioner)
    with Enactor(problem, BCIteration, scheme=scheme,
                 **enactor_kwargs) as enactor:
        metrics = enactor.enact(src=src)
    return problem.bc_values(), metrics, problem


def run_full_bc(graph, machine, sources=None, partitioner=None, scheme=None,
                **enactor_kwargs):
    """Exact (or sampled) betweenness centrality over many sources.

    The paper's BC primitive computes one source's dependencies per
    traversal (McLaughlin & Bader's task-parallel alternative distributes
    *sources*; Gunrock distributes the *graph*).  This extension runs the
    multi-GPU primitive once per source, reusing the partitioned problem
    — the pattern the paper's Appendix A main loop (``for src in srcs``)
    shows — and accumulates the dependencies into full BC scores.

    Parameters
    ----------
    sources:
        Iterable of source vertices; ``None`` means every vertex (exact
        BC).  Pass a random sample for approximate BC on big graphs.

    Returns
    -------
    (bc_values, total_metrics, problem):
        ``bc_values`` are unnormalized Brandes scores summed over the
        given sources; ``total_metrics`` aggregates virtual time and BSP
        counters across all traversals.
    """
    import numpy as np

    from ..core.enactor import Enactor
    from ..sim.metrics import RunMetrics

    problem = BCProblem(graph, machine, partitioner=partitioner)
    if sources is None:
        sources = range(graph.num_vertices)
    total = RunMetrics(num_gpus=machine.num_gpus, primitive="bc-full")
    total.scale = machine.scale
    bc = np.zeros(graph.num_vertices)
    with Enactor(problem, BCIteration, scheme=scheme,
                 **enactor_kwargs) as enactor:
        for src in sources:
            metrics = enactor.enact(src=int(src))
            bc += problem.bc_values()
            total.elapsed += metrics.elapsed
            total.iterations.extend(metrics.iterations)
            total.num_reallocs += metrics.num_reallocs
            for g, peak in metrics.peak_memory.items():
                total.peak_memory[g] = max(total.peak_memory.get(g, 0), peak)
    return bc, total, problem
