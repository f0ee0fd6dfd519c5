"""Direction-optimizing BFS (paper Algorithm 2 + Section VI-A).

* Vertex duplication: **duplicate-all** — "couples better with the
  broadcast communication strategy".
* Communication: **broadcast** — "because an upcoming iteration may use
  either the forward or backward direction"; H = O((n-1)|V|),
  C = O((n-1)|V|) — which is why DOBFS is communication-bound and scales
  flat (Section VII-B).
* Computation: push advance+filter in the forward direction; in the
  backward direction the per-*vertex* pull advance with edge skipping
  (Section VI-A), W = O(a|Ei|) with a < 1, dropping to O(|Li|) for
  high-degree graphs.
* Direction rule: FV/BV estimates with the do_a/do_b thresholds; the
  forward->backward switch (which must scan all vertices for unvisited
  ones — charged!) is allowed only once.
* Combination and convergence: same as BFS.

Because every GPU mirrors frontier and label state through broadcast, all
GPUs compute identical direction decisions without coordination.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core import combine
from ..core.comm import BROADCAST, Message
from ..core.direction import BACKWARD, FORWARD, DirectionState
from ..core.iteration import GpuContext, IterationBase
from ..core.operators.advance import advance_pull, advance_push
from ..core.operators.filter import filter_unvisited
from ..core.operators.fused import first_witness, fused_advance_filter
from ..core.problem import DataSlice, ProblemBase, RunState
from ..core.stats import OpStats
from ..partition.duplication import DUPLICATE_ALL, SubGraph
from .bfs import INVALID_LABEL

__all__ = ["DOBFSProblem", "DOBFSIteration", "run_dobfs"]


class DOBFSProblem(ProblemBase):
    """Per-GPU DOBFS state: labels, frontier bitmap, direction machine."""

    name = "dobfs"
    duplication = DUPLICATE_ALL
    communication = BROADCAST
    # every GPU mirrors labels/frontier state through broadcast: label
    # discoveries min-combine, bitmap membership OR-combines.  The
    # per-GPU direction machines decide coverage, and _decide_direction
    # steps this GPU's inside the superstep.
    state = RunState(
        arrays={
            "labels": combine.MIN,
            "in_frontier": combine.ANY,
            "preds": combine.WITNESS,
        },
        per_gpu=("directions",),
    )

    def __init__(self, *args, do_a: float = 0.01, do_b: float = 0.1,
                 mark_predecessors: bool = False, **kwargs):
        self.do_a = do_a
        self.do_b = do_b
        self.mark_predecessors = mark_predecessors
        self.NUM_VERTEX_ASSOCIATES = 1 if mark_predecessors else 0
        super().__init__(*args, **kwargs)

    def init_data_slice(self, ds: DataSlice, sub: SubGraph) -> None:
        ids = sub.csr.ids
        ds.allocate("labels", sub.num_vertices, ids.vertex_dtype,
                    fill=INVALID_LABEL)
        # frontier membership bitmap for the pull direction
        ds.allocate("in_frontier", sub.num_vertices, bool, fill=False)
        if self.mark_predecessors:
            ds.allocate("preds", sub.num_vertices, ids.vertex_dtype, fill=-1)

    def reset(self, src: int = 0) -> List[np.ndarray]:
        # Every GPU must reach the SAME direction decision each iteration:
        # a forward GPU covers discoveries through its hosted vertices'
        # out-edges while a backward GPU covers its hosted unvisited
        # vertices, so a mixed-direction iteration leaves coverage gaps
        # (a vertex whose frontier neighbors live on forward-refusing
        # GPUs is never found).  All decision inputs are therefore
        # global quantities mirrored by broadcast — including |E| and
        # |V| here, NOT the per-GPU |Ei|.
        self.directions = [
            DirectionState(
                num_vertices=self.graph.num_vertices,
                num_edges=self.graph.num_edges,
                do_a=self.do_a,
                do_b=self.do_b,
            )
            for _ in self.subgraphs
        ]
        for ds in self.data_slices:
            ds["labels"].fill(INVALID_LABEL)
            ds["in_frontier"].fill(False)
            if self.mark_predecessors:
                ds["preds"].fill(-1)
        src_gpu, local_src = self.locate(src)
        # broadcast semantics: every GPU mirrors the source's visited state
        for ds in self.data_slices:
            ds["labels"][src] = 0
        frontiers = [np.empty(0, dtype=np.int64) for _ in range(self.num_gpus)]
        frontiers[src_gpu] = np.array([local_src], dtype=np.int64)
        return frontiers

    def labels(self) -> np.ndarray:
        return self.extract("labels")

    def predecessors(self) -> Optional[np.ndarray]:
        if not self.mark_predecessors:
            return None
        return self.extract("preds")


class DOBFSIteration(IterationBase):
    """Dual-direction core with the FV/BV switching rule."""

    def __init__(self, problem):
        super().__init__(problem)
        # per-GPU record of which bitmap bits the last backward pass set,
        # so the next pass clears only those instead of an O(|Vi|) fill;
        # always a superset of the set bits (problem.reset only clears),
        # so a stale record after reset() is harmless
        self._prev_in_frontier: dict = {}

    def on_restore(self) -> None:
        # forces the next backward pass to rebuild the bitmap with a full
        # fill instead of trusting pre-rollback bookkeeping
        self._prev_in_frontier = {}

    def _decide_direction(
        self, ctx: GpuContext, frontier_size: int
    ) -> Tuple[str, List[OpStats]]:
        problem: DOBFSProblem = self.problem  # type: ignore[assignment]
        state = problem.directions[ctx.gpu.device_id]
        if ctx.iteration == 0:
            return state.direction, []  # always start forward
        labels = ctx.slice["labels"]
        visited = int((labels != INVALID_LABEL).sum())
        unvisited = labels.size - visited
        before = state.direction
        after = state.update(frontier_size, unvisited, visited)
        stats: List[OpStats] = []
        if before == FORWARD and after == BACKWARD:
            # the switch scans all vertices for unvisited ones
            stats.append(
                OpStats(
                    name="scan-unvisited",
                    input_size=labels.size,
                    vertices_processed=labels.size,
                    launches=1,
                    streaming_bytes=labels.size * 8,
                )
            )
        return after, stats

    def full_queue_core(
        self, ctx: GpuContext, frontier: np.ndarray
    ) -> Tuple[np.ndarray, List[OpStats]]:
        problem: DOBFSProblem = self.problem  # type: ignore[assignment]
        labels = ctx.slice["labels"]
        bitmap = ctx.slice["in_frontier"]
        csr = ctx.sub.csr
        label_val = ctx.iteration + 1
        direction, stats_list = self._decide_direction(ctx, int(frontier.size))

        if direction == FORWARD:
            if frontier.size == 0:
                return np.empty(0, dtype=np.int64), stats_list
            # forward: only advance from *hosted* frontier vertices; the
            # mirrored remote copies have zero local out-edges anyway, so
            # restricting the frontier is a cheap workload filter.
            hosted = frontier[ctx.sub.is_hosted(frontier)]
            # the discovery witness is only computed for predecessor marking
            witness = problem.mark_predecessors
            if ctx.fused:
                survivors, w_src, stats = fused_advance_filter(
                    csr, hosted, labels, INVALID_LABEL,
                    ids_bytes=ctx.ids_bytes, tracer=ctx.tracer,
                    witness=witness,
                )
                stats_list.append(stats)
            else:
                nbrs, srcs, _, a_stats = advance_push(
                    csr, hosted, ids_bytes=ctx.ids_bytes, tracer=ctx.tracer,
                    need_sources=witness,
                )
                survivors, f_stats = filter_unvisited(
                    nbrs, labels, INVALID_LABEL, ids_bytes=ctx.ids_bytes,
                    tracer=ctx.tracer,
                )
                if witness:
                    w_src = first_witness(
                        nbrs, srcs, survivors, labels.shape[0]
                    )
                stats_list.extend([a_stats, f_stats])
        else:
            # backward (pull): unvisited *hosted* vertices look for a
            # parent in the previous frontier (mirrored in the bitmap).
            # The bitmap persists across iterations; clear only the bits
            # the previous backward pass set rather than re-filling |Vi|.
            prev = self._prev_in_frontier.get(ctx.gpu.device_id)
            if prev is None:
                bitmap.fill(False)
            elif prev.size:
                bitmap[prev] = False
            if frontier.size:
                bitmap[frontier] = True
            self._prev_in_frontier[ctx.gpu.device_id] = frontier.copy()
            hosted_all = problem.hosted_frontiers[ctx.gpu.device_id]
            candidates = hosted_all[labels[hosted_all] == INVALID_LABEL]
            # every backward iteration rebuilds the unvisited candidate
            # list (a label scan) and the frontier bitmap — an O(|Vi|)
            # streaming pass that is part of the pull's real cost
            stats_list.append(
                OpStats(
                    name="unvisited-list+bitmap",
                    input_size=labels.size,
                    vertices_processed=labels.size,
                    launches=2,
                    streaming_bytes=labels.size * 9 + frontier.size * 8,
                )
            )
            survivors, parents, stats = advance_pull(
                csr, candidates, bitmap, ids_bytes=ctx.ids_bytes,
                tracer=ctx.tracer,
            )
            w_src = parents
            stats_list.append(stats)

        labels[survivors] = label_val
        if problem.mark_predecessors and survivors.size:
            ctx.slice["preds"][survivors] = ctx.sub.local_to_global[w_src]
        # output = newly discovered vertices: "a direction-independent view
        # ... and a cost-free transformation from backward to forward"
        return survivors, stats_list

    def expand_incoming(
        self, ctx: GpuContext, msg: Message
    ) -> Tuple[np.ndarray, List[OpStats]]:
        problem: DOBFSProblem = self.problem  # type: ignore[assignment]
        labels = ctx.slice["labels"]
        verts = msg.vertices
        label_val = ctx.iteration
        unvisited = (labels[verts] == INVALID_LABEL).nonzero()[0]
        fresh = verts.take(unvisited)
        labels[fresh] = label_val
        if problem.mark_predecessors and msg.vertex_associates:
            ctx.slice["preds"][fresh] = msg.vertex_associates[0].take(unvisited)
        stats = OpStats(
            name="expand_incoming",
            input_size=int(verts.size),
            output_size=int(fresh.size),
            vertices_processed=int(verts.size),
            launches=1,
            streaming_bytes=verts.size * ctx.ids_bytes,
            random_bytes=verts.size * 16,
        )
        return fresh, [stats]

    def vertex_associate_arrays(self, ctx: GpuContext):
        problem: DOBFSProblem = self.problem  # type: ignore[assignment]
        if problem.mark_predecessors:
            return [ctx.slice["preds"]]
        return []

    def direction_of(self, gpu: int) -> str:
        problem: DOBFSProblem = self.problem  # type: ignore[assignment]
        states = getattr(problem, "directions", None)
        return states[gpu].direction if states else ""


def run_dobfs(
    graph,
    machine,
    src: int = 0,
    partitioner=None,
    scheme=None,
    do_a: float = 0.01,
    do_b: float = 0.1,
    **enactor_kwargs,
):
    """Convenience one-shot DOBFS: returns (labels, metrics, problem).

    Communication/computation overlap is on by default — Gunrock
    separates the broadcast onto its own streams (Section III-B), which
    matters most for this communication-bound primitive.
    """
    from ..core.enactor import Enactor

    problem = DOBFSProblem(
        graph, machine, partitioner=partitioner, do_a=do_a, do_b=do_b
    )
    enactor_kwargs.setdefault("overlap_communication", True)
    with Enactor(problem, DOBFSIteration, scheme=scheme,
                 **enactor_kwargs) as enactor:
        metrics = enactor.enact(src=src)
    return problem.labels(), metrics, problem
