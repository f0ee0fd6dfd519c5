"""Breadth-first search (paper Algorithm 1 / Appendix A).

* Vertex duplication: **duplicate-all** — "we trade memory usage for
  better performance for BFS".
* Computation: advance followed by filter (fused when the allocation
  scheme fuses, Section VI-C); W = O(|Ei|).
* Communication: **selective** — only remote vertices are sent;
  H = O(|Bi|), C = O(|Vi|).
* Combination: a received vertex that has not been visited gets its label
  (and predecessor) set and joins the next input frontier.
* Convergence: all frontiers empty; S ~ D/2 per GPU... the paper's D/2
  rule of thumb reflects random sources on undirected graphs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core import combine
from ..core.comm import SELECTIVE, Message
from ..core.iteration import GpuContext, IterationBase
from ..core.operators.advance import advance_push
from ..core.operators.filter import filter_unvisited
from ..core.operators.fused import first_witness, fused_advance_filter
from ..core.problem import DataSlice, ProblemBase, RunState
from ..core.stats import OpStats
from ..partition.duplication import DUPLICATE_ALL, SubGraph

__all__ = ["BFSProblem", "BFSIteration", "INVALID_LABEL"]

INVALID_LABEL = -1


class BFSProblem(ProblemBase):
    """Per-GPU BFS state: labels (and optional predecessors)."""

    name = "bfs"
    duplication = DUPLICATE_ALL
    communication = SELECTIVE
    # labels min-combine (first discovery wins at the superstep boundary);
    # any concurrently-written predecessor is a valid witness
    state = RunState(arrays={"labels": combine.MIN, "preds": combine.WITNESS})

    def __init__(self, *args, mark_predecessors: bool = False, **kwargs):
        self.mark_predecessors = mark_predecessors
        # "MAX_NUM_VERTEX_ASSOCIATES = (MARK_PREDECESSORS) ? 1 : 0"
        self.NUM_VERTEX_ASSOCIATES = 1 if mark_predecessors else 0
        self.NUM_VALUE_ASSOCIATES = 0
        super().__init__(*args, **kwargs)

    def init_data_slice(self, ds: DataSlice, sub: SubGraph) -> None:
        ids = sub.csr.ids
        ds.allocate("labels", sub.num_vertices, ids.vertex_dtype,
                    fill=INVALID_LABEL)
        if self.mark_predecessors:
            # predecessors are stored and communicated as *global* IDs
            ds.allocate("preds", sub.num_vertices, ids.vertex_dtype, fill=-1)

    def reset(self, src: int = 0) -> List[np.ndarray]:
        for ds in self.data_slices:
            ds["labels"].fill(INVALID_LABEL)
            if self.mark_predecessors:
                ds["preds"].fill(-1)
        src_gpu, local_src = self.locate(src)
        self.data_slices[src_gpu]["labels"][local_src] = 0
        frontiers: List[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(self.num_gpus)
        ]
        frontiers[src_gpu] = np.array([local_src], dtype=np.int64)
        return frontiers

    # -- results -------------------------------------------------------------
    def labels(self) -> np.ndarray:
        """Global BFS level array (-1 = unreached)."""
        return self.extract("labels")

    def predecessors(self) -> Optional[np.ndarray]:
        if not self.mark_predecessors:
            return None
        return self.extract("preds")


class BFSIteration(IterationBase):
    """Advance+filter core and min-label combiner."""

    def full_queue_core(
        self, ctx: GpuContext, frontier: np.ndarray
    ) -> Tuple[np.ndarray, List[OpStats]]:
        problem: BFSProblem = self.problem  # type: ignore[assignment]
        labels = ctx.slice["labels"]
        label_val = ctx.iteration + 1
        csr = ctx.sub.csr
        if frontier.size == 0:
            return np.empty(0, dtype=np.int64), []
        # the discovery witness is only computed for predecessor marking
        witness = problem.mark_predecessors
        if ctx.fused:
            survivors, w_src, stats = fused_advance_filter(
                csr, frontier, labels, INVALID_LABEL,
                ids_bytes=ctx.ids_bytes, tracer=ctx.tracer, witness=witness,
            )
            stats_list = [stats]
        else:
            nbrs, srcs, _, a_stats = advance_push(
                csr, frontier, ids_bytes=ctx.ids_bytes, tracer=ctx.tracer,
                need_sources=witness,
            )
            survivors, f_stats = filter_unvisited(
                nbrs, labels, INVALID_LABEL, ids_bytes=ctx.ids_bytes,
                tracer=ctx.tracer,
            )
            if witness:
                w_src = first_witness(nbrs, srcs, survivors, labels.shape[0])
            stats_list = [a_stats, f_stats]
        labels[survivors] = label_val
        if witness and survivors.size:
            ctx.slice["preds"][survivors] = ctx.sub.local_to_global[w_src]
        return survivors, stats_list

    def expand_incoming(
        self, ctx: GpuContext, msg: Message
    ) -> Tuple[np.ndarray, List[OpStats]]:
        problem: BFSProblem = self.problem  # type: ignore[assignment]
        labels = ctx.slice["labels"]
        verts = msg.vertices
        # received vertices were discovered with label = sender's
        # iteration + 1 == this GPU's current iteration
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
            streaming_bytes=verts.size
            * ctx.ids_bytes
            * (1 + len(msg.vertex_associates)),
            # atomicMin per received vertex: near-distinct addresses run
            # at random-write bandwidth, not serialized-atomic rate
            random_bytes=verts.size * 16,
        )
        return fresh, [stats]

    def vertex_associate_arrays(self, ctx: GpuContext):
        problem: BFSProblem = self.problem  # type: ignore[assignment]
        if problem.mark_predecessors:
            return [ctx.slice["preds"]]
        return []


def run_bfs(
    graph,
    machine,
    src: int = 0,
    partitioner=None,
    scheme=None,
    mark_predecessors: bool = False,
    **enactor_kwargs,
):
    """Convenience one-shot BFS: returns (labels, metrics, problem)."""
    from ..core.enactor import Enactor

    problem = BFSProblem(
        graph, machine, partitioner=partitioner,
        mark_predecessors=mark_predecessors,
    )
    # closing releases the backend's workers and shared memory; the
    # results stay readable through ``problem``
    with Enactor(problem, BFSIteration, scheme=scheme,
                 **enactor_kwargs) as enactor:
        metrics = enactor.enact(src=src)
    return problem.labels(), metrics, problem


def run_bfs_batch(
    graph,
    machine,
    sources,
    partitioner=None,
    scheme=None,
    **enactor_kwargs,
):
    """BFS from several sources, reusing one partitioned problem.

    This is exactly the main loop of the paper's Appendix A example::

        for (auto src : srcs) { problem.Reset(src); enactor.Enact(src); }

    Partitioning/distribution happen once; each traversal only resets the
    per-vertex state.  Returns ``(list of label arrays, list of metrics,
    problem)``.  Graph500-style evaluation (median rate over 64 random
    sources) is a one-liner on top of this.
    """
    from ..core.enactor import Enactor

    problem = BFSProblem(graph, machine, partitioner=partitioner)
    all_labels = []
    all_metrics = []
    with Enactor(problem, BFSIteration, scheme=scheme,
                 **enactor_kwargs) as enactor:
        for src in sources:
            metrics = enactor.enact(src=int(src))
            all_labels.append(problem.labels())
            all_metrics.append(metrics)
    return all_labels, all_metrics, problem
