"""PageRank (paper Algorithm 3).

* Vertex duplication: duplicate-all or duplicate-1-hop — "there is no
  significant performance or memory usage difference between these two";
  the paper uses duplicate-all "to better trace the program", so do we
  (duplicate-1-hop is a constructor flag).
* Computation: a filter kernel updating the PR values (except the 1st
  iteration), followed by an advance kernel accumulating contributions:
  W = O(|Ei|) per iteration.  The advance's frontier and edges never
  change, so it is one sparse matrix — built once per GPU, in CSC form
  over the hosted vertices with out-edges — times each iteration's
  shares: a compiled mat-vec, as GraphBLAST frames PR.
* Communication: **selective** — "push locally accumulated ranks of each
  vertex to its hosting GPU".  The remote sub-frontiers (border proxies
  with local in-edges) never change, so each GPU computes them once, at
  its first superstep; H = O(|Bi|) per iteration.
* Combination: ``atomicAdd`` of the received partial rank into the local
  accumulator.
* Convergence: all rank updates below a threshold ratio, or the iteration
  cap; S is data-dependent and does not affect scalability.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
# the compiled kernel behind scipy's csc_matrix @ vector, called directly:
# the public path costs ~100 Python calls to build a matrix, ~25 a product
from scipy.sparse._sparsetools import csc_matvec

from ..core import combine
from ..core.comm import SELECTIVE, Message, split_frontier
from ..core.iteration import GpuContext, IterationBase
from ..core.operators.compute import dedup, segment_reduce_sum
from ..core.problem import DataSlice, ProblemBase, RunState
from ..core.stats import OpStats
from ..partition.duplication import DUPLICATE_ALL, SubGraph

__all__ = ["PRProblem", "PRIteration", "run_pagerank"]


class PRProblem(ProblemBase):
    """Per-GPU PR state: ranks, accumulators, fixed border sub-frontiers."""

    name = "pr"
    duplication = DUPLICATE_ALL
    communication = SELECTIVE
    NUM_VALUE_ASSOCIATES = 1  # the accumulated rank share
    uses_intermediate = False  # accumulation is in-place (no frontier out)
    # partial rank shares atomicAdd-combine (Algorithm 3); the other
    # arrays are only ever written by the hosting GPU.  Hooks write the
    # per-GPU convergence delta max_delta[gpu]; should_stop reads them all.
    state = RunState(
        arrays={
            "rank": None, "acc": combine.SUM, "degree": None,
            "delta": None, "teleport": None,
        },
        per_gpu=("max_delta",),
    )

    def __init__(
        self,
        *args,
        damping: float = 0.85,
        threshold: float = 1e-6,
        max_iter: int = 1000,
        personalization=None,
        **kwargs,
    ):
        """``personalization``: optional array over global vertices (or a
        sequence of seed vertex IDs) replacing the uniform teleport — the
        personalized-PageRank extension.  ``None`` keeps classic PR."""
        self.damping = damping
        self.threshold = threshold
        self.max_iter = max_iter
        self.personalization = personalization
        super().__init__(*args, **kwargs)
        self._forget_fixed_frontiers()

    def _forget_fixed_frontiers(self) -> None:
        n = self.num_gpus
        self.border_frontiers: List[Optional[np.ndarray]] = [None] * n
        self.push_plans: List[Optional[tuple]] = [None] * n
        self.fixed_routes: List[Optional[tuple]] = [None] * n

    def prepare(self, gpu: int) -> tuple:
        """GPU ``gpu``'s fixed sub-frontiers (paper: "we get all these
        sub-frontiers during the initialization step"), computed at its
        first superstep — by the process that runs it — and kept until a
        repartition; returns its push plan.

        - hosted (``ProblemBase.hosted_frontiers``): the vertices this
          GPU updates every iteration;
        - border: proxy vertices with local in-edges, whose accumulated
          contributions are pushed to their hosting GPUs;
        - push plan ``(pushers, indptr, nbrs)``: the advance as a CSC
          operator whose columns are the hosted vertices with out-edges
          (``pushers``) and whose rows are local vertices.  ``indptr``
          (int64, ``pushers.size + 1``) is the running sum of their
          degrees from 0, and the row indices are the flattened targets
          of their edges, in row order: ``nbrs`` is the sub-graph's
          ``hosted_cols64`` itself, shared by every problem on the
          partition;
        - route (``ProblemBase.fixed_routes``): the output frontier
          ``hosted + border`` — the same every iteration — and its split
          into the local part and each host's share of the border.
        """
        sub = self.subgraphs[gpu]
        hosted = self.hosted_frontiers[gpu]
        nbrs = sub.hosted_cols64
        targets = dedup(nbrs, sub.num_vertices)
        border = targets[sub.host_of_local[targets] != sub.gpu_id]
        out = np.concatenate([hosted, border])
        local, remote, split_stats = split_frontier(
            sub, out, ids_bytes=sub.csr.ids.vertex_bytes
        )
        for arr in (out, local, *remote.values()):
            arr.setflags(write=False)
        counts = sub.csr.ends64[hosted] - sub.csr.starts64[hosted]
        nonzero = counts > 0
        pushers = hosted[nonzero]
        indptr = np.zeros(pushers.size + 1, dtype=np.int64)
        np.cumsum(counts[nonzero], out=indptr[1:])
        plan = (pushers, indptr, nbrs)
        self.border_frontiers[gpu] = border
        self.fixed_routes[gpu] = (out, local, remote, split_stats)
        self.push_plans[gpu] = plan
        return plan

    def on_repartition(self, dead=frozenset()) -> None:
        """Drop the fixed sub-frontiers of the old assignment (each GPU
        recomputes its own at its next superstep), and retire dead GPUs
        from the convergence vote: their ``max_delta`` entries would
        otherwise stay at the rolled-back value forever and
        ``should_stop`` would never see convergence."""
        self._forget_fixed_frontiers()
        if dead:
            self.max_delta[list(dead)] = 0.0

    def init_data_slice(self, ds: DataSlice, sub: SubGraph) -> None:
        ids = sub.csr.ids
        ds.allocate("rank", sub.num_vertices, ids.value_dtype, fill=0.0)
        ds.allocate("acc", sub.num_vertices, ids.value_dtype, fill=0.0)
        # local degree: out-degree of hosted vertices equals their global
        # out-degree because edge-cut partitioning keeps all out-edges
        degrees = sub.csr.out_degree().astype(ids.value_dtype)
        ds.allocate("degree", sub.num_vertices, ids.value_dtype)
        ds["degree"][:] = degrees
        ds.allocate("delta", sub.num_vertices, ids.value_dtype, fill=np.inf)
        if self.personalization is not None:
            # classic PR's uniform teleport needs no array at all — only
            # personalized PR pays for the per-vertex distribution
            ds.allocate("teleport", sub.num_vertices, ids.value_dtype,
                        fill=1.0)

    def _teleport(self) -> np.ndarray:
        """Per-global-vertex teleport mass (scaled so uniform PR keeps the
        paper's unnormalized 1-d base rank convention)."""
        n = self.graph.num_vertices
        if self.personalization is None:
            return np.ones(n)
        p = np.asarray(self.personalization, dtype=np.float64)
        if p.ndim == 1 and p.size != n:
            # a seed list: uniform teleport over the seeds only
            seeds = np.asarray(self.personalization, dtype=np.int64)
            p = np.zeros(n)
            p[seeds] = 1.0
        if p.sum() <= 0:
            raise ValueError("personalization must have positive mass")
        return p * (n / p.sum())

    def reset(self) -> List[np.ndarray]:
        personalized = self.personalization is not None
        teleport = self._teleport() if personalized else None
        for gpu, ds in enumerate(self.data_slices):
            sub = self.subgraphs[gpu]
            ds["rank"].fill(0.0)
            hosted = self.hosted_frontiers[gpu]
            if personalized:
                ds["teleport"][:] = teleport[sub.local_to_global]
                ds["rank"][hosted] = (
                    (1.0 - self.damping) * ds["teleport"][hosted]
                )
            else:
                ds["rank"][hosted] = 1.0 - self.damping
            ds["acc"].fill(0.0)
            ds["delta"].fill(np.inf)
        self.max_delta = np.full(self.num_gpus, np.inf)
        return [f.copy() for f in self.hosted_frontiers]

    def ranks(self) -> np.ndarray:
        """Global rank vector (unnormalized, paper convention)."""
        return self.extract("rank")


class PRIteration(IterationBase):
    """Filter (rank update) + advance (contribution push) core.

    The advance is ``acc.fill(0.0)`` and one compiled sparse mat-vec of
    the GPU's push plan (``PRProblem.prepare``) with the shares
    ``damping * rank / degree`` of its columns: no edge-length array is
    built from the shares and no ``ufunc.at`` runs."""

    def full_queue_core(
        self, ctx: GpuContext, frontier: np.ndarray
    ) -> Tuple[np.ndarray, List[OpStats]]:
        problem: PRProblem = self.problem  # type: ignore[assignment]
        gpu = ctx.gpu.device_id
        ds = ctx.slice
        hosted = problem.hosted_frontiers[gpu]
        plan = problem.push_plans[gpu]
        if plan is None:
            plan = problem.prepare(gpu)
        pushers, indptr, nbrs = plan
        rank, acc, degree = ds["rank"], ds["acc"], ds["degree"]
        stats: List[OpStats] = []

        if ctx.iteration > 0:
            # filter kernel: fold the completed accumulator into new ranks
            if "teleport" in ds:
                base = (1.0 - problem.damping) * ds["teleport"][hosted]
            else:
                base = 1.0 - problem.damping
            new_rank = base + acc[hosted]
            old = rank[hosted]
            with np.errstate(divide="ignore", invalid="ignore"):
                delta = np.abs(new_rank - old) / np.maximum(old, 1e-12)
            rank[hosted] = new_rank
            problem.max_delta[gpu] = float(delta.max()) if delta.size else 0.0
            stats.append(
                OpStats(
                    name="pr-filter",
                    input_size=int(hosted.size),
                    output_size=int(hosted.size),
                    vertices_processed=int(hosted.size),
                    launches=1,
                    streaming_bytes=3 * hosted.size * 8,
                )
            )
        # reset accumulators for this iteration's pushes
        acc.fill(0.0)

        # advance kernel: every hosted vertex pushes its share along its
        # out-edges (local ones land in acc; border entries travel later).
        # One compiled mat-vec of the plan's unit-entry CSC matrix: it adds
        # share[j] into acc[nbrs[e]] for column j's edges e, column by
        # column from 0.0 — the order np.add.at applies
        # share.repeat(degrees) in, so every bit is the same.  The unit
        # entries must be in acc's dtype (the kernel rejects mixed ones);
        # they are made per call, since held per plan they would pin
        # 8 bytes per edge for the problem's life.
        if pushers.size:
            share = problem.damping * rank[pushers] / degree[pushers]
            total = int(nbrs.size)
            csc_matvec(acc.size, pushers.size, indptr, nbrs,
                       np.ones(total, dtype=acc.dtype), share, acc)
            stats.append(
                OpStats(
                    name="pr-advance",
                    input_size=int(pushers.size),
                    output_size=total,
                    edges_visited=total,
                    vertices_processed=int(pushers.size),
                    launches=1,
                    streaming_bytes=(pushers.size + total) * ctx.ids_bytes,
                    # accumulator adds land on ~distinct addresses: charge
                    # them as random writes, not serialized atomics
                    random_bytes=total * (ctx.ids_bytes + 8 + 8),
                )
            )
        else:
            stats.append(OpStats(name="pr-advance", launches=1))
        # output frontier: hosted vertices (stay local) + border proxies
        # (packaging sends them to their hosts with the accumulated
        # share) — the array the stored route was split from
        return problem.fixed_routes[gpu][0], stats

    def expand_incoming(
        self, ctx: GpuContext, msg: Message
    ) -> Tuple[np.ndarray, List[OpStats]]:
        acc = ctx.slice["acc"]
        verts = msg.vertices
        # atomicAdd combine (Algorithm 3)
        segment_reduce_sum(verts, msg.value_associates[0], acc)
        stats = OpStats(
            name="expand_incoming",
            input_size=int(verts.size),
            vertices_processed=int(verts.size),
            launches=1,
            streaming_bytes=verts.size * (ctx.ids_bytes + 8),
            random_bytes=verts.size * 8,
            atomic_ops=float(verts.size),
        )
        # received vertices are already in the receiver's hosted frontier
        return np.empty(0, dtype=np.int64), [stats]

    def value_associate_arrays(self, ctx: GpuContext) -> Sequence[np.ndarray]:
        return [ctx.slice["acc"]]

    def should_stop(self, iteration, frontier_sizes, messages_in_flight) -> bool:
        problem: PRProblem = self.problem  # type: ignore[assignment]
        if iteration + 1 >= problem.max_iter:
            return True
        if iteration == 0:
            return False  # deltas not yet defined
        return bool(np.max(problem.max_delta) < problem.threshold)

    def max_iterations(self) -> int:
        problem: PRProblem = self.problem  # type: ignore[assignment]
        return problem.max_iter + 1


def run_pagerank(
    graph,
    machine,
    damping: float = 0.85,
    threshold: float = 1e-6,
    max_iter: int = 1000,
    partitioner=None,
    scheme=None,
    duplication: str = DUPLICATE_ALL,
    personalization=None,
    **enactor_kwargs,
):
    """Convenience one-shot PageRank: returns (ranks, metrics, problem)."""
    from ..core.enactor import Enactor
    from ..sim.memory import FixedPrealloc

    problem = PRProblem(
        graph,
        machine,
        partitioner=partitioner,
        damping=damping,
        threshold=threshold,
        max_iter=max_iter,
        duplication=duplication,
        personalization=personalization,
    )
    # the paper uses fixed preallocation for PR, whose memory needs are
    # known exactly beforehand: frontier = hosted + border, no intermediate
    with Enactor(
        problem,
        PRIteration,
        scheme=scheme or FixedPrealloc(frontier_factor=1.05),
        **enactor_kwargs,
    ) as enactor:
        metrics = enactor.enact()
    return problem.ranks(), metrics, problem
