"""Connected components (Soman et al.'s hooking + pointer jumping).

CC is the paper's example of a primitive that "jumps beyond the n-hop
limit" (Section II-A, re Medusa) — pointer jumping reads component IDs of
arbitrarily distant vertices — which is why it needs **duplicate-all**
plus **broadcast** (Section III-C).

Per superstep each GPU runs the single-GPU algorithm to a local fixpoint
(edge hooking onto the minimum component ID, then full pointer jumping),
then broadcasts the vertices whose component changed together with the
new IDs; receivers min-combine.  Globally this converges to per-component
minimum vertex IDs in very few supersteps — Table I's "2-5 iterations"
with per-superstep W = log(D/2) * O(|Ei|), H = S * O(2|Vi|).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core import combine
from ..core.comm import BROADCAST, Message
from ..core.iteration import GpuContext, IterationBase
from ..core.operators.compute import segment_reduce_min
from ..core.problem import DataSlice, ProblemBase, RunState
from ..core.stats import OpStats
from ..partition.duplication import DUPLICATE_ALL, SubGraph

__all__ = ["CCProblem", "CCIteration", "run_cc"]


class CCProblem(ProblemBase):
    """Per-GPU CC state: the mirrored component-ID array."""

    name = "cc"
    duplication = DUPLICATE_ALL
    communication = BROADCAST
    NUM_VERTEX_ASSOCIATES = 1  # the component ID travels with each vertex
    uses_intermediate = False  # hooking/jumping update comp[] in place
    # component IDs converge to the per-component minimum vertex ID; the
    # per-edge sources are derived from the sub-graph alone
    state = RunState(arrays={"comp": combine.MIN}, static=("edge_src",))

    def init_data_slice(self, ds: DataSlice, sub: SubGraph) -> None:
        ds.allocate("comp", sub.num_vertices, sub.csr.ids.vertex_dtype)
        # flattened edge sources at vertex-ID width, aligned with the
        # sub-graph's packed destination list (``sub.hosted_cols64``): the
        # array a GPU's per-edge hooking kernel holds, so the device-memory
        # model (``peak_memory``) charges it.  Nothing reads it here: the
        # sources are the hosted rows in order, and ``hook_rows`` reduces
        # per row instead
        src = np.repeat(
            np.arange(sub.num_vertices, dtype=np.int64),
            sub.csr.out_degree().astype(np.int64),
        )
        ds.allocate("edge_src", src.size, sub.csr.ids.vertex_dtype)
        ds["edge_src"][:] = src

    def reset(self) -> List[np.ndarray]:
        for ds in self.data_slices:
            comp = ds["comp"]
            comp[:] = np.arange(comp.size)
        # every GPU starts active: the whole vertex set is the frontier
        return [
            np.arange(sub.num_vertices, dtype=np.int64)
            for sub in self.subgraphs
        ]

    def components(self) -> np.ndarray:
        """Global component IDs (min vertex ID per component)."""
        return self.extract("comp")


def hook_rows(
    comp: np.ndarray, dst: np.ndarray, rows: np.ndarray, row_first: np.ndarray
) -> None:
    """The source side of a hook: each row ``v`` of ``rows`` takes the
    minimum of ``comp`` over its edges' destinations.

    The same as ``segment_reduce_min(edge_src, comp[dst], comp)``, but
    ``edge_src`` is ``repeat(arange(n), degree)``: the edges are already
    grouped by row, so the minimum is one ``np.minimum.reduceat`` over
    the rows of nonzero degree, whose edges start at ``row_first`` in
    ``dst``.  Only the rows whose value dropped are written.
    """
    low = np.minimum.reduceat(comp[dst], row_first)
    drop = (low < comp[rows]).nonzero()[0]
    comp[rows.take(drop)] = low.take(drop)


class CCIteration(IterationBase):
    """Local hook+jump fixpoint, broadcast of changed component IDs."""

    def full_queue_core(
        self, ctx: GpuContext, frontier: np.ndarray
    ) -> Tuple[np.ndarray, List[OpStats]]:
        comp = ctx.slice["comp"]
        dst = ctx.sub.hosted_cols64
        stats: List[OpStats] = []
        if frontier.size == 0:
            # nothing changed locally or remotely: already at fixpoint
            return np.empty(0, dtype=np.int64), stats
        degree = ctx.sub.csr.out_degree()
        rows = degree.nonzero()[0]
        row_first = (degree.cumsum() - degree).take(rows)

        before = comp.copy()
        passes = 0
        while True:
            passes += 1
            snapshot = comp.copy()
            # hooking: each edge pulls its endpoint onto the smaller ID
            if dst.size:
                segment_reduce_min(dst, comp.repeat(degree), comp)
                hook_rows(comp, dst, rows, row_first)
            # pointer jumping to full compression
            jumps = 0
            while True:
                jumped = comp[comp]
                jumps += 1
                if np.array_equal(jumped, comp):
                    break
                comp[:] = jumped
            stats.append(
                OpStats(
                    name="hook+jump",
                    input_size=int(dst.size),
                    edges_visited=int(dst.size),
                    vertices_processed=int(comp.size),
                    launches=1 + jumps,
                    streaming_bytes=comp.size * 8 * (1 + jumps),
                    random_bytes=2 * dst.size * 8,
                    atomic_ops=float(dst.size),
                )
            )
            if np.array_equal(comp, snapshot):
                break
        changed = np.flatnonzero(comp != before)
        return changed, stats

    def expand_incoming(
        self, ctx: GpuContext, msg: Message
    ) -> Tuple[np.ndarray, List[OpStats]]:
        comp = ctx.slice["comp"]
        verts = msg.vertices
        incoming = msg.vertex_associates[0]
        improved = (incoming < comp[verts]).nonzero()[0]
        fresh = verts.take(improved)
        comp[fresh] = incoming.take(improved)
        stats = OpStats(
            name="expand_incoming",
            input_size=int(verts.size),
            output_size=int(fresh.size),
            vertices_processed=int(verts.size),
            launches=1,
            streaming_bytes=verts.size * 2 * 8,
            random_bytes=verts.size * 16,
        )
        return fresh, [stats]

    def vertex_associate_arrays(self, ctx: GpuContext) -> Sequence[np.ndarray]:
        return [ctx.slice["comp"]]


def run_cc(graph, machine, partitioner=None, scheme=None, **enactor_kwargs):
    """Convenience one-shot CC: returns (components, metrics, problem)."""
    from ..core.enactor import Enactor
    from ..sim.memory import FixedPrealloc

    problem = CCProblem(graph, machine, partitioner=partitioner)
    # the paper uses fixed preallocation for CC (memory needs are known)
    with Enactor(
        problem,
        CCIteration,
        scheme=scheme or FixedPrealloc(frontier_factor=1.05),
        **enactor_kwargs,
    ) as enactor:
        metrics = enactor.enact()
    return problem.components(), metrics, problem
