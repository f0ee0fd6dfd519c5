#!/usr/bin/env python
"""Writing a NEW multi-GPU primitive with the framework.

The paper's core claim (Section III): to make a single-GPU algorithm
multi-GPU, a programmer specifies only (1) the per-iteration single-GPU
computation, (2) what data accompanies communicated vertices, (3) the
combiner for received data, and (4) the stop condition — the framework
handles partitioning, splitting, packaging, pushing, and merging.

This example implements a primitive NOT in the paper — *k-core-style
degree peeling* (iteratively remove vertices with degree < k) — and
validates it against a serial reference at several GPU counts.  Peeling
exercises the "data to communicate" design point nicely: when a peeled
vertex has remote neighbors, the *decrement counts* must travel to the
neighbors' hosting GPUs as value associates and be add-combined there —
only the host's degree counter is authoritative (proxy copies are
stale), exactly the local/remote discipline of Section III-B.

Run:  python examples/custom_primitive.py
"""

import numpy as np

from repro import datasets
from repro.core import (
    Enactor,
    GpuContext,
    IterationBase,
    ProblemBase,
    RunState,
    combine,
)
from repro.core.comm import SELECTIVE
from repro.core.operators.advance import advance_push
from repro.core.stats import OpStats
from repro.partition.duplication import DUPLICATE_ALL
from repro.sim.machine import Machine

K = 32  # peel vertices with degree < K


class PeelProblem(ProblemBase):
    """Per-GPU state: degrees (authoritative for hosted vertices only),
    alive flags, and a per-iteration outgoing-decrement accumulator."""

    name = "kpeel"
    duplication = DUPLICATE_ALL
    communication = SELECTIVE
    NUM_VALUE_ASSOCIATES = 1  # the decrement count travels with each vertex
    # everything a run writes, declared once: received decrements
    # add-combine into the host's degree; a GPU writes only its own
    # hosted vertices' alive flags and its own pending counts
    state = RunState(arrays={
        "degree": combine.SUM, "alive": None, "pending": None,
    })

    def __init__(self, *args, k: int = K, **kwargs):
        self.k = k
        super().__init__(*args, **kwargs)

    def init_data_slice(self, ds, sub):
        ds.allocate("degree", sub.num_vertices, np.float64, fill=0)
        ds.allocate("alive", sub.num_vertices, bool, fill=True)
        ds.allocate("pending", sub.num_vertices, np.float64, fill=0)

    def reset(self):
        frontiers = []
        for gpu, ds in enumerate(self.data_slices):
            sub = self.subgraphs[gpu]
            ds["alive"].fill(True)
            ds["pending"].fill(0)
            # hosted vertices know their true (global) degree locally,
            # because edge-cut partitioning keeps all their out-edges
            ds["degree"][:] = np.diff(sub.csr.row_offsets)
            hosted = np.flatnonzero(sub.host_of_local == gpu)
            frontiers.append(hosted[ds["degree"][hosted] < self.k])
        return frontiers

    def core_mask(self) -> np.ndarray:
        """Global alive mask after peeling (the k-core membership)."""
        return self.extract("alive")


class PeelIteration(IterationBase):
    """Peel doomed hosted vertices; ship decrement counts to the hosts
    of their remote neighbors (add-combine)."""

    def full_queue_core(self, ctx: GpuContext, frontier):
        prob: PeelProblem = self.problem  # type: ignore[assignment]
        ds = ctx.slice
        alive, degree, pending = ds["alive"], ds["degree"], ds["pending"]
        pending.fill(0)
        mine = np.unique(frontier)  # local + received dooms may overlap
        mine = mine[alive[mine]]
        if mine.size == 0:
            return np.empty(0, dtype=np.int64), []
        alive[mine] = False
        nbrs, _src, _e, a_stats = advance_push(
            ctx.sub.csr, mine, ids_bytes=ctx.ids_bytes
        )
        nbrs = nbrs[alive[nbrs]]
        hosted_nb = nbrs[ctx.sub.is_hosted(nbrs)]
        remote_nb = nbrs[~ctx.sub.is_hosted(nbrs)]
        # hosted neighbors: apply decrements directly (authoritative)
        np.subtract.at(degree, hosted_nb, 1.0)
        newly_doomed = np.unique(
            hosted_nb[degree[hosted_nb] < prob.k]
        )
        # remote neighbors: accumulate decrement counts to ship
        np.add.at(pending, remote_nb, 1.0)
        to_send = np.unique(remote_nb)
        stats = OpStats(
            name="peel",
            input_size=int(mine.size),
            output_size=int(newly_doomed.size + to_send.size),
            vertices_processed=int(mine.size),
            launches=1,
            random_bytes=nbrs.size * 16,
            atomic_ops=float(nbrs.size),
        )
        # output frontier: newly doomed hosted vertices stay local; the
        # framework's split routes remote-neighbor entries (with their
        # pending counts) to the hosting GPUs
        out = np.concatenate([newly_doomed, to_send])
        return out, [a_stats, stats]

    def value_associate_arrays(self, ctx: GpuContext):
        return [ctx.slice["pending"]]

    def expand_incoming(self, ctx: GpuContext, msg):
        prob: PeelProblem = self.problem  # type: ignore[assignment]
        ds = ctx.slice
        degree, alive = ds["degree"], ds["alive"]
        verts = np.asarray(msg.vertices, dtype=np.int64)
        decrements = np.asarray(msg.value_associates[0], dtype=np.float64)
        # add-combine: decrements from several GPUs accumulate
        np.subtract.at(degree, verts, decrements)
        doomed = verts[alive[verts] & (degree[verts] < prob.k)]
        stats = OpStats(
            name="expand_incoming",
            input_size=msg.num_items,
            output_size=int(doomed.size),
            vertices_processed=msg.num_items,
            launches=1,
            random_bytes=msg.num_items * 16,
            atomic_ops=float(msg.num_items),
        )
        return doomed, [stats]


def peel_reference(graph, k: int) -> np.ndarray:
    """Serial reference: repeatedly remove degree-<k vertices."""
    alive = np.ones(graph.num_vertices, dtype=bool)
    degree = graph.out_degree().astype(np.int64).copy()
    while True:
        doomed = np.flatnonzero(alive & (degree < k))
        if doomed.size == 0:
            return alive
        alive[doomed] = False
        for v in doomed:
            nbrs = graph.neighbors(v)
            degree[nbrs[alive[nbrs]]] -= 1


def main() -> None:
    graph = datasets.load("soc-orkut")
    ref = peel_reference(graph, K)
    print(f"{K}-core of {graph}: {int(ref.sum())} vertices survive\n")

    for num_gpus in (1, 2, 4):
        machine = Machine(num_gpus,
                          scale=datasets.machine_scale("soc-orkut"))
        prob = PeelProblem(graph, machine, k=K)
        metrics = Enactor(prob, PeelIteration).enact()
        ok = np.array_equal(prob.core_mask(), ref)
        print(f"{num_gpus} GPU: correct={ok}  "
              f"{metrics.elapsed * 1e3:.2f} ms virtual, "
              f"S={metrics.supersteps}, H={metrics.total_items_sent}")
        assert ok


if __name__ == "__main__":
    main()
