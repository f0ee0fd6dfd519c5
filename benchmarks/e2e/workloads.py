"""The four workloads: what each runs, on what input, and why.

A workload is a graph (fixed structure: family, size and generator seed
are part of the workload, like its name), a partitioner, and a list of
queries.  ``--seed`` drives what a user would vary between runs of one
deployment: the partition seed, the SSSP edge weights and the source
draw.  The structure is held fixed because the spread the driver
measures runs *across* seeds: a different R-MAT instance moves CC's
virtual time by 25 % (one more hook round) and that would drown every
bound below it, while a different random partition of the same graph
moves it by 3 %.

Sources are drawn so a traversal's shape is a property of the graph
family, not of the draw: R-MAT sources come from the 256 highest-degree
vertices of the largest component (BFS depth is then 6 for every draw);
road sources are pseudo-peripheral (a double sweep from a random
vertex), so depth is the grid's diameter, the sync-bound worst case the
paper's road result is about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from calibrate import plain_bfs

__all__ = ["Workload", "Query", "Inputs", "WORKLOADS", "make_inputs"]

NUM_GPUS = 4
#: two workers, two virtual GPUs each: a fixed property of the workload,
#: not derived from the host, so the load never exceeds two cores and
#: numbers stay comparable across hosts
PROCESSES_BACKEND = "processes:2"
GRAPH_SEED = 1
HUB_POOL = 256
PR_MAX_ITER = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str  # "rmat" | "road"
    size: int  # R-MAT scale, or road grid side
    partitioner: str
    #: (query kind, number of sources; 0 for source-less kinds)
    queries: Tuple[Tuple[str, int], ...]
    #: the calibration kernel's median on the host that committed
    #: baseline.json, seconds; see calibrate.py
    cal_ref_s: float
    #: kernel repetitions, sizing it to 30-80 ms on this graph
    cal_reps: int
    #: every query on a fresh Machine/Problem/Enactor with checkpointing
    #: and a fault plan, construction inside the timed section
    recovery: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="rmat_selective",
            why=(
                "RMAT-15 BFS/SSSP/PR/BC: few supersteps, large frontiers; "
                "operators, hooks and split/package dominate, loop "
                "overhead does not"
            ),
            family="rmat", size=15, partitioner="random",
            queries=(("bfs", 1), ("sssp", 1), ("pr", 0), ("bc", 1)),
            cal_ref_s=0.046, cal_reps=1,
        ),
        Workload(
            name="rmat_broadcast",
            why=(
                "RMAT-15 DOBFS x4 and CC: broadcast packaging and pull "
                "advance; split_frontier is never called, and the "
                "per-enact worker fork shows on short queries"
            ),
            family="rmat", size=15, partitioner="random",
            queries=(("dobfs", 4), ("cc", 0)),
            cal_ref_s=0.046, cal_reps=1,
        ),
        Workload(
            name="road_sync",
            why=(
                "road 128x128 metis, BFS x2: 255 supersteps of tiny "
                "frontiers each; enactor, comm, sim and dispatch cost per "
                "call dominate, processes is 3x slower than serial"
            ),
            family="road", size=128, partitioner="metis",
            queries=(("bfs", 2),),
            cal_ref_s=0.045, cal_reps=4,
        ),
        Workload(
            name="rmat_recovery",
            why=(
                "RMAT-15 BFS/PR under checkpoints, a transient link fault "
                "and a GPU loss, construction timed: the write path "
                "beside the reads"
            ),
            family="rmat", size=15, partitioner="random",
            queries=(("bfs", 1), ("pr", 0)),
            cal_ref_s=0.046, cal_reps=1,
            recovery=True,
        ),
    )
}

#: superstep at which GPU 3 is lost on ``rmat_recovery``, per query
#: kind: mid-run for each (BFS runs 6 supersteps, PR 10)
GPU_LOSS_AT = {"bfs": 3, "pr": 5}


@dataclass(frozen=True)
class Query:
    id: str
    kind: str
    #: ``enact()`` keyword arguments (the source, where there is one)
    kwargs: Dict[str, int] = field(default_factory=dict)


@dataclass
class Inputs:
    workload: Workload
    seed: int
    graph: object
    #: the same structure with seeded edge weights (SSSP's input)
    weighted: Optional[object]
    queries: List[Query]
    partition_seed: int
    #: source of the calibration kernel's BFS (fixed per workload)
    cal_source: int
    generate_s: float = 0.0

    def graph_for(self, kind: str):
        return self.weighted if kind == "sssp" else self.graph


def _largest_component(graph) -> np.ndarray:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = graph.num_vertices
    adj = csr_matrix(
        (np.ones(graph.num_edges, dtype=np.int8),
         graph.col_indices, graph.row_offsets),
        shape=(n, n),
    )
    _, labels = connected_components(adj, directed=False)
    return np.flatnonzero(labels == np.bincount(labels).argmax())


def _draw_sources(wl: Workload, graph, component, rng, count) -> List[int]:
    if wl.family == "rmat":
        degree = np.diff(graph.row_offsets)[component]
        hubs = component[np.argsort(-degree, kind="stable")[:HUB_POOL]]
        return [int(v) for v in rng.choice(hubs, size=count, replace=False)]
    offsets = graph.row_offsets.astype(np.int64)
    cols = graph.col_indices.astype(np.int64)
    sources: List[int] = []
    # double sweeps from random starts, until ``count`` distinct ends
    for start in rng.permutation(component):
        far = int(np.argmax(plain_bfs(offsets, cols, int(start))))
        if far not in sources:
            sources.append(far)
        if len(sources) == count:
            break
    return sources


def make_inputs(wl: Workload, seed: int) -> Inputs:
    """Generate the workload's inputs; the same seed, the same inputs."""
    import time

    from repro.graph.build import add_random_weights
    from repro.graph.generators import generate_rmat, generate_road

    seed = abs(int(seed))
    t0 = time.perf_counter()
    if wl.family == "rmat":
        graph = generate_rmat(wl.size, 16, seed=GRAPH_SEED)
    else:
        graph = generate_road(
            wl.size, wl.size, delete_fraction=0.1, shortcut_fraction=0.0,
            seed=GRAPH_SEED,
        )
    generate_s = time.perf_counter() - t0
    kinds = [k for k, _ in wl.queries]
    weighted = (
        add_random_weights(graph, 1, 64, seed=seed) if "sssp" in kinds
        else None
    )
    rng = np.random.default_rng([seed, 0x9E3779B9])
    total = sum(n for _, n in wl.queries)
    component = _largest_component(graph)
    drawn = iter(_draw_sources(wl, graph, component, rng, total))
    queries: List[Query] = []
    for kind, n_sources in wl.queries:
        if n_sources == 0:
            queries.append(Query(kind, kind))
        for _ in range(n_sources):
            src = next(drawn)
            queries.append(Query(f"{kind}@{src}", kind, {"src": src}))
    # the kernel's BFS starts at the biggest hub, or on a road grid
    # near a corner so that it walks the whole diameter
    cal_source = (
        int(np.argmax(np.diff(graph.row_offsets))) if wl.family == "rmat"
        else int(component[0])
    )
    return Inputs(
        workload=wl, seed=seed, graph=graph, weighted=weighted,
        queries=queries, partition_seed=seed, cal_source=cal_source,
        generate_s=generate_s,
    )
