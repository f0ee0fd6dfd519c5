"""Duplicate-all sub-graphs are row views: no build writes per edge.

Under duplicate-all a GPU's sub-graph is the input graph's rows that it
hosts (:class:`~repro.graph.csr.CsrRows`), so building a partition — and
rebuilding one after a GPU loss, which the parent and every surviving
``processes`` worker each do — allocates O(|V|) per GPU.  These guards
hold the whole build under |E| int64 items, measured with
``tracemalloc`` (NumPy reports its buffers to it).  A build that
materialised per-GPU column arrays, or an |E|-long edge-owner table,
allocates several times that.

The one per-GPU edge array a primitive reads, the hosted rows' packed
columns, is built at first use by the process running that GPU — on a
``processes`` backend never by the parent.
"""

import json
import tracemalloc

import numpy as np
import pytest

from repro.core.enactor import Enactor
from repro.partition import (
    DUPLICATE_ALL,
    PartitionedGraph,
    reassign_onto_survivors,
)
from repro.primitives import BFSIteration, BFSProblem, PRIteration, PRProblem
from repro.sim.faults import GPU_LOSS, FaultPlan, FaultSpec
from repro.sim.machine import Machine


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _edge_bytes(graph) -> int:
    return graph.num_edges * 8


def test_from_assignment_allocates_no_edge_array(small_rmat):
    assignment = np.arange(small_rmat.num_vertices) % 4
    # the first partition of a graph builds the graph's own int64 views
    # (``offsets64`` / ``cols64``), once per graph; later ones reuse them
    first = PartitionedGraph.from_assignment(
        small_rmat, assignment, 4, DUPLICATE_ALL
    )
    moved = reassign_onto_survivors(first.partition.partition_table, {3}, 4)
    peak = _peak_bytes(lambda: PartitionedGraph.from_assignment(
        small_rmat, moved, 4, DUPLICATE_ALL
    ))
    assert peak < _edge_bytes(small_rmat), peak


def test_rebuild_partition_allocates_no_edge_array(small_rmat):
    problem = BFSProblem(small_rmat, Machine(4))
    with Enactor(problem, BFSIteration) as enactor:
        enactor.enact(src=0)
        moved = reassign_onto_survivors(
            problem.partition.partition_table, {3}, 4
        )
        peak = _peak_bytes(lambda: enactor.rebuild_partition(
            {3}, moved, BFSIteration(problem), {}, lambda: None
        ))
        assert problem.hosted_frontiers[3].size == 0
    assert peak < _edge_bytes(small_rmat), peak


def test_no_subgraph_owns_an_edge_array(weighted_rmat):
    """Every array a duplicate-all sub-graph holds is |V| long or a view
    of the input graph's — until a primitive asks for packed columns."""
    partitioned = PartitionedGraph.from_assignment(
        weighted_rmat, np.arange(weighted_rmat.num_vertices) % 3, 3,
        DUPLICATE_ALL,
    )
    first = partitioned.subgraphs[0]
    for sub in partitioned.subgraphs:
        csr = sub.csr
        assert np.shares_memory(csr.cols64, weighted_rmat.cols64)
        assert np.shares_memory(csr.values, weighted_rmat.values)
        assert csr.starts64.size == csr.ends64.size == sub.num_vertices
        assert np.shares_memory(csr.starts64, weighted_rmat.offsets64)
        # the ID tables are one copy for every GPU
        assert sub.local_to_global is first.local_to_global
        assert sub.host_of_local is first.host_of_local
        assert sub.owner_keys is first.owner_keys
        assert sub._hosted_cols64 is None


@pytest.mark.parametrize("primitive", ["bfs", "pr"])
def test_processes_parent_never_packs_hosted_columns(primitive, small_rmat):
    """A GPU loss on ``processes:2``: the survivors rebuild and run
    their GPUs; the parent rebuilds too but runs none, so no sub-graph it
    holds — the original partition's or the degraded one's — packs its
    columns.  Results and metrics equal serial's."""
    problem_cls, iteration_cls, kwargs, result = {
        "bfs": (BFSProblem, BFSIteration, {"src": 0}, "labels"),
        "pr": (PRProblem, PRIteration, {}, "ranks"),
    }[primitive]
    outcomes = {}
    # processes first: a serial PR problem alive on the same interned
    # partition would have packed its columns already
    for backend in ("processes:2", "serial"):
        machine = Machine(4)
        machine.arm_faults(
            FaultPlan([FaultSpec(GPU_LOSS, gpu=3, iteration=2)])
        )
        problem = problem_cls(small_rmat, machine)
        original = problem.subgraphs
        with Enactor(problem, iteration_cls, backend=backend,
                     checkpoint_every=2) as enactor:
            metrics = enactor.enact(**kwargs)
        assert metrics.rollbacks == 1 and metrics.degraded_gpus == [3]
        packed = [sub._hosted_cols64 is not None
                  for sub in (*original, *problem.subgraphs)]
        outcomes[backend] = (
            getattr(problem, result)(), json.dumps(metrics.to_dict()), packed
        )
    want, want_m, serial_packed = outcomes["serial"]
    got, got_m, parent_packed = outcomes["processes:2"]
    np.testing.assert_array_equal(got, want)
    assert got_m == want_m
    assert not any(parent_packed)
    # serial runs every GPU in this process: PR packs, BFS never does
    assert any(serial_packed) == (primitive == "pr")
