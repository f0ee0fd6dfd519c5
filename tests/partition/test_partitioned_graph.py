"""PartitionedGraph: built once, shared read-only among live problems.

The contract (DESIGN.md, "Partition once"): problems on one graph
object whose partitioners have equal ``key()``, GPU count and
duplication strategy run on the *same* sub-graph objects while any of
them is alive; nothing outlives the last of them; every shared array is
read-only; a repartition replaces one problem's binding and leaves the
shared object alone.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph.build import add_random_weights
from repro.graph.generators import generate_rmat
from repro.partition import (
    DUPLICATE_1HOP,
    DUPLICATE_ALL,
    MetisLikePartitioner,
    PartitionedGraph,
    Partitioner,
    RandomPartitioner,
    make_partitioner,
    reassign_onto_survivors,
)
from repro.primitives import BFSProblem, PRProblem, SSSPProblem
from repro.sim.machine import Machine


class FixedPartitioner(Partitioner):
    """Holds an assignment array: no ``key()``, never shared."""

    name = "fixed"

    def __init__(self, assignment):
        self.assignment = assignment

    def assign(self, graph, num_gpus):
        return self.assignment


@pytest.fixture
def graph():
    # a graph object of this test's own: the registry hangs off it
    return generate_rmat(8, 8, seed=11)


@pytest.fixture
def weighted(graph):
    return add_random_weights(graph, 1, 64, seed=2)


def _shared_arrays(partitioned):
    part = partitioned.partition
    yield part.partition_table
    yield part.conversion_table
    yield from partitioned.hosted_frontiers
    for sub in partitioned.subgraphs:
        yield sub.local_to_global
        yield sub.host_of_local
        yield sub.host_local_id
        csr = sub.csr
        if sub.strategy == DUPLICATE_1HOP:  # a materialised local CSR
            yield csr.row_offsets
            yield csr.col_indices
        # what the operators read (a duplicate-all row view's starts,
        # columns and values are views of the caller's graph) ...
        yield csr.starts64
        yield csr.ends64
        yield csr.cols64
        if csr.values is not None:
            yield csr.values
        # ... and the packed columns, built here if nothing read them yet
        yield sub.hosted_cols64


class TestInterning:
    def test_different_primitives_share_subgraphs(self, graph):
        bfs = BFSProblem(graph, Machine(4), partitioner=RandomPartitioner(3))
        pr = PRProblem(graph, Machine(4), partitioner=RandomPartitioner(3))
        assert bfs.partitioned is pr.partitioned
        assert bfs.partition is pr.partition
        for a, b in zip(bfs.subgraphs, pr.subgraphs):
            assert a is b and a.csr is b.csr
        assert bfs.hosted_frontiers is pr.hosted_frontiers
        # ... and not their slices: each problem's own, writable
        assert bfs.data_slices[0] is not pr.data_slices[0]
        bfs.data_slices[0]["labels"][0] = 5

    def test_default_partitioner_is_shared_too(self, graph):
        a = BFSProblem(graph, Machine(2))
        b = BFSProblem(graph, Machine(2), partitioner=RandomPartitioner())
        assert a.partitioned is b.partitioned

    def test_each_builtin_key_names_its_parameters(self):
        for name in ("random", "biased-random", "metis"):
            one, two = make_partitioner(name, 4), make_partitioner(name, 4)
            assert one.key() == two.key() and one.key()[:2] == (name, 4)
            assert one.key() != make_partitioner(name, 5).key()
        assert (MetisLikePartitioner(refine_passes=2).key()
                != MetisLikePartitioner().key())

    @pytest.mark.parametrize("num_gpus, kwargs", [
        (4, dict(partitioner=RandomPartitioner(4))),
        (4, dict(partitioner=MetisLikePartitioner(3))),
        (3, dict(partitioner=RandomPartitioner(3))),
        (4, dict(partitioner=RandomPartitioner(3),
                 duplication=DUPLICATE_1HOP)),
    ], ids=["seed", "partitioner", "gpu-count", "duplication"])
    def test_a_different_key_is_not_shared(self, graph, num_gpus, kwargs):
        base = BFSProblem(graph, Machine(4), partitioner=RandomPartitioner(3))
        problem = BFSProblem(graph, Machine(num_gpus), **kwargs)
        assert problem.partitioned is not base.partitioned
        assert problem.subgraphs[0].csr is not base.subgraphs[0].csr
        assert len(graph._partitioned) == 2

    def test_another_graph_object_is_not_shared(self, graph):
        twin = generate_rmat(8, 8, seed=11)
        a = BFSProblem(graph, Machine(2))
        b = BFSProblem(twin, Machine(2))
        assert a.partitioned is not b.partitioned
        np.testing.assert_array_equal(
            a.partition.partition_table, b.partition.partition_table
        )

    def test_keyless_partitioners_are_never_shared(self, graph):
        assignment = np.arange(graph.num_vertices) % 2
        a = BFSProblem(graph, Machine(2),
                       partitioner=FixedPartitioner(assignment))
        b = BFSProblem(graph, Machine(2),
                       partitioner=FixedPartitioner(assignment))
        assert FixedPartitioner(assignment).key() is None
        assert a.partitioned is not b.partitioned
        assert not graph._partitioned  # nothing was registered

    def test_entry_dies_with_its_last_problem(self, graph):
        a = BFSProblem(graph, Machine(4))
        b = PRProblem(graph, Machine(4))
        ref = weakref.ref(a.partitioned)
        del a
        gc.collect()
        assert ref() is b.partitioned and len(graph._partitioned) == 1
        del b
        gc.collect()
        assert ref() is None
        assert len(graph._partitioned) == 0
        # the next problem builds afresh
        c = BFSProblem(graph, Machine(4))
        assert len(graph._partitioned) == 1 and c.partitioned is not None

    def test_partitioner_runs_once_per_live_partition(self, graph, monkeypatch):
        calls = []
        assign = RandomPartitioner.assign

        def counted(self, g, n):
            calls.append(n)
            return assign(self, g, n)

        monkeypatch.setattr(RandomPartitioner, "assign", counted)
        problems = [BFSProblem(graph, Machine(4)) for _ in range(3)]
        assert calls == [4] and len(problems) == 3


class TestImmutable:
    @pytest.mark.parametrize("problem_cls", [BFSProblem, SSSPProblem])
    def test_every_shared_array_is_read_only(self, problem_cls,
                                             weighted_rmat):
        problem = problem_cls(weighted_rmat, Machine(3))
        arrays = list(_shared_arrays(problem.partitioned))
        assert len(arrays) >= 2 + 3 + 3 * 8
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_fields_cannot_be_rebound(self, graph):
        partitioned = BFSProblem(graph, Machine(2)).partitioned
        with pytest.raises(AttributeError):
            partitioned.subgraphs = ()
        assert isinstance(partitioned.subgraphs, tuple)
        assert isinstance(partitioned.hosted_frontiers, tuple)

    def test_the_callers_graph_is_left_writable(self, graph):
        BFSProblem(graph, Machine(2))
        assert graph.col_indices.flags.writeable


class TestGlobalToLocal:
    def test_table_is_built_once_per_gpu(self, weighted):
        problem = SSSPProblem(weighted, Machine(2))
        partitioned = problem.partitioned
        assert partitioned._local_of == [None, None]
        sub = problem.subgraphs[1]
        local = np.array([0, sub.num_hosted, sub.num_vertices - 1])
        got = problem.global_to_local(1, sub.local_to_global[local])
        np.testing.assert_array_equal(got, local)
        table = partitioned._local_of[1]
        assert table is not None and partitioned._local_of[0] is None
        problem.global_to_local(1, sub.local_to_global[:5])
        assert partitioned._local_of[1] is table

    def test_miss_raises_partition_error(self, weighted):
        problem = SSSPProblem(weighted, Machine(2))
        sub = problem.subgraphs[0]
        absent = np.setdiff1d(
            np.arange(weighted.num_vertices), sub.local_to_global
        )[:2]
        for _ in range(2):  # cold table, then cached
            with pytest.raises(PartitionError, match="not present on GPU 0"):
                problem.global_to_local(0, absent)

    def test_duplicate_all_is_the_identity(self, graph):
        problem = BFSProblem(graph, Machine(2))
        ids = np.array([3, 1, 2])
        np.testing.assert_array_equal(problem.global_to_local(1, ids), ids)
        assert problem.partitioned._local_of == [None, None]


class TestRepartitionReplaces:
    def test_shared_partition_is_untouched(self, graph):
        a = BFSProblem(graph, Machine(4))
        b = PRProblem(graph, Machine(4))
        shared = b.partitioned
        before = [arr.copy() for arr in _shared_arrays(shared)]
        a.repartition(
            reassign_onto_survivors(a.partition.partition_table, [3], 4),
            dead={3},
        )
        assert a.partitioned is not shared and b.partitioned is shared
        assert a.subgraphs is a.partitioned.subgraphs
        assert a.hosted_frontiers[3].size == 0
        assert b.hosted_frontiers[3].size > 0
        for arr, ref in zip(_shared_arrays(shared), before):
            np.testing.assert_array_equal(arr, ref)
        # the degraded partition is private: the next equal-keyed problem
        # joins the shared one
        assert list(graph._partitioned.values()) == [shared]
        assert BFSProblem(graph, Machine(4)).partitioned is shared

    def test_from_assignment_is_never_interned(self, graph):
        assignment = np.zeros(graph.num_vertices, dtype=np.int32)
        one = PartitionedGraph.from_assignment(
            graph, assignment, 2, DUPLICATE_ALL
        )
        two = PartitionedGraph.from_assignment(
            graph, assignment, 2, DUPLICATE_ALL
        )
        assert one is not two and not graph._partitioned
        assert one.num_gpus == 2 and one.duplication == DUPLICATE_ALL


def test_each_problem_is_charged_its_own_subgraph(graph):
    """Sharing is a host-side economy: the device-memory model still
    holds one sub-graph per problem per GPU (Fig. 3 does not move)."""
    machine = Machine(2)
    a = BFSProblem(graph, machine)
    b = PRProblem(graph, machine)
    assert a.partitioned is b.partitioned
    for gpu in range(2):
        pool = machine.gpus[gpu].memory
        want = a.subgraphs[gpu].memory_bytes()
        assert pool.size_of(f"{a.alloc_prefix}.subgraph") == want
        assert pool.size_of(f"{b.alloc_prefix}.subgraph") == want
    a.release()
    assert machine.gpus[0].memory.size_of(f"{b.alloc_prefix}.subgraph")
