"""Property-based tests (hypothesis) on core structures and invariants.

Strategy: generate random small graphs/partitions and assert the
invariants the framework's correctness rests on — COO/CSR round trips,
partition-table bijections, subgraph edge conservation, and full
primitive-vs-reference agreement under arbitrary partitions.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.reference import (
    bfs_reference,
    cc_reference,
    pagerank_reference,
    sssp_reference,
)
from repro.core.direction import BACKWARD, DirectionState
from repro.graph.build import build_csr
from repro.graph.coo import CooGraph
from repro.graph.csr import CsrGraph
from repro.partition import (
    DUPLICATE_1HOP,
    DUPLICATE_ALL,
    build_subgraphs,
)
from repro.partition.base import PartitionResult
from repro.partition.border import border_matrix, edge_cut
from repro.sim.memory import MemoryPool
from repro.sim.stream import Stream


# ---------------------------------------------------------------------------
# graph strategies
# ---------------------------------------------------------------------------

@st.composite
def edge_lists(draw, max_vertices=24, max_edges=80):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    return n, np.asarray(src, np.int64), np.asarray(dst, np.int64)


@st.composite
def undirected_graphs(draw):
    n, src, dst = draw(edge_lists())
    return build_csr(CooGraph(n, src, dst), undirected=True)


@st.composite
def partitioned_graphs(draw):
    g = draw(undirected_graphs())
    k = draw(st.integers(1, 4))
    assignment = draw(
        st.lists(st.integers(0, k - 1), min_size=g.num_vertices,
                 max_size=g.num_vertices)
    )
    pr = PartitionResult.from_assignment(np.asarray(assignment, np.int32), k)
    return g, pr


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

class TestGraphInvariants:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_coo_csr_round_trip_multiset(self, data):
        n, src, dst = data
        coo = CooGraph(n, src, dst)
        back = CsrGraph.from_coo(coo).to_coo()
        orig = sorted(zip(src.tolist(), dst.tolist()))
        got = sorted(zip(back.src.tolist(), back.dst.tolist()))
        assert got == orig

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_undirected_is_symmetric_loopless_dedup(self, data):
        n, src, dst = data
        g = build_csr(CooGraph(n, src, dst), undirected=True)
        back = g.to_coo()
        pairs = list(zip(back.src.tolist(), back.dst.tolist()))
        pset = set(pairs)
        assert len(pairs) == len(pset)  # dedup
        assert all(a != b for a, b in pairs)  # loopless
        assert all((b, a) in pset for a, b in pairs)  # symmetric

    @given(undirected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_degree_sum_equals_edges(self, g):
        assert int(g.out_degree().sum()) == g.num_edges

    @given(undirected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_offsets_monotone(self, g):
        assert np.all(np.diff(g.row_offsets) >= 0)


class TestPartitionInvariants:
    @given(partitioned_graphs())
    @settings(max_examples=50, deadline=None)
    def test_conversion_table_bijection(self, data):
        g, pr = data
        pr.validate()  # raises on violation

    @given(partitioned_graphs(), st.sampled_from([DUPLICATE_ALL, DUPLICATE_1HOP]))
    @settings(max_examples=50, deadline=None)
    def test_subgraphs_conserve_edges(self, data, strategy):
        g, pr = data
        subs = build_subgraphs(g, pr, strategy)
        assert sum(s.num_edges for s in subs) == g.num_edges

    @given(partitioned_graphs(), st.sampled_from([DUPLICATE_ALL, DUPLICATE_1HOP]))
    @settings(max_examples=50, deadline=None)
    def test_subgraph_edges_match_original(self, data, strategy):
        g, pr = data
        for s in build_subgraphs(g, pr, strategy):
            hosted_local = np.flatnonzero(s.host_of_local == s.gpu_id)
            csr = s.csr
            for lv in hosted_local:
                gv = s.local_to_global[lv]
                row = csr.cols64[csr.starts64[lv]:csr.ends64[lv]]
                got = sorted(s.local_to_global[row].tolist())
                assert got == sorted(g.neighbors(gv).tolist())

    @given(partitioned_graphs())
    @settings(max_examples=50, deadline=None)
    def test_border_never_exceeds_cut(self, data):
        g, pr = data
        assert int(border_matrix(g, pr).sum()) <= edge_cut(g, pr)


# ---------------------------------------------------------------------------
# primitive correctness under arbitrary partitions
# ---------------------------------------------------------------------------

def _machine(k):
    from repro.sim.machine import Machine

    return Machine(k, scale=8.0)


class _FixedPartitioner:
    """Feeds a hypothesis-drawn assignment through the framework."""

    name = "fixed"

    def __init__(self, assignment):
        self.assignment = assignment

    def partition(self, graph, num_gpus):
        return PartitionResult.from_assignment(self.assignment, num_gpus)


class TestPrimitivePropertyCorrectness:
    @given(partitioned_graphs(), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_bfs_matches_reference(self, data, src_seed):
        from repro.primitives.bfs import run_bfs

        g, pr = data
        src = src_seed % g.num_vertices
        ref, _ = bfs_reference(g, src)
        labels, _, _ = run_bfs(
            g,
            _machine(pr.num_gpus),
            src=src,
            partitioner=_FixedPartitioner(pr.partition_table),
        )
        assert np.array_equal(labels, ref)

    @given(partitioned_graphs(), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_dobfs_matches_reference(self, data, src_seed):
        from repro.primitives.dobfs import run_dobfs

        g, pr = data
        src = src_seed % g.num_vertices
        ref, _ = bfs_reference(g, src)
        labels, _, _ = run_dobfs(
            g,
            _machine(pr.num_gpus),
            src=src,
            partitioner=_FixedPartitioner(pr.partition_table),
        )
        assert np.array_equal(labels, ref)

    @given(partitioned_graphs(), st.integers(0, 1000), st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_sssp_matches_dijkstra(self, data, src_seed, wseed):
        from repro.graph.build import add_random_weights
        from repro.primitives.sssp import run_sssp

        g, pr = data
        gw = add_random_weights(g, 1, 16, seed=wseed)
        src = src_seed % g.num_vertices
        ref, _ = sssp_reference(gw, src)
        dist, _, _ = run_sssp(
            gw,
            _machine(pr.num_gpus),
            src=src,
            partitioner=_FixedPartitioner(pr.partition_table),
        )
        assert np.allclose(dist, ref)

    @given(partitioned_graphs())
    @settings(max_examples=25, deadline=None)
    def test_cc_matches_union_find(self, data):
        from repro.primitives.cc import run_cc

        g, pr = data
        comp, _, _ = run_cc(
            g,
            _machine(pr.num_gpus),
            partitioner=_FixedPartitioner(pr.partition_table),
        )
        assert np.array_equal(comp, cc_reference(g))

    @given(partitioned_graphs(), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_bc_matches_brandes(self, data, src_seed):
        from repro.baselines.reference import bc_reference
        from repro.primitives.bc import run_bc

        g, pr = data
        src = src_seed % g.num_vertices
        bc, _, _ = run_bc(
            g,
            _machine(pr.num_gpus),
            src=src,
            partitioner=_FixedPartitioner(pr.partition_table),
        )
        assert np.allclose(bc, bc_reference(g, source=src), atol=1e-9)

    @given(partitioned_graphs())
    @settings(max_examples=20, deadline=None)
    def test_pr_matches_power_iteration(self, data):
        from repro.primitives.pr import run_pagerank

        g, pr = data
        ranks, _, _ = run_pagerank(
            g,
            _machine(pr.num_gpus),
            partitioner=_FixedPartitioner(pr.partition_table),
        )
        assert np.allclose(ranks, pagerank_reference(g), rtol=1e-5)


# ---------------------------------------------------------------------------
# simulator invariants
# ---------------------------------------------------------------------------

class TestSimInvariants:
    @given(st.lists(st.tuples(st.integers(1, 100), st.booleans()), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_pool_accounting_never_negative(self, ops):
        pool = MemoryPool(10**9)
        live = {}
        for i, (size, free_it) in enumerate(ops):
            name = f"a{i}"
            pool.alloc(name, size)
            live[name] = size
            if free_it and live:
                victim = next(iter(live))
                pool.free(victim)
                del live[victim]
            assert pool.in_use == sum(live.values())
            assert pool.peak >= pool.in_use >= 0

    @given(st.lists(st.floats(0, 10), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_stream_time_monotone(self, durations):
        s = Stream("s")
        last = 0.0
        for d in durations:
            end = s.launch(d)
            assert end >= last
            last = end

    @given(
        st.integers(1, 10**6),
        st.integers(0, 10**6),
        st.integers(1, 10**6),
        st.integers(1, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_direction_switch_at_most_once(self, f, u, p, v):
        st_ = DirectionState(num_vertices=v, num_edges=4 * v)
        switches = 0
        prev = st_.direction
        for k in range(6):
            cur = st_.update((f + k) % (v + 1), u % (v + 1), 1 + p % v)
            if prev == "forward" and cur == BACKWARD:
                switches += 1
            prev = cur
        assert switches <= 1
