"""CC: correctness vs union-find, min-ID convention, superstep counts."""

import numpy as np
import pytest

from repro.baselines.reference import cc_reference
from repro.core.operators import segment_reduce_min
from repro.graph.build import from_edges
from repro.graph.generators import generate_rmat
from repro.partition import PartitionResult, build_subgraphs
from repro.partition.duplication import DUPLICATE_1HOP, DUPLICATE_ALL
from repro.primitives.cc import hook_rows, run_cc
from repro.sim.machine import Machine


class TestCorrectness:
    def test_matches_union_find_all_gpu_counts(self, small_rmat, any_machine):
        ref = cc_reference(small_rmat)
        comp, _, _ = run_cc(small_rmat, any_machine)
        assert np.array_equal(comp, ref)

    def test_two_components(self, two_components_graph, machine2):
        comp, _, _ = run_cc(two_components_graph, machine2)
        assert comp.tolist() == [0, 0, 0, 3, 3, 3]

    def test_all_isolated(self, machine2):
        g = from_edges(5, [])
        comp, _, _ = run_cc(g, machine2)
        assert comp.tolist() == list(range(5))

    def test_single_component(self, path_graph, machine4):
        comp, _, _ = run_cc(path_graph, machine4)
        assert np.all(comp == 0)

    def test_matches_networkx(self, small_social, machine4):
        nx = pytest.importorskip("networkx")
        g = small_social
        G = nx.Graph()
        G.add_nodes_from(range(g.num_vertices))
        coo = g.to_coo()
        G.add_edges_from(zip(coo.src.tolist(), coo.dst.tolist()))
        comp, _, _ = run_cc(g, machine4)
        for cset in nx.connected_components(G):
            ids = {int(comp[v]) for v in cset}
            assert len(ids) == 1
            assert min(cset) in ids  # min-vertex-ID convention

    @pytest.mark.parametrize("family", ["small_web", "small_road"])
    def test_families(self, family, machine4, request):
        g = request.getfixturevalue(family)
        assert np.array_equal(run_cc(g, machine4)[0], cc_reference(g))

    def test_many_small_components(self, machine4):
        # 20 disjoint triangles
        edges = []
        for k in range(20):
            b = 3 * k
            edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b)]
        g = from_edges(60, edges)
        comp, _, _ = run_cc(g, machine4)
        for k in range(20):
            assert comp[3 * k : 3 * k + 3].tolist() == [3 * k] * 3


class TestBehavior:
    def test_few_supersteps(self, small_rmat, machine4):
        """Table I: CC converges in 2-5 supersteps."""
        _, metrics, _ = run_cc(small_rmat, machine4)
        assert 2 <= metrics.supersteps <= 6

    def test_single_gpu_two_supersteps(self, small_rmat):
        _, metrics, _ = run_cc(small_rmat, Machine(1, scale=64.0))
        assert metrics.supersteps == 2

    def test_uses_broadcast(self, small_rmat, machine2):
        from repro.primitives.cc import CCProblem

        assert CCProblem(small_rmat, machine2).communication == "broadcast"

    def test_component_ids_travel_as_vertex_associates(
        self, small_rmat, machine2
    ):
        from repro.primitives.cc import CCProblem

        assert CCProblem(small_rmat, machine2).NUM_VERTEX_ASSOCIATES == 1

    def test_deterministic(self, small_rmat, machine4):
        a, _, _ = run_cc(small_rmat, machine4)
        b, _, _ = run_cc(small_rmat, machine4)
        assert np.array_equal(a, b)


class TestHookRows:
    """The source side of a hook reduces per row: it must equal the
    per-edge keyed minimum over the flattened edge sources it no longer
    reads."""

    @pytest.mark.parametrize("strategy", [DUPLICATE_ALL, DUPLICATE_1HOP])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_segment_reduce_min_over_edge_sources(self, strategy, seed):
        rng = np.random.default_rng(seed)
        graph = generate_rmat(8, 4, seed=seed)
        n = graph.num_vertices
        part = PartitionResult.from_assignment(
            rng.integers(0, 3, n).astype(np.int32), 3
        )
        for sub in build_subgraphs(graph, part, strategy):
            degree = sub.csr.out_degree()
            assert (degree == 0).any()  # proxies, or rows hosted elsewhere
            src = np.repeat(np.arange(sub.num_vertices), degree)
            dst = sub.hosted_cols64
            rows = degree.nonzero()[0]
            row_first = (degree.cumsum() - degree).take(rows)
            for _ in range(4):
                comp = rng.integers(0, sub.num_vertices, sub.num_vertices)
                comp = comp.astype(sub.csr.ids.vertex_dtype)
                want = comp.copy()
                segment_reduce_min(src, want[dst], want)
                hook_rows(comp, dst, rows, row_first)
                assert comp.dtype == want.dtype
                np.testing.assert_array_equal(comp, want)
