"""BC: dependencies vs Brandes, sigma counts, phase machinery."""

import numpy as np
import pytest

from repro.baselines.reference import bc_reference, bfs_reference
from repro.core.enactor import Enactor
from repro.graph.build import from_edges
from repro.primitives.bc import BCIteration, BCProblem, run_bc
from repro.sim.machine import Machine


class TestCorrectness:
    def test_matches_brandes_all_gpu_counts(self, small_rmat, any_machine):
        ref = bc_reference(small_rmat, source=7)
        bc, _, _ = run_bc(small_rmat, any_machine, src=7)
        assert np.allclose(bc, ref, rtol=1e-9, atol=1e-9)

    def test_path_graph_dependencies(self, path_graph, machine2):
        """On a path from one end, delta[v] = #descendants beyond v."""
        bc, _, _ = run_bc(path_graph, machine2, src=0)
        assert np.allclose(bc, np.array([0, 8, 7, 6, 5, 4, 3, 2, 1, 0]))

    def test_star_center(self, star_graph, machine2):
        bc, _, _ = run_bc(star_graph, machine2, src=1)
        # all paths from leaf 1 pass through the hub 0
        assert bc[0] == pytest.approx(14.0)
        assert np.all(bc[2:] == 0)

    def test_diamond_split_paths(self, machine2):
        """Two equal shortest paths halve the dependency."""
        g = from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        bc, _, _ = run_bc(g, machine2, src=0)
        assert bc[1] == pytest.approx(0.5)
        assert bc[2] == pytest.approx(0.5)
        assert bc[0] == 0.0

    def test_source_excluded(self, small_rmat, machine4):
        bc, _, _ = run_bc(small_rmat, machine4, src=7)
        assert bc[7] == 0.0

    def test_matches_networkx(self, small_social, machine4):
        nx = pytest.importorskip("networkx")
        g = small_social
        G = nx.Graph()
        G.add_nodes_from(range(g.num_vertices))
        coo = g.to_coo()
        G.add_edges_from(zip(coo.src.tolist(), coo.dst.tolist()))
        # networkx betweenness with a single source, unnormalized
        from networkx.algorithms.centrality.betweenness import (
            _single_source_shortest_path_basic,
            _accumulate_basic,
        )

        betweenness = dict.fromkeys(G, 0.0)
        S, P, sigma, _ = _single_source_shortest_path_basic(G, 5)
        betweenness, _ = _accumulate_basic(betweenness, S, P, sigma, 5)
        ref = np.array([betweenness[v] for v in range(g.num_vertices)])
        bc, _, _ = run_bc(g, machine4, src=5)
        assert np.allclose(bc, ref, rtol=1e-9, atol=1e-9)

    def test_disconnected_component_zero(self, two_components_graph, machine2):
        bc, _, _ = run_bc(two_components_graph, machine2, src=0)
        assert np.all(bc[3:] == 0)


class TestInternals:
    def test_sigma_counts_shortest_paths(self, small_rmat, machine4):
        prob = BCProblem(small_rmat, machine4)
        Enactor(prob, BCIteration).enact(src=7)
        sigma = prob.sigmas()
        depths = prob.depths()
        ref_depth, _ = bfs_reference(small_rmat, 7)
        assert np.array_equal(depths, ref_depth)
        # sigma of a vertex = sum of sigmas of its parents
        g = small_rmat
        for v in np.flatnonzero(ref_depth > 0)[:50]:
            parents = [
                u for u in g.neighbors(v) if ref_depth[u] == ref_depth[v] - 1
            ]
            assert sigma[v] == pytest.approx(sum(sigma[u] for u in parents))

    def test_superstep_count_spans_phases(self, small_rmat, machine2):
        """Forward (~ecc) + sync + backward (~ecc) supersteps."""
        ref, _ = bfs_reference(small_rmat, 7)
        ecc = int(ref.max())
        _, metrics, _ = run_bc(small_rmat, machine2, src=7)
        assert metrics.supersteps >= 2 * ecc - 1

    @pytest.mark.parametrize("backend", ["serial", "processes:2"])
    @pytest.mark.parametrize("num_gpus", [1, 2, 4])
    @pytest.mark.parametrize(
        "graph_name",
        ["small_rmat", "path_graph", "star_graph", "two_components_graph"],
    )
    def test_max_depth_is_the_deepest_label(
        self, graph_name, num_gpus, backend, request
    ):
        """``should_stop`` derives ``max_depth`` from frontier sizes (one
        GPU) or from each GPU's deepest hosted label, recorded by the
        sync superstep — never from a slice array, which a ``processes``
        worker's copy of the hook may not read.  It is still the
        traversal's deepest label."""
        graph = request.getfixturevalue(graph_name)
        problem = BCProblem(graph, Machine(num_gpus))
        with Enactor(problem, BCIteration, backend=backend) as enactor:
            for src in (0, 3, graph.num_vertices - 1):
                enactor.enact(src=src)
                assert problem.max_depth == problem.depths().max()

    @pytest.mark.parametrize("backend", ["serial", "processes:2"])
    @pytest.mark.parametrize("lost_at", [1, 5])
    def test_max_depth_survives_losing_gpu_0(self, small_rmat, backend,
                                             lost_at):
        """GPU 0's slice is a dead GPU's after the loss; the depth comes
        from the survivors (forward phase, or the sync superstep)."""
        from repro.sim.faults import GPU_LOSS, FaultPlan, FaultSpec

        machine = Machine(4)
        machine.arm_faults(
            FaultPlan([FaultSpec(GPU_LOSS, gpu=0, iteration=lost_at)])
        )
        problem = BCProblem(small_rmat, machine)
        with Enactor(problem, BCIteration, backend=backend,
                     checkpoint_every=1) as enactor:
            metrics = enactor.enact(src=7)
        assert metrics.rollbacks == 1
        assert problem.max_depth == problem.depths().max()
        ref = bc_reference(small_rmat, source=7)
        assert np.allclose(problem.bc_values(), ref, rtol=1e-9, atol=1e-9)

    def test_single_gpu_skips_sync(self, small_rmat):
        _, m1, _ = run_bc(small_rmat, Machine(1, scale=64.0), src=7)
        _, m2, _ = run_bc(small_rmat, Machine(2, scale=64.0), src=7)
        assert m1.supersteps < m2.supersteps

    def test_w_roughly_double_bfs(self, small_rmat, machine2):
        """Table I: W = O(2|Ei|) — forward + backward edge passes."""
        from repro.primitives.bfs import run_bfs

        _, m_bfs, _ = run_bfs(small_rmat, machine2, src=7)
        _, m_bc, _ = run_bc(small_rmat, machine2, src=7)
        ratio = m_bc.total_edges_visited / max(m_bfs.total_edges_visited, 1)
        assert 1.5 <= ratio <= 2.5
