"""SSSP: correctness vs Dijkstra, duplicate-1-hop machinery, counters."""

import numpy as np
import pytest

from repro.baselines.reference import sssp_reference
from repro.core.enactor import Enactor
from repro.errors import GraphFormatError
from repro.graph.build import add_random_weights, from_edges
from repro.partition import DUPLICATE_1HOP, DUPLICATE_ALL, MetisLikePartitioner
from repro.primitives.sssp import SSSPIteration, SSSPProblem, run_sssp
from repro.sim.machine import Machine


class TestCorrectness:
    def test_matches_dijkstra_all_gpu_counts(self, weighted_rmat, any_machine):
        ref, _ = sssp_reference(weighted_rmat, 7)
        dist, _, _ = run_sssp(weighted_rmat, any_machine, src=7)
        assert np.allclose(dist, ref)

    def test_matches_scipy(self, weighted_rmat, machine2):
        sp = pytest.importorskip("scipy.sparse")
        from scipy.sparse.csgraph import dijkstra

        g = weighted_rmat
        mat = sp.csr_matrix(
            (g.values, g.col_indices, g.row_offsets),
            shape=(g.num_vertices, g.num_vertices),
        )
        ref = dijkstra(mat, indices=7)
        dist, _, _ = run_sssp(g, machine2, src=7)
        assert np.allclose(dist, ref)

    def test_weighted_path(self, machine2):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        # weights: make the long way around cheaper
        w = np.zeros(g.num_edges)
        coo = g.to_coo()
        for i, (u, v) in enumerate(zip(coo.src, coo.dst)):
            w[i] = 10.0 if {int(u), int(v)} == {0, 3} else 1.0
        from repro.graph.csr import CsrGraph

        gw = CsrGraph(4, g.row_offsets, g.col_indices, w, ids=g.ids,
                      directed=False)
        dist, _, _ = run_sssp(gw, machine2, src=0)
        assert dist.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_zero_weights_allowed(self, machine2):
        g = from_edges(3, [(0, 1), (1, 2)])
        from repro.graph.csr import CsrGraph

        gw = CsrGraph(3, g.row_offsets, g.col_indices,
                      np.zeros(g.num_edges), ids=g.ids, directed=False)
        dist, _, _ = run_sssp(gw, machine2, src=0)
        assert dist.tolist() == [0.0, 0.0, 0.0]

    def test_unreached_is_inf(self, machine2):
        g = add_random_weights(
            from_edges(4, [(0, 1)]), 1, 5
        )
        dist, _, _ = run_sssp(g, machine2, src=0)
        assert np.isinf(dist[2]) and np.isinf(dist[3])

    def test_rejects_unweighted(self, small_rmat, machine2):
        with pytest.raises(GraphFormatError):
            SSSPProblem(small_rmat, machine2)

    def test_metis_partition(self, weighted_rmat, machine4):
        ref, _ = sssp_reference(weighted_rmat, 3)
        dist, _, _ = run_sssp(
            weighted_rmat, machine4, src=3,
            partitioner=MetisLikePartitioner(1),
        )
        assert np.allclose(dist, ref)


class TestStrategies:
    def test_uses_duplicate_1hop_by_default(self, weighted_rmat, machine2):
        prob = SSSPProblem(weighted_rmat, machine2)
        assert prob.duplication == DUPLICATE_1HOP
        # slice arrays sized |V_i| < |V| (proxy savings)
        assert (
            prob.data_slices[0]["dist"].size
            <= weighted_rmat.num_vertices
        )

    def test_duplicate_all_also_correct(self, weighted_rmat, machine4):
        ref, _ = sssp_reference(weighted_rmat, 7)
        prob = SSSPProblem(
            weighted_rmat, machine4, duplication=DUPLICATE_ALL
        )
        Enactor(prob, SSSPIteration).enact(src=7)
        assert np.allclose(prob.distances(), ref)

    def test_preds_give_shortest_paths(self, weighted_rmat, machine4):
        prob = SSSPProblem(weighted_rmat, machine4, mark_predecessors=True)
        Enactor(prob, SSSPIteration).enact(src=7)
        dist = prob.distances()
        preds = prob.predecessors()
        # walking the tree reproduces each distance
        g = weighted_rmat
        for v in np.flatnonzero(np.isfinite(dist))[:40]:
            if v == 7:
                continue
            p = int(preds[v])
            assert p >= 0
            nbrs = g.neighbors(p)
            w = g.edge_values(p)[np.flatnonzero(nbrs == v)[0]]
            assert dist[v] == pytest.approx(dist[p] + w)


class TestCounters:
    def test_reentry_factor_b(self, weighted_rmat, machine2):
        """Table I: W = O(b|Ei|); b is small but may exceed 1."""
        _, metrics, _ = run_sssp(weighted_rmat, machine2, src=7)
        b = metrics.total_edges_visited / weighted_rmat.num_edges
        assert 0.5 < b < 6.0

    def test_distance_travels_as_value(self, weighted_rmat, machine2):
        prob = SSSPProblem(weighted_rmat, machine2)
        assert prob.NUM_VALUE_ASSOCIATES == 1

    def test_more_supersteps_than_bfs(self, weighted_rmat, machine2):
        """S ~ b*D/2 >= BFS's D/2."""
        from repro.primitives.bfs import run_bfs

        _, m_bfs, _ = run_bfs(weighted_rmat, machine2, src=7)
        _, m_sssp, _ = run_sssp(weighted_rmat, machine2, src=7)
        assert m_sssp.supersteps >= m_bfs.supersteps


def _relax_every_copy(ctx, frontier, mark_predecessors):
    """The core as a GPU kernel runs it: every copy of a frontier vertex
    gathers its row and offers its candidates.  Scalar where it can be,
    so it shares no array idiom with the hook it checks."""
    from repro.core.operators.advance import advance_push
    from repro.core.stats import OpStats

    dist, csr = ctx.slice["dist"], ctx.sub.csr
    nbrs, srcs, _, a_stats = advance_push(
        csr, frontier, ids_bytes=ctx.ids_bytes
    )
    if nbrs.size == 0:
        return np.empty(0, dtype=np.int64), [a_stats]
    eidx = np.concatenate(
        [np.arange(csr.starts64[v], csr.ends64[v]) for v in frontier]
    )
    cand = np.asarray(dist)[srcs] + csr.values[eidx]
    before = np.array(dist)
    np.minimum.at(dist, nbrs, cand)
    improved = np.flatnonzero(np.asarray(dist) < before)
    relax_stats = OpStats(
        name="relax",
        input_size=int(nbrs.size),
        output_size=int(improved.size),
        vertices_processed=int(frontier.size),
        launches=1,
        streaming_bytes=(nbrs.size + improved.size) * ctx.ids_bytes,
        random_bytes=nbrs.size * (8 + 8),
        atomic_ops=float(nbrs.size),
    )
    if mark_predecessors:
        final = np.asarray(dist)
        for v in improved:
            hits = np.flatnonzero((nbrs == v) & (cand <= final[v] + 1e-12))
            winner = hits[np.argmin(eidx[hits])]
            ctx.slice["preds"][v] = ctx.sub.local_to_global[srcs[winner]]
    return improved, [a_stats, relax_stats]


class TestRelaxEachVertexOnce:
    """``full_queue_core`` charges every copy of a frontier vertex and
    relaxes each vertex once; ``min`` is idempotent, so nothing a caller
    can observe differs from relaxing every copy."""

    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("mark_predecessors", [False, True])
    def test_equals_relaxing_every_copy(self, weighted_rmat,
                                        mark_predecessors, sanitize):
        from dataclasses import asdict

        problem = SSSPProblem(
            weighted_rmat, Machine(4), mark_predecessors=mark_predecessors
        )
        names = ["dist"] + (["preds"] if mark_predecessors else [])
        rng = np.random.default_rng(17)
        with Enactor(problem, SSSPIteration, sanitize=sanitize) as enactor:
            enactor.enact(src=0)  # converged distances, then perturbed
            iteration = SSSPIteration(problem)
            compared = 0
            for gpu, ctx in enumerate(enactor._contexts):
                ds, sub = ctx.slice, ctx.sub
                assert (type(ds["dist"]) is not np.ndarray) == sanitize
                hosted = problem.hosted_frontiers[gpu]
                reached = hosted[np.isfinite(np.asarray(ds["dist"])[hosted])]
                # a frontier of 1-4 copies per vertex, unsorted, whose
                # relaxations improve some neighbors and not others
                stale = rng.choice(sub.num_vertices, sub.num_vertices // 3,
                                   replace=False)
                ds["dist"][stale] += rng.integers(1, 40, stale.size)
                picked = rng.choice(reached, reached.size // 2, replace=False)
                frontier = rng.permutation(
                    np.repeat(picked, rng.integers(1, 5, picked.size))
                )
                assert frontier.size > picked.size
                start = {n: np.array(ds[n]) for n in names}

                def run(core):
                    for n in names:
                        ds[n][:] = start[n]
                    if sanitize:
                        enactor.sanitizer.on_superstep_start(
                            gpu, 0, 0.0, frontier)
                    try:
                        out, stats = core()
                    finally:
                        if sanitize:
                            enactor.sanitizer.on_superstep_end(0.0, None)
                    return (out, [asdict(s) for s in stats],
                            {n: np.array(ds[n]) for n in names})

                got = run(lambda: iteration.full_queue_core(ctx, frontier))
                want = run(lambda: _relax_every_copy(
                    ctx, frontier, mark_predecessors))
                assert got[0].dtype == np.int64
                np.testing.assert_array_equal(got[0], want[0])
                assert got[0].size, "nothing improved: the case is vacuous"
                assert got[1] == want[1]
                for n in names:
                    np.testing.assert_array_equal(got[2][n], want[2][n])
                # every copy was charged
                assert got[1][0]["input_size"] == frontier.size
                compared += 1
            assert compared == 4
            if sanitize:
                assert enactor.sanitizer.hazards == []
