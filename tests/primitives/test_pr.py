"""PageRank: convergence, correctness, fixed border frontiers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.reference import pagerank_reference
from repro.core.enactor import Enactor
from repro.graph.build import from_edges
from repro.partition import DUPLICATE_1HOP
from repro.primitives.pr import PRIteration, PRProblem, run_pagerank
from repro.sim.machine import Machine


class TestCorrectness:
    def test_matches_reference_all_gpu_counts(self, small_rmat, any_machine):
        ref = pagerank_reference(small_rmat)
        ranks, _, _ = run_pagerank(small_rmat, any_machine)
        assert np.allclose(ranks, ref, rtol=1e-6)

    def test_duplicate_1hop_matches(self, small_rmat, machine4):
        ref = pagerank_reference(small_rmat)
        ranks, _, _ = run_pagerank(
            small_rmat, machine4, duplication=DUPLICATE_1HOP
        )
        assert np.allclose(ranks, ref, rtol=1e-6)

    def test_ring_is_uniform(self, machine2):
        g = from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
        ranks, _, _ = run_pagerank(g, machine2)
        assert np.allclose(ranks, ranks[0])

    def test_hub_ranks_highest(self, star_graph, machine2):
        ranks, _, _ = run_pagerank(star_graph, machine2)
        assert np.argmax(ranks) == 0

    def test_dangling_vertices(self, machine2):
        """Isolated vertices keep the base rank and push nothing."""
        g = from_edges(5, [(0, 1), (1, 2)])
        ranks, _, _ = run_pagerank(g, machine2)
        assert ranks[3] == pytest.approx(0.15)
        assert ranks[4] == pytest.approx(0.15)

    def test_damping_parameter(self, small_rmat, machine2):
        ref = pagerank_reference(small_rmat, damping=0.5)
        ranks, _, _ = run_pagerank(small_rmat, machine2, damping=0.5)
        assert np.allclose(ranks, ref, rtol=1e-6)

    def test_matches_networkx_ordering(self, small_social, machine2):
        nx = pytest.importorskip("networkx")
        g = small_social
        G = nx.Graph()
        G.add_nodes_from(range(g.num_vertices))
        coo = g.to_coo()
        G.add_edges_from(zip(coo.src.tolist(), coo.dst.tolist()))
        theirs = nx.pagerank(G, alpha=0.85)
        ours, _, _ = run_pagerank(g, machine2)
        top_ours = np.argsort(-ours)[:10]
        top_theirs = sorted(theirs, key=theirs.get, reverse=True)[:10]
        assert len(set(top_ours.tolist()) & set(top_theirs)) >= 7


class TestConvergence:
    def test_threshold_controls_iterations(self, small_rmat, machine2):
        _, loose, _ = run_pagerank(small_rmat, machine2, threshold=1e-2)
        _, tight, _ = run_pagerank(small_rmat, machine2, threshold=1e-8)
        assert tight.supersteps > loose.supersteps

    def test_max_iter_cap(self, small_rmat, machine2):
        _, metrics, _ = run_pagerank(
            small_rmat, machine2, threshold=0.0, max_iter=5
        )
        assert metrics.supersteps <= 6

    def test_iteration_count_gpu_independent(self, small_rmat):
        """The BSP algorithm converges identically at any GPU count."""
        s = {
            n: run_pagerank(small_rmat, Machine(n, scale=64.0))[1].supersteps
            for n in (1, 2, 4)
        }
        assert s[1] == s[2] == s[4]


class TestBorderFrontiers:
    def test_fixed_sub_frontiers_precomputed(self, small_rmat, machine4):
        """Algorithm 3: sub-frontiers are computed once and reused —
        each GPU's at its first superstep, by the process running it."""
        prob = PRProblem(small_rmat, machine4)
        assert prob.border_frontiers == [None] * 4
        with Enactor(prob, PRIteration) as enactor:
            enactor.enact()
            first = list(prob.border_frontiers)
            enactor.enact()
        assert len(prob.border_frontiers) == 4
        for g, border in enumerate(prob.border_frontiers):
            assert border is first[g]
            sub = prob.subgraphs[g]
            # every border vertex is remote and locally referenced
            assert np.all(sub.host_of_local[border] != g)
            assert np.isin(border, sub.hosted_cols64).all()

    def test_h_items_equal_border_per_iteration(self, small_rmat, machine4):
        """Table I: H = S * O(|Bi|)."""
        prob = PRProblem(small_rmat, machine4)
        metrics = Enactor(prob, PRIteration).enact()
        total_border = sum(b.size for b in prob.border_frontiers)
        per_iter = metrics.total_items_sent / metrics.supersteps
        assert per_iter <= total_border

    def test_single_gpu_no_border(self, small_rmat):
        prob = PRProblem(small_rmat, Machine(1, scale=64.0))
        prob.prepare(0)
        assert prob.border_frontiers[0].size == 0


class TestPersonalizedPagerank:
    """The personalized-PR extension: teleport toward seed vertices."""

    def _reference_ppr(self, g, teleport, damping=0.85, iters=300):
        n = g.num_vertices
        deg = g.out_degree().astype(np.float64)
        src = np.repeat(np.arange(n, dtype=np.int64), deg.astype(np.int64))
        dst = g.col_indices.astype(np.int64)
        rank = (1 - damping) * teleport
        for _ in range(iters):
            push = np.zeros(n)
            nz = deg > 0
            push[nz] = damping * rank[nz] / deg[nz]
            contrib = np.zeros(n)
            np.add.at(contrib, dst, push[src])
            rank = (1 - damping) * teleport + contrib
        return rank

    def test_matches_reference(self, small_rmat, machine2):
        n = small_rmat.num_vertices
        seeds = [3, 50]
        teleport = np.zeros(n)
        teleport[seeds] = 1.0
        teleport *= n / teleport.sum()
        ranks, _, _ = run_pagerank(
            small_rmat, machine2, personalization=seeds, threshold=1e-10
        )
        ref = self._reference_ppr(small_rmat, teleport)
        assert np.allclose(ranks, ref, rtol=1e-4)

    def test_seed_neighborhood_boosted(self, small_rmat, machine2):
        seed = 100
        ppr, _, _ = run_pagerank(
            small_rmat, machine2, personalization=[seed]
        )
        classic, _, _ = run_pagerank(small_rmat, machine2)
        # relative to classic PR, the seed dominates in its own PPR
        assert ppr[seed] / classic[seed] > 10

    def test_explicit_distribution(self, small_rmat, machine2):
        n = small_rmat.num_vertices
        p = np.ones(n)
        ranks_p, _, _ = run_pagerank(
            small_rmat, machine2, personalization=p
        )
        ranks, _, _ = run_pagerank(small_rmat, machine2)
        assert np.allclose(ranks_p, ranks)  # uniform == classic

    def test_multi_gpu_agrees(self, small_rmat):
        results = {}
        for n in (1, 4):
            results[n] = run_pagerank(
                small_rmat, Machine(n, scale=64.0), personalization=[7]
            )[0]
        assert np.allclose(results[1], results[4], rtol=1e-9)

    def test_zero_mass_rejected(self, small_rmat, machine2):
        with pytest.raises(ValueError):
            run_pagerank(
                small_rmat,
                machine2,
                personalization=np.zeros(small_rmat.num_vertices),
            )


class TestFixedRoute:
    """PR's output frontier is the same array every superstep, so its
    split is made once (``PRProblem.prepare``, at the GPU's first
    superstep) and the enactor replays it: same parts, same charges,
    same traced instants."""

    @staticmethod
    def _assert_route_is_fresh_split(problem):
        from dataclasses import asdict

        from repro.core.comm import split_frontier

        assert len(problem.fixed_routes) == problem.num_gpus
        for gpu, route in enumerate(problem.fixed_routes):
            if route is None:  # a GPU that has not run since (re)binding
                problem.prepare(gpu)
        for gpu, (out, local, remote, stats) in enumerate(
            problem.fixed_routes
        ):
            sub = problem.subgraphs[gpu]
            np.testing.assert_array_equal(out, np.concatenate(
                [problem.hosted_frontiers[gpu], problem.border_frontiers[gpu]]
            ))
            w_local, w_remote, w_stats = split_frontier(
                sub, out, ids_bytes=sub.csr.ids.vertex_bytes
            )
            np.testing.assert_array_equal(local, w_local)
            assert list(remote) == list(w_remote)
            for peer, part in remote.items():
                np.testing.assert_array_equal(part, w_remote[peer])
            assert asdict(stats) == asdict(w_stats)
            # shared across supersteps and enact() calls: nobody may
            # write what the next superstep reads
            for arr in (out, local, *remote.values()):
                assert arr.dtype == np.int64 and not arr.flags.writeable

    @pytest.mark.parametrize("duplication", [None, DUPLICATE_1HOP])
    def test_route_is_the_split_of_the_output_frontier(
        self, small_rmat, machine4, duplication
    ):
        prob = PRProblem(small_rmat, machine4, duplication=duplication)
        self._assert_route_is_fresh_split(prob)

    def test_repartition_after_gpu_loss_rebuilds_the_route(
        self, small_rmat, machine4
    ):
        from repro.partition.base import reassign_onto_survivors

        prob = PRProblem(small_rmat, machine4)
        before = prob.fixed_routes
        prob.reset()
        assignment = reassign_onto_survivors(
            prob.partition.partition_table, {3}, 4
        )
        prob.repartition(assignment, dead={3})
        prob.on_repartition(dead=frozenset({3}))
        assert prob.fixed_routes is not before
        self._assert_route_is_fresh_split(prob)
        # the survivors took GPU 3's vertices; it hosts and routes nothing
        assert prob.fixed_routes[3][0].size == 0
        assert sum(r[1].size for r in prob.fixed_routes) == (
            small_rmat.num_vertices
        )

    def test_gpu_loss_mid_run_matches_fault_free_ranks(self, small_rmat):
        from repro.sim.faults import GPU_LOSS, FaultPlan, FaultSpec

        ref, _, _ = run_pagerank(small_rmat, Machine(4), max_iter=12)
        machine = Machine(4)
        machine.arm_faults(
            FaultPlan([FaultSpec(GPU_LOSS, gpu=3, iteration=5)])
        )
        ranks, metrics, prob = run_pagerank(
            small_rmat, machine, max_iter=12, checkpoint_every=2
        )
        assert metrics.rollbacks == 1 and metrics.degraded_gpus == [3]
        np.testing.assert_allclose(ranks, ref, rtol=1e-12)
        self._assert_route_is_fresh_split(prob)

    def test_empty_output_frontier_takes_the_empty_route(
        self, small_rmat, monkeypatch
    ):
        """A GPU hosting nothing has no output frontier: nothing to
        replay, and the enactor prices the launch as for any empty one."""
        from repro.core import enactor as enactor_module
        from repro.partition.base import PartitionResult

        class SkipsGpu2:
            def partition(self, graph, num_gpus):
                rng = np.random.default_rng(5)
                return PartitionResult.from_assignment(
                    rng.choice([0, 1, 3], size=graph.num_vertices), num_gpus
                )

        routed_empty = []
        real = enactor_module.route_empty_frontier

        def spy(sub, *args):
            routed_empty.append(sub.gpu_id)
            return real(sub, *args)

        monkeypatch.setattr(enactor_module, "route_empty_frontier", spy)
        prob = PRProblem(small_rmat, Machine(4), partitioner=SkipsGpu2())
        prob.prepare(2)
        assert prob.fixed_routes[2][0].size == 0
        with Enactor(prob, PRIteration) as enactor:
            metrics = enactor.enact()
        assert routed_empty == [2] * metrics.supersteps
        assert np.allclose(
            prob.ranks(), pagerank_reference(small_rmat), rtol=1e-6
        )

    def test_replayed_route_is_indistinguishable_from_splitting(
        self, monkeypatch
    ):
        """Results, metrics and the traced stream of a run that replays
        the stored route equal, on every backend, those of a run whose
        core hands out a copy of its frontier — not the array the route
        was made from, so the enactor splits it every superstep."""
        import tests.core.test_kernel_bit_identity as identity

        class CopiesItsOutput(PRIteration):
            def full_queue_core(self, ctx, frontier):
                out, stats = super().full_queue_core(ctx, frontier)
                return out.copy(), stats

        graphs = identity._graphs()
        replayed = {
            backend: identity.run_case(
                graphs, "rmat", "pr", 4, backend, traced=True
            )
            for backend in ("serial", "processes:2")
        }
        assert replayed["processes:2"] == replayed["serial"]
        pr = identity.VARIANTS["pr"]
        monkeypatch.setitem(
            identity.VARIANTS, "pr-split", (pr[0], CopiesItsOutput, *pr[2:])
        )
        split = identity.run_case(
            graphs, "rmat", "pr-split", 4, "serial", traced=True
        )
        assert split == replayed["serial"]


class TestCompiledPush:
    """The advance is one compiled CSC mat-vec over the push plan: it
    adds every edge's share into ``acc[target]`` from ``0.0``, in
    source-major edge order — the order ``np.add.at`` applies the
    repeated shares in — so every bit equals that reference.  A spy
    around the kernel checks each call of a run against it."""

    @staticmethod
    def _bits(a):
        return a.view(np.int64 if a.dtype.itemsize == 8 else np.int32)

    @classmethod
    def _spy(cls, monkeypatch):
        from repro.primitives import pr

        real = pr.csc_matvec
        calls = []

        def checked(n_row, n_col, indptr, nbrs, ones, share, acc):
            out = acc.view(np.ndarray)
            assert not out.any(), "the push starts from a zeroed acc"
            want = np.zeros(n_row, dtype=out.dtype)
            np.add.at(want, nbrs, share.repeat(np.diff(indptr)))
            real(n_row, n_col, indptr, nbrs, ones, share, acc)
            assert share.dtype == ones.dtype == out.dtype
            np.testing.assert_array_equal(cls._bits(out), cls._bits(want))
            calls.append(n_col)

        monkeypatch.setattr(pr, "csc_matvec", checked)
        return calls

    @staticmethod
    def _directed(num_vertices, src, dst, value_dtype):
        """The edge list as given: self-loops and repeats are kept."""
        from repro.graph.build import build_csr
        from repro.graph.coo import CooGraph
        from repro.types import IdConfig

        coo = CooGraph(num_vertices, src, dst,
                       ids=IdConfig(np.int32, np.int32, value_dtype))
        return build_csr(coo, undirected=False, remove_self_loops=False,
                         remove_duplicates=False)

    @classmethod
    def _multigraph(cls, value_dtype=np.float64):
        """A self-loop, a repeated edge, a sink (5) and an isolated
        vertex (6): hosted vertices with no out-edges."""
        return cls._directed(
            8,
            [0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 4, 7, 7],
            [1, 1, 0, 2, 5, 2, 3, 0, 4, 4, 5, 1, 0, 7],
            value_dtype,
        )

    @pytest.mark.parametrize("value_dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("duplication", [None, DUPLICATE_1HOP])
    def test_equals_add_at_over_repeated_shares(
        self, monkeypatch, value_dtype, duplication
    ):
        graph = self._multigraph(value_dtype)
        assert graph.num_edges == 14  # nothing was cleaned away
        calls = self._spy(monkeypatch)
        ranks, metrics, prob = run_pagerank(
            graph, Machine(2), max_iter=8, threshold=0.0,
            duplication=duplication,
        )
        assert ranks.dtype == value_dtype
        assert len(calls) == 2 * metrics.supersteps
        for gpu, sub in enumerate(prob.subgraphs):
            pushers, indptr, nbrs = prob.push_plans[gpu]
            assert nbrs is sub.hosted_cols64
            assert indptr[0] == 0 and indptr[-1] == nbrs.size
            assert (np.diff(indptr) > 0).all()  # sinks push nothing
            assert sub.is_hosted(pushers).all()

    def test_gpu_without_pushers_launches_no_kernel(self, monkeypatch):
        """GPU 1 hosts only the sink and the isolated vertex."""
        from repro.partition.base import PartitionResult

        class SinksOnGpu1:
            def partition(self, graph, num_gpus):
                owner = np.zeros(graph.num_vertices, dtype=np.int64)
                owner[[5, 6]] = 1
                return PartitionResult.from_assignment(owner, num_gpus)

        graph = self._multigraph()
        calls = self._spy(monkeypatch)
        ranks, metrics, prob = run_pagerank(
            graph, Machine(2), max_iter=5, threshold=0.0,
            partitioner=SinksOnGpu1(),
        )
        assert prob.push_plans[1][0].size == 0
        assert len(calls) == metrics.supersteps  # GPU 0's only
        one, _, _ = run_pagerank(graph, Machine(1), max_iter=5,
                                 threshold=0.0)
        np.testing.assert_allclose(ranks, one, rtol=1e-12)

    def test_after_gpu_loss_rebuild(self, small_rmat, monkeypatch):
        from repro.sim.faults import GPU_LOSS, FaultPlan, FaultSpec

        ref, _, _ = run_pagerank(small_rmat, Machine(4), max_iter=10)
        calls = self._spy(monkeypatch)
        machine = Machine(4)
        machine.arm_faults(
            FaultPlan([FaultSpec(GPU_LOSS, gpu=3, iteration=4)])
        )
        ranks, metrics, prob = run_pagerank(
            small_rmat, machine, max_iter=10, checkpoint_every=2
        )
        assert metrics.rollbacks == 1 and metrics.degraded_gpus == [3]
        # the survivors' rebuilt plans push from every vertex with
        # out-edges, GPU 3's old ones included; GPU 3 runs nothing
        assert prob.push_plans[3] is None
        pushers = np.concatenate([
            sub.local_to_global[prob.push_plans[g][0]]
            for g, sub in enumerate(prob.subgraphs[:3])
        ])
        np.testing.assert_array_equal(
            np.sort(pushers), np.flatnonzero(small_rmat.out_degree())
        )
        assert calls
        np.testing.assert_allclose(ranks, ref, rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        num_vertices=st.integers(1, 12),
        edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                       max_size=40),
        num_gpus=st.integers(1, 3),
        value_dtype=st.sampled_from([np.float64, np.float32]),
        one_hop=st.booleans(),
    )
    def test_equals_add_at_on_drawn_multigraphs(
        self, num_vertices, edges, num_gpus, value_dtype, one_hop
    ):
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2) % num_vertices
        graph = self._directed(num_vertices, pairs[:, 0], pairs[:, 1],
                               value_dtype)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = self._spy(monkeypatch)
            run_pagerank(
                graph, Machine(num_gpus, scale=64.0), max_iter=3,
                threshold=0.0,
                duplication=DUPLICATE_1HOP if one_hop else None,
            )
        assert bool(calls) == (graph.num_edges > 0)

    def test_sanitized_ranks_are_bit_equal(self, small_rmat):
        """Under ``sanitize=True`` ``acc`` is a ``ShadowArray`` the kernel
        writes in place; the ranks keep every bit."""
        plain, _, _ = run_pagerank(small_rmat, Machine(4), max_iter=10)
        shadow, _, _ = run_pagerank(
            small_rmat, Machine(4), max_iter=10, sanitize=True
        )
        np.testing.assert_array_equal(self._bits(shadow), self._bits(plain))
