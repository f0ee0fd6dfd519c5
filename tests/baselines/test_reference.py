"""Reference oracles validated against networkx/scipy and hand cases."""

import numpy as np
import pytest

from repro.baselines.reference import (
    bc_reference,
    bfs_reference,
    cc_reference,
    pagerank_reference,
    sssp_reference,
)
from repro.graph.build import add_random_weights, from_edges


def to_nx(g):
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(g.num_vertices))
    coo = g.to_coo()
    G.add_edges_from(zip(coo.src.tolist(), coo.dst.tolist()))
    return G


class TestBfsReference:
    def test_levels_and_parents(self, path_graph):
        levels, parents = bfs_reference(path_graph, 0)
        assert levels.tolist() == list(range(10))
        assert parents[5] == 4
        assert parents[0] == -1

    def test_parent_is_one_level_up(self, small_rmat):
        levels, parents = bfs_reference(small_rmat, 3)
        for v in np.flatnonzero(levels > 0)[:100]:
            assert levels[parents[v]] == levels[v] - 1


class TestSsspReference:
    def test_matches_scipy(self, weighted_rmat):
        import scipy.sparse as sp
        from scipy.sparse.csgraph import dijkstra

        g = weighted_rmat
        mat = sp.csr_matrix(
            (g.values, g.col_indices, g.row_offsets),
            shape=(g.num_vertices, g.num_vertices),
        )
        ref = dijkstra(mat, indices=11)
        dist, _ = sssp_reference(g, 11)
        assert np.allclose(dist, ref)

    def test_requires_weights(self, small_rmat):
        with pytest.raises(ValueError):
            sssp_reference(small_rmat, 0)

    def test_pred_tree_consistent(self, weighted_rmat):
        dist, preds = sssp_reference(weighted_rmat, 11)
        g = weighted_rmat
        for v in np.flatnonzero(np.isfinite(dist))[:50]:
            if v == 11:
                continue
            p = int(preds[v])
            nbrs = g.neighbors(p)
            w = g.edge_values(p)[np.flatnonzero(nbrs == v)[0]]
            assert dist[v] == pytest.approx(dist[p] + w)


class TestCcReference:
    def test_matches_networkx(self, small_social):
        nx = pytest.importorskip("networkx")
        G = to_nx(small_social)
        comp = cc_reference(small_social)
        for cset in nx.connected_components(G):
            assert len({int(comp[v]) for v in cset}) == 1

    def test_min_id_convention(self, two_components_graph):
        comp = cc_reference(two_components_graph)
        assert comp.tolist() == [0, 0, 0, 3, 3, 3]


class TestBcReference:
    def test_single_source_matches_networkx_total(self, small_social):
        nx = pytest.importorskip("networkx")
        G = to_nx(small_social)
        for s in (0, 5, 100):
            theirs = nx.betweenness_centrality_subset(
                G, sources=[s], targets=list(G), normalized=False
            )
            # networkx halves the dependency on an undirected graph
            want = 2 * np.array([theirs[v] for v in range(len(theirs))])
            assert np.allclose(bc_reference(small_social, source=s), want)

    def test_path_dependency(self, path_graph):
        d = bc_reference(path_graph, source=0)
        assert d.tolist() == [0, 8, 7, 6, 5, 4, 3, 2, 1, 0]

    def test_full_bc_symmetric_path(self, path_graph):
        full = bc_reference(path_graph)
        # endpoints have 0 betweenness; middle the highest
        assert full[0] == 0 and full[9] == 0
        assert np.argmax(full) in (4, 5)

    def test_full_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        g = from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6),
                           (6, 3), (4, 7)])
        G = to_nx(g)
        theirs = nx.betweenness_centrality(G, normalized=False)
        ours = bc_reference(g) / 2  # undirected double count
        for v in range(8):
            assert ours[v] == pytest.approx(theirs[v])


class TestPagerankReference:
    def test_ranks_positive(self, small_rmat):
        r = pagerank_reference(small_rmat)
        assert np.all(r > 0)

    def test_base_rank_floor(self, small_rmat):
        r = pagerank_reference(small_rmat, damping=0.85)
        assert np.all(r >= 0.15 - 1e-12)

    def test_hub_dominates(self, star_graph):
        r = pagerank_reference(star_graph)
        assert np.argmax(r) == 0

    def test_empty_graph(self):
        assert pagerank_reference(from_edges(0, [])).size == 0

    def test_matches_direct_solve(self):
        # two triangles joined by a bridge and a chord: no degree-0 vertex
        g = from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5),
                           (5, 3), (1, 4)])
        d, threshold = 0.85, 1e-6
        n = g.num_vertices
        adj = np.zeros((n, n))
        for u in range(n):
            adj[u, g.neighbors(u)] = 1.0
        assert adj.sum(axis=1).min() > 0
        push = adj.T / adj.sum(axis=1)  # column-stochastic Aᵀ·D⁻¹
        exact = np.linalg.solve(np.eye(n) - d * push, (1 - d) * np.ones(n))
        ranks = pagerank_reference(g, damping=d, threshold=threshold)
        # the iteration contracts by d in L1 and stops once every rank
        # moves less than `threshold` of itself, so its L1 distance to
        # the fixed point is at most d / (1 - d) * threshold * |ranks|
        bound = d / (1 - d) * threshold * ranks.sum()
        assert np.abs(ranks - exact).sum() <= bound
