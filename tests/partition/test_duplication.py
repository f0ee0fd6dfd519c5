"""Vertex duplication: duplicate-all and duplicate-1-hop subgraphs."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph.build import from_edges
from repro.partition import (
    DUPLICATE_1HOP,
    DUPLICATE_ALL,
    RandomPartitioner,
    build_subgraphs,
)
from repro.partition.base import PartitionResult


def pr_of(assignment, n):
    return PartitionResult.from_assignment(np.asarray(assignment), n)


@pytest.fixture
def gpart(small_rmat):
    return small_rmat, RandomPartitioner(0).partition(small_rmat, 4)


class TestDuplicateAll:
    def test_every_vertex_everywhere(self, gpart):
        g, pr = gpart
        subs = build_subgraphs(g, pr, DUPLICATE_ALL)
        for s in subs:
            assert s.num_vertices == g.num_vertices
            assert np.array_equal(s.local_to_global, np.arange(g.num_vertices))
            assert np.array_equal(s.host_local_id, np.arange(g.num_vertices))

    def test_edges_partitioned_exactly(self, gpart):
        g, pr = gpart
        subs = build_subgraphs(g, pr, DUPLICATE_ALL)
        assert sum(s.num_edges for s in subs) == g.num_edges

    def test_remote_vertices_have_no_edges(self, gpart):
        g, pr = gpart
        subs = build_subgraphs(g, pr, DUPLICATE_ALL)
        for s in subs:
            # a row view: the graph's row starts, this GPU's row ends
            np.testing.assert_array_equal(s.csr.starts64, g.row_offsets[:-1])
            deg = s.csr.ends64 - s.csr.starts64
            remote = s.host_of_local != s.gpu_id
            assert np.all(deg[remote] == 0)
            np.testing.assert_array_equal(
                deg[~remote], g.out_degree()[~remote]
            )

    def test_hosted_edges_match_original(self, gpart):
        g, pr = gpart
        subs = build_subgraphs(g, pr, DUPLICATE_ALL)
        for s in subs:
            csr = s.csr
            # rows are read in place: the columns are the graph's
            assert np.shares_memory(csr.cols64, g.cols64)
            hosted = np.flatnonzero(s.host_of_local == s.gpu_id)
            for v in hosted[:20]:
                row = csr.cols64[csr.starts64[v]:csr.ends64[v]]
                assert np.array_equal(row, g.neighbors(v))
            # the packed hosted columns are what a materialised
            # sub-graph's column array held: hosted rows, in row order
            np.testing.assert_array_equal(
                s.hosted_cols64,
                np.concatenate([g.neighbors(v) for v in hosted]),
            )
            assert s.hosted_cols64.size == s.num_edges

    def test_values_travel(self, weighted_rmat):
        pr = RandomPartitioner(0).partition(weighted_rmat, 2)
        subs = build_subgraphs(weighted_rmat, pr, DUPLICATE_ALL)
        for s in subs:
            csr = s.csr
            assert csr.values is not None
            assert np.shares_memory(csr.values, weighted_rmat.values)
            hosted = np.flatnonzero(s.host_of_local == s.gpu_id)
            v = hosted[0]
            assert np.array_equal(
                csr.values[csr.starts64[v]:csr.ends64[v]],
                weighted_rmat.edge_values(v),
            )


class TestDuplicate1Hop:
    def test_hosted_first_then_proxies(self, gpart):
        g, pr = gpart
        subs = build_subgraphs(g, pr, DUPLICATE_1HOP)
        for s in subs:
            assert np.all(s.host_of_local[: s.num_hosted] == s.gpu_id)
            assert np.all(s.host_of_local[s.num_hosted:] != s.gpu_id)

    def test_proxies_are_exactly_remote_neighbors(self):
        g = from_edges(5, [(0, 1), (0, 2), (3, 4)])
        pr = pr_of([0, 0, 1, 1, 1], 2)
        subs = build_subgraphs(g, pr, DUPLICATE_1HOP)
        s0 = subs[0]
        # GPU0 hosts {0,1}; remote neighbor of those: {2}
        assert s0.num_hosted == 2
        assert s0.local_to_global.tolist() == [0, 1, 2]

    def test_edge_count_partition(self, gpart):
        g, pr = gpart
        subs = build_subgraphs(g, pr, DUPLICATE_1HOP)
        assert sum(s.num_edges for s in subs) == g.num_edges

    def test_proxies_have_no_edges(self, gpart):
        g, pr = gpart
        for s in build_subgraphs(g, pr, DUPLICATE_1HOP):
            deg = np.diff(s.csr.row_offsets)
            assert np.all(deg[s.num_hosted:] == 0)

    def test_memory_below_duplicate_all(self, gpart):
        """Section III-C: duplicate-1-hop uses less memory."""
        g, pr = gpart
        mem_all = sum(
            s.memory_bytes() for s in build_subgraphs(g, pr, DUPLICATE_ALL)
        )
        mem_1hop = sum(
            s.memory_bytes() for s in build_subgraphs(g, pr, DUPLICATE_1HOP)
        )
        assert mem_1hop < mem_all

    def test_adjacency_preserved_through_renumbering(self, gpart):
        g, pr = gpart
        subs = build_subgraphs(g, pr, DUPLICATE_1HOP)
        for s in subs:
            for lv in range(min(s.num_hosted, 10)):
                gv = s.local_to_global[lv]
                got = sorted(s.local_to_global[s.csr.neighbors(lv)].tolist())
                assert got == sorted(g.neighbors(gv).tolist())

    def test_host_local_id_is_conversion(self, gpart):
        g, pr = gpart
        subs = build_subgraphs(g, pr, DUPLICATE_1HOP)
        for s in subs:
            assert np.array_equal(
                s.host_local_id, pr.conversion_table[s.local_to_global]
            )

    def test_is_hosted_mask(self, gpart):
        g, pr = gpart
        s = build_subgraphs(g, pr, DUPLICATE_1HOP)[0]
        ids = np.arange(s.num_vertices)
        assert np.array_equal(s.is_hosted(ids), s.hosted_mask())


def _one_hop_by_sort(graph, part, gpu):
    """The sort-based formulation the O(n + m) 1-hop builder replaced:
    ``np.unique`` for the proxy set, ``searchsorted`` to renumber."""
    pt = part.partition_table
    hosted = part.hosted_by(gpu)
    deg = np.diff(graph.row_offsets).astype(np.int64)
    keep = np.repeat(pt == gpu, deg)
    dst = graph.col_indices[keep].astype(np.int64)
    remote = np.unique(dst[pt[dst] != gpu])
    local = pt[dst] == gpu
    cols = np.empty(dst.size, dtype=np.int64)
    cols[local] = part.conversion_table[dst[local]]
    cols[~local] = hosted.size + np.searchsorted(remote, dst[~local])
    offsets = np.zeros(hosted.size + remote.size + 1,
                       dtype=graph.ids.size_dtype)
    np.cumsum(
        np.concatenate([deg[hosted], np.zeros(remote.size, dtype=np.int64)]),
        out=offsets[1:],
    )
    l2g = np.concatenate([hosted, remote])
    return {
        "row_offsets": offsets,
        "col_indices": cols.astype(graph.ids.vertex_dtype),
        "values": None if graph.values is None else graph.values[keep],
        "local_to_global": l2g,
        "host_of_local": np.concatenate([
            np.full(hosted.size, gpu, dtype=np.int32),
            pt[remote].astype(np.int32),
        ]),
        "host_local_id": part.conversion_table[l2g].astype(np.int64),
    }


class TestOneHopEqualsSortFormulation:
    """Same arrays, same dtypes, field by field."""

    @pytest.mark.parametrize("num_gpus", [1, 2, 4])
    @pytest.mark.parametrize("graph_name", ["weighted_rmat", "small_road"])
    def test_fields_identical(self, graph_name, num_gpus, request):
        graph = request.getfixturevalue(graph_name)
        part = RandomPartitioner(7).partition(graph, num_gpus)
        self._compare(graph, part)

    def test_gpu_hosting_nothing(self, small_rmat):
        rng = np.random.default_rng(9)
        part = pr_of(rng.choice([0, 2], size=small_rmat.num_vertices), 3)
        self._compare(small_rmat, part)

    @staticmethod
    def _compare(graph, part):
        for sub in build_subgraphs(graph, part, DUPLICATE_1HOP):
            want = _one_hop_by_sort(graph, part, sub.gpu_id)
            got = {
                "row_offsets": sub.csr.row_offsets,
                "col_indices": sub.csr.col_indices,
                "values": sub.csr.values,
                "local_to_global": sub.local_to_global,
                "host_of_local": sub.host_of_local,
                "host_local_id": sub.host_local_id,
            }
            for name, ref in want.items():
                if ref is None:
                    assert got[name] is None
                    continue
                assert got[name].dtype == ref.dtype, name
                np.testing.assert_array_equal(got[name], ref, err_msg=name)


class TestValidation:
    def test_unknown_strategy(self, gpart):
        g, pr = gpart
        with pytest.raises(PartitionError):
            build_subgraphs(g, pr, "duplicate-2-hop")

    def test_size_mismatch(self, small_rmat):
        pr = pr_of([0, 1], 2)
        with pytest.raises(PartitionError):
            build_subgraphs(small_rmat, pr, DUPLICATE_ALL)

    def test_single_gpu_complete(self, small_rmat):
        pr = pr_of([0] * small_rmat.num_vertices, 1)
        (s,) = build_subgraphs(small_rmat, pr, DUPLICATE_1HOP)
        assert s.num_hosted == small_rmat.num_vertices
        assert s.num_edges == small_rmat.num_edges
