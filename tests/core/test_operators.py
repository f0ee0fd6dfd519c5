"""Frontier operators: advance (push/pull), filter, fusion, compute."""

import numpy as np
import pytest

from repro.core.operators import (
    advance_pull,
    advance_push,
    compute_op,
    filter_predicate,
    filter_unvisited,
    fused_advance_filter,
    gather_neighbors,
    segment_reduce_min,
    segment_reduce_sum,
    unique_vertices,
)
from repro.core.operators.fused import first_witness
from repro.graph.build import from_edges


@pytest.fixture
def diamond():
    """0 -> {1,2} -> 3, undirected."""
    return from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


class TestGather:
    def test_neighbors_and_sources(self, diamond):
        nbrs, srcs, eidx = gather_neighbors(diamond, np.array([0]))
        assert sorted(nbrs.tolist()) == [1, 2]
        assert np.all(srcs == 0)

    def test_multi_vertex_frontier(self, diamond):
        nbrs, srcs, eidx = gather_neighbors(diamond, np.array([1, 2]))
        assert sorted(nbrs.tolist()) == [0, 0, 3, 3]
        assert sorted(srcs.tolist()) == [1, 1, 2, 2]

    def test_edge_indices_valid(self, diamond):
        nbrs, srcs, eidx = gather_neighbors(diamond, np.array([0, 3]))
        assert np.array_equal(diamond.col_indices[eidx], nbrs)

    def test_empty_frontier(self, diamond):
        nbrs, srcs, eidx = gather_neighbors(diamond, np.array([], np.int64))
        assert nbrs.size == srcs.size == eidx.size == 0

    def test_isolated_vertex(self):
        g = from_edges(3, [(0, 1)])
        nbrs, _, _ = gather_neighbors(g, np.array([2]))
        assert nbrs.size == 0

    def test_duplicate_frontier_entries(self, diamond):
        """A vertex appearing twice is expanded twice (GPU semantics)."""
        nbrs, _, _ = gather_neighbors(diamond, np.array([0, 0]))
        assert nbrs.size == 4

    @pytest.mark.parametrize("frontier", [[0, 3], [1, 1, 2], []])
    def test_sources_skipped_on_request(self, diamond, frontier):
        """A caller that reads no sources gets none built; neighbors and
        edge indices are what they were."""
        frontier = np.array(frontier, np.int64)
        nbrs, srcs, eidx = gather_neighbors(diamond, frontier)
        n2, none, e2 = gather_neighbors(diamond, frontier, need_sources=False)
        assert none is None and srcs is not None
        assert np.array_equal(n2, nbrs) and np.array_equal(e2, eidx)


class TestAdvancePush:
    def test_output_and_stats(self, diamond):
        nbrs, srcs, eidx, st = advance_push(diamond, np.array([0]))
        assert st.edges_visited == 2
        assert st.input_size == 1
        assert st.output_size == 2
        assert st.launches == 1

    def test_stats_traffic_nonzero(self, diamond):
        _, _, _, st = advance_push(diamond, np.array([0, 1]))
        assert st.streaming_bytes > 0
        assert st.random_bytes > 0


class TestAdvancePull:
    def test_finds_parents(self, diamond):
        in_frontier = np.zeros(4, bool)
        in_frontier[0] = True
        disc, parents, st = advance_pull(
            diamond, np.array([1, 2, 3]), in_frontier
        )
        assert sorted(disc.tolist()) == [1, 2]
        assert np.all(parents == 0)

    def test_edge_skipping_counts_scanned_only(self):
        """A candidate stops scanning at its first hit."""
        g = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        in_frontier = np.zeros(5, bool)
        in_frontier[1] = True  # vertex 0's first (sorted) neighbor
        disc, parents, st = advance_pull(g, np.array([0]), in_frontier)
        assert disc.tolist() == [0]
        assert st.edges_visited == 1  # stopped after the first edge

    def test_no_hit_scans_everything(self):
        g = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        in_frontier = np.zeros(5, bool)
        disc, parents, st = advance_pull(g, np.array([0]), in_frontier)
        assert disc.size == 0
        assert st.edges_visited == 4

    def test_deterministic_first_parent(self):
        g = from_edges(4, [(3, 0), (3, 1), (3, 2)])
        in_frontier = np.ones(4, bool)
        disc, parents, _ = advance_pull(g, np.array([3]), in_frontier)
        assert parents.tolist() == [0]  # lowest-id neighbor wins

    def test_zero_degree_candidates(self):
        g = from_edges(3, [(0, 1)])
        in_frontier = np.ones(3, bool)
        disc, parents, st = advance_pull(g, np.array([2]), in_frontier)
        assert disc.size == 0

    def test_empty_candidates(self, diamond):
        disc, parents, st = advance_pull(
            diamond, np.array([], np.int64), np.zeros(4, bool)
        )
        assert disc.size == 0
        assert st.edges_visited == 0


class TestFilters:
    def test_filter_unvisited_dedups(self):
        labels = np.array([0, -1, -1, 5])
        out, st = filter_unvisited(np.array([1, 2, 1, 0, 3]), labels, -1)
        assert out.tolist() == [1, 2]
        assert st.input_size == 5
        assert st.output_size == 2

    def test_filter_unvisited_empty(self):
        out, st = filter_unvisited(np.array([], np.int64), np.array([-1]), -1)
        assert out.size == 0

    def test_filter_predicate(self):
        out, st = filter_predicate(
            np.array([1, 2, 3, 4]), lambda v: v % 2 == 0
        )
        assert out.tolist() == [2, 4]

    def test_filter_predicate_shape_check(self):
        with pytest.raises(ValueError):
            filter_predicate(np.array([1, 2]), lambda v: np.array([True]))

    def test_unique(self):
        out, st = unique_vertices(np.array([3, 1, 3, 2, 1]), 4)
        assert out.tolist() == [1, 2, 3]


class TestFusion:
    def test_same_output_as_unfused(self, diamond):
        labels = np.full(4, -1, np.int64)
        labels[0] = 0
        fused, fsrc, _, fstats = fused_advance_filter(
            diamond, np.array([0]), labels.copy(), -1
        )
        nbrs, srcs, eidx, _ = advance_push(diamond, np.array([0]))
        unfused, _ = filter_unvisited(nbrs, labels.copy(), -1)
        assert np.array_equal(fused, unfused)

    def test_witness_sources_valid(self, diamond):
        labels = np.full(4, -1, np.int64)
        labels[0] = 0
        out, srcs, eidx, _ = fused_advance_filter(
            diamond, np.array([0]), labels, -1
        )
        assert np.all(srcs == 0)
        assert np.array_equal(diamond.col_indices[eidx], out)

    def test_no_witness_same_survivors_and_stats(self, diamond, monkeypatch):
        """``witness=False`` (BFS without predecessors) asks the advance
        for no per-edge source array and changes nothing else."""
        from repro.core.operators import fused as fused_mod

        asked = []
        real = fused_mod.advance_push

        def spy(*args, **kwargs):
            asked.append(kwargs.get("need_sources", True))
            out = real(*args, **kwargs)
            assert (out[1] is None) == (not asked[-1])
            return out

        monkeypatch.setattr(fused_mod, "advance_push", spy)
        labels = np.full(4, -1, np.int64)
        labels[0] = 0
        with_w = fused_advance_filter(diamond, np.array([0, 0]), labels, -1)
        without = fused_advance_filter(
            diamond, np.array([0, 0]), labels, -1, witness=False
        )
        assert asked == [True, False]
        assert np.array_equal(without[0], with_w[0])
        assert without[1] is None and without[2] is None
        assert without[3] == with_w[3]

    def test_fewer_launches_and_bytes(self, diamond):
        labels = np.full(4, -1, np.int64)
        nbrs, srcs, eidx, a = advance_push(diamond, np.array([0]))
        _, f = filter_unvisited(nbrs, labels.copy(), -1)
        _, _, _, fused = fused_advance_filter(
            diamond, np.array([0]), labels.copy(), -1
        )
        assert fused.launches < a.launches + f.launches
        assert fused.streaming_bytes < a.streaming_bytes + f.streaming_bytes

    def test_first_witness_lowest_edge(self):
        nbrs = np.array([5, 5, 5])
        srcs = np.array([1, 2, 3])
        eidx = np.array([10, 7, 20])
        # stable sort by neighbor keeps input order; first occurrence = srcs[0]
        w_src, w_edge = first_witness(nbrs, srcs, eidx, np.array([5]), 6)
        assert w_src.tolist() == [1]
        assert w_edge.tolist() == [10]

    def test_first_witness_empty(self):
        w_src, w_edge = first_witness(
            np.array([1]), np.array([0]), np.array([0]), np.array([], np.int64),
            2,
        )
        assert w_src.size == 0


class TestCompute:
    def test_side_effects_applied(self):
        acc = np.zeros(5)

        def bump(front):
            acc[front] += 1.0

        out, st = compute_op(np.array([1, 3]), bump)
        assert acc.tolist() == [0, 1, 0, 1, 0]
        assert st.vertices_processed == 2

    def test_atomic_flag(self):
        _, st = compute_op(np.array([0]), lambda v: None, atomic=True)
        assert st.atomic_ops == 1.0

    def test_segment_reduce_min(self):
        out = np.array([10.0, 10.0])
        segment_reduce_min(np.array([0, 0, 1]), np.array([5.0, 7.0, 12.0]), out)
        assert out.tolist() == [5.0, 10.0]

    def test_segment_reduce_sum(self):
        out = np.zeros(2)
        segment_reduce_sum(np.array([0, 0, 1]), np.array([1.0, 2.0, 3.0]), out)
        assert out.tolist() == [3.0, 3.0]

    def test_reduce_empty_keys(self):
        out = np.array([1.0])
        segment_reduce_min(np.array([], np.int64), np.array([]), out)
        assert out.tolist() == [1.0]
