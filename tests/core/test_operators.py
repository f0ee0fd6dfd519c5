"""Frontier operators: advance (push/pull), filter, fusion, compute."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from repro.core.stats import OpStats
from repro.graph.build import from_edges
from repro.graph.csr import CsrGraph
from repro.types import ID32, ID64, IdConfig


@pytest.fixture
def diamond():
    """0 -> {1,2} -> 3, undirected."""
    return from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


class TestGather:
    def test_neighbors_and_sources(self, diamond):
        nbrs, srcs, vals = gather_neighbors(diamond, np.array([0]))
        assert sorted(nbrs.tolist()) == [1, 2]
        assert np.all(srcs == 0)
        assert vals is None

    def test_multi_vertex_frontier(self, diamond):
        nbrs, srcs, _ = gather_neighbors(diamond, np.array([1, 2]))
        assert sorted(nbrs.tolist()) == [0, 0, 3, 3]
        assert sorted(srcs.tolist()) == [1, 1, 2, 2]

    def test_values_follow_their_edges(self):
        g = from_edges(4, [(0, 1), (0, 2), (3, 1)], undirected=False,
                       values=[5.0, 7.0, 9.0])
        nbrs, srcs, vals = gather_neighbors(
            g, np.array([3, 0]), need_values=True
        )
        assert nbrs.tolist() == [1, 1, 2]
        assert srcs.tolist() == [3, 0, 0]
        assert vals.dtype == g.values.dtype
        assert vals.tolist() == [9.0, 5.0, 7.0]

    def test_empty_frontier(self, diamond):
        nbrs, srcs, _ = gather_neighbors(diamond, np.array([], np.int64))
        assert nbrs.size == srcs.size == 0

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
        """A caller that reads no sources gets none built; the neighbors
        are what they were."""
        frontier = np.array(frontier, np.int64)
        nbrs, srcs, _ = gather_neighbors(diamond, frontier)
        n2, none, _ = gather_neighbors(diamond, frontier, need_sources=False)
        assert none is None and srcs is not None
        assert np.array_equal(n2, nbrs)

    def test_unhosted_rows_gather_nothing(self, diamond):
        """A row view's unhosted row has no edges, although the graph's
        ``offsets64`` still spans the whole row there."""
        view = diamond.rows(np.array([False, True, False, False]))
        nbrs, srcs, _ = gather_neighbors(view, np.array([0, 1, 0, 3]))
        assert nbrs.tolist() == [0, 3]
        assert srcs.tolist() == [1, 1]


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
        fused, fsrc, fstats = fused_advance_filter(
            diamond, np.array([0]), labels.copy(), -1
        )
        nbrs, _, _, _ = advance_push(diamond, np.array([0]))
        unfused, _ = filter_unvisited(nbrs, labels.copy(), -1)
        assert np.array_equal(fused, unfused)

    def test_witness_sources_valid(self, diamond):
        labels = np.full(4, -1, np.int64)
        labels[0] = 0
        out, srcs, _ = fused_advance_filter(
            diamond, np.array([0]), labels, -1
        )
        assert sorted(out.tolist()) == [1, 2]
        assert np.all(srcs == 0)

    @given(
        degrees=st.lists(st.integers(0, 12), min_size=1, max_size=30),
        width=st.sampled_from((ID32, ID64)),
        view=st.booleans(),
        witness=st.booleans(),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_advance_then_filter(
        self, degrees, width, view, witness, seed, data
    ):
        """One fused kernel is ``advance_push`` -> ``filter_unvisited``
        -> ``first_witness`` with the two charges added field by field,
        one launch, less the neighbor list's streaming write+read: the
        same survivors and witnesses and every stats field equal, floats
        to the bit.  Without a witness no per-edge source array is
        built (no ``repeat``).  Both sub-graph kinds, both ID widths,
        empty frontiers, repeats, zero-degree and unhosted rows."""
        rng = np.random.default_rng(seed)
        n = len(degrees)
        offsets = np.concatenate([[0], np.cumsum(degrees)])
        cols = rng.integers(0, n, int(offsets[-1]))
        ids = IdConfig(width.vertex_dtype, width.size_dtype, np.float32)
        graph = CsrGraph(n, offsets, cols, ids=ids)
        held = rng.random(n) < data.draw(st.sampled_from((0.0, 0.6, 1.0)))
        csr = graph.rows(held) if view else graph
        frontier = np.array(
            data.draw(st.lists(st.integers(0, n - 1), max_size=40)),
            dtype=width.vertex_dtype,
        )
        labels = np.where(rng.random(n) < 0.4, 1, -1).astype(np.int64)
        ids_bytes = ids.vertex_bytes

        nbrs, srcs, _, a = advance_push(
            csr, frontier, ids_bytes=ids_bytes, need_sources=witness
        )
        want_out, f = filter_unvisited(nbrs, labels, -1, ids_bytes=ids_bytes)
        want_src = (first_witness(nbrs, srcs, want_out, n)
                    if witness else None)
        want = OpStats(
            name="advance+filter(fused)",
            input_size=a.input_size,
            output_size=f.output_size,
            edges_visited=a.edges_visited + f.edges_visited,
            vertices_processed=a.vertices_processed + f.vertices_processed,
            launches=a.launches,
            streaming_bytes=max(
                0.0,
                a.streaming_bytes + f.streaming_bytes
                - 2 * nbrs.size * ids_bytes,
            ),
            random_bytes=a.random_bytes + f.random_bytes,
            atomic_ops=a.atomic_ops + f.atomic_ops,
        )

        repeats = []

        def profiler(frame, event, arg):
            if event == "c_call" and arg.__name__ == "repeat":
                repeats.append(frame.f_code.co_name)

        sys.setprofile(profiler)
        try:
            out, w_src, stats = fused_advance_filter(
                csr, frontier, labels, -1, ids_bytes=ids_bytes,
                witness=witness,
            )
        finally:
            sys.setprofile(None)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, want_out)
        # the profiler sees the one repeat a witness needs
        assert repeats == (["gather_neighbors"] if witness else [])
        if witness:
            np.testing.assert_array_equal(w_src, want_src)
        else:
            assert w_src is None
        for name in vars(want):
            got_v, want_v = getattr(stats, name), getattr(want, name)
            assert type(got_v) is type(want_v), name
            if isinstance(want_v, float):
                assert got_v.hex() == want_v.hex(), name
            else:
                assert got_v == want_v, name

    def test_fewer_launches_and_bytes(self, diamond):
        labels = np.full(4, -1, np.int64)
        nbrs, _, _, a = advance_push(diamond, np.array([0]))
        _, f = filter_unvisited(nbrs, labels.copy(), -1)
        _, _, fused = fused_advance_filter(
            diamond, np.array([0]), labels.copy(), -1
        )
        assert fused.launches < a.launches + f.launches
        assert fused.streaming_bytes < a.streaming_bytes + f.streaming_bytes

    def test_first_witness_lowest_edge(self):
        nbrs = np.array([5, 3, 5, 5])
        srcs = np.array([4, 0, 2, 3])
        # the first occurrence in gather order wins: srcs[0]
        w_src = first_witness(nbrs, srcs, np.array([5]), 6)
        assert w_src.tolist() == [4]

    def test_first_witness_empty(self):
        w_src = first_witness(
            np.array([1]), np.array([0]), np.array([], np.int64), 2
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


# -- the push gather equals the NumPy gather it replaced ---------------------


def _gather_reference(csr, frontier):
    """The NumPy gather ``csr_row_index`` replaced: every edge's index is
    a repeat of its row's base plus an ``arange``, and the columns,
    sources and values are read through it."""
    frontier = np.asarray(frontier, dtype=np.int64)
    starts = csr.starts64[frontier]
    counts = csr.ends64[frontier] - starts
    seg_base = np.repeat(starts + counts - np.cumsum(counts), counts)
    edge_idx = seg_base + np.arange(int(counts.sum()), dtype=np.int64)
    return (csr.cols64[edge_idx], np.repeat(frontier, counts),
            csr.values[edge_idx])


def _assert_gather_equals_reference(csr, frontier):
    want_nbrs, want_srcs, want_vals = _gather_reference(csr, frontier)
    for need_sources in (False, True):
        for need_values in (False, True):
            nbrs, srcs, vals = gather_neighbors(
                csr, frontier, need_sources=need_sources,
                need_values=need_values,
            )
            assert nbrs.dtype == np.int64
            np.testing.assert_array_equal(nbrs, want_nbrs)
            if need_sources:
                np.testing.assert_array_equal(srcs, want_srcs)
            else:
                assert srcs is None
            if need_values:
                assert vals.dtype == csr.values.dtype
                np.testing.assert_array_equal(vals, want_vals)
            else:
                assert vals is None


class TestGatherEqualsNumpyGather:
    @given(
        degrees=st.lists(st.integers(0, 12), min_size=1, max_size=30),
        width=st.sampled_from((ID32, ID64)),
        value_dtype=st.sampled_from((np.float32, np.float64)),
        view=st.booleans(),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_property(self, degrees, width, value_dtype, view, seed, data):
        """Both sub-graph kinds, a frontier with repeats, zero-degree and
        (for a row view) unhosted rows, and rows whose columns repeat.
        A view holds no row, some rows or every row, and its packed
        columns are the materialised CSR's column array."""
        rng = np.random.default_rng(seed)
        n = len(degrees)
        offsets = np.concatenate([[0], np.cumsum(degrees)])
        # columns from at most four vertices: multi-edges in most rows
        cols = rng.integers(0, min(n, 4), int(offsets[-1]))
        ids = IdConfig(width.vertex_dtype, width.size_dtype, value_dtype)
        graph = CsrGraph(n, offsets, cols, rng.random(cols.size) * 64,
                         ids=ids)
        held = rng.random(n) < data.draw(st.sampled_from((0.0, 0.6, 1.0)))
        csr = graph.rows(held) if view else graph
        packed = csr.packed_cols64()
        want = [cols[offsets[v]:offsets[v + 1]]
                for v in range(n) if held[v] or not view]
        np.testing.assert_array_equal(
            packed, np.concatenate([np.empty(0, np.int64)] + want))
        assert packed.dtype == np.int64
        assert not (view and packed.flags.writeable)
        frontier = np.array(
            data.draw(st.lists(st.integers(0, n - 1), max_size=40)),
            dtype=width.vertex_dtype,
        )
        _assert_gather_equals_reference(csr, frontier)

    def test_duplicate_all_views_of_rmat(self, small_rmat):
        from repro.graph.build import add_random_weights
        from repro.partition import PartitionResult, build_subgraphs
        from repro.partition.duplication import DUPLICATE_ALL

        graph = add_random_weights(small_rmat, 1, 64, seed=2)
        rng = np.random.default_rng(5)
        n = graph.num_vertices
        part = PartitionResult.from_assignment(
            rng.integers(0, 3, n).astype(np.int32), 3
        )
        subs = build_subgraphs(graph, part, DUPLICATE_ALL)
        for csr in [graph] + [sub.csr for sub in subs]:
            for density in (0.0, 0.01, 0.2, 1.0):
                frontier = np.flatnonzero(rng.random(n) < density)
                _assert_gather_equals_reference(csr, frontier)


# -- the pull reads only what it charges for ----------------------------------


def _pull_reference(csr, candidates, in_frontier, ids_bytes=4):
    """The full gather: every column of every candidate is read, then
    each row keeps its first hit.  ``advance_pull`` must return exactly
    this, stats included."""
    candidates = np.asarray(candidates, dtype=np.int64)
    n_candidates = int(candidates.size)
    starts = csr.starts64[candidates]
    counts = csr.ends64[candidates] - starts
    nonzero = counts > 0
    cand, starts, counts = candidates[nonzero], starts[nonzero], counts[nonzero]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), OpStats(
            name="advance-pull",
            input_size=n_candidates,
            vertices_processed=n_candidates,
            launches=1,
            streaming_bytes=n_candidates * ids_bytes,
            random_bytes=2 * n_candidates * ids_bytes,
        )
    seg = np.concatenate([[0], np.cumsum(counts)[:-1]])
    edge_idx = np.repeat(starts - seg, counts) + np.arange(total)
    neighbors = csr.cols64[edge_idx]
    pos = np.arange(total) - np.repeat(seg, counts)
    first = np.minimum.reduceat(
        np.where(in_frontier[neighbors], pos, np.iinfo(np.int64).max), seg
    )
    found = first != np.iinfo(np.int64).max
    discovered = cand[found]
    parents = neighbors[seg[found] + first[found]]
    scanned = int(np.where(found, first + 1, counts).sum())
    size_bytes = csr.ids.size_bytes
    return discovered, parents, OpStats(
        name="advance-pull",
        input_size=n_candidates,
        output_size=int(discovered.size),
        edges_visited=scanned,
        vertices_processed=n_candidates,
        launches=1,
        streaming_bytes=(n_candidates + discovered.size) * ids_bytes,
        random_bytes=2 * n_candidates * size_bytes
        + scanned * (ids_bytes + 0.75 * size_bytes + 1),
    )


def _assert_pull_equals_reference(csr, candidates, in_frontier):
    disc, parents, stats = advance_pull(csr, candidates, in_frontier)
    want_disc, want_parents, want_stats = _pull_reference(
        csr, candidates, in_frontier
    )
    assert disc.dtype == parents.dtype == np.int64
    np.testing.assert_array_equal(disc, want_disc)
    np.testing.assert_array_equal(parents, want_parents)
    assert vars(stats) == vars(want_stats)
    assert {k: type(v) for k, v in vars(stats).items()} == \
        {k: type(v) for k, v in vars(want_stats).items()}


#: row lengths on the chunk boundaries: rounds read columns [0, 2),
#: [2, 10), [10, 42), [42, 170) ...
CHUNK_EDGE_DEGREES = (1, 2, 3, 10, 11, 42, 43)
_HIT_MODES = ("random", "none", "first", "hub-last", "all-zero", "empty")


def _csr_of_degrees(degrees, num_vertices, rng):
    offsets = np.concatenate([[0], np.cumsum(degrees)])
    cols = rng.integers(0, num_vertices, int(offsets[-1]))
    return CsrGraph(num_vertices, offsets, cols)


def _pull_case(degrees, mode, seed, view):
    """A graph of the given row lengths (a ``CsrRows`` view when
    ``view``), candidates and a frontier mask shaped by ``mode``."""
    rng = np.random.default_rng(seed)
    n = len(degrees)
    graph = _csr_of_degrees(degrees, n, rng)
    csr = graph.rows(rng.random(n) < 0.7) if view else graph
    deg = csr.ends64 - csr.starts64
    candidates = np.flatnonzero(rng.random(n) < 0.6)
    in_frontier = rng.random(n) < 0.15
    if mode == "empty":
        candidates = candidates[:0]
    elif mode == "all-zero":
        candidates = np.flatnonzero(deg == 0)
    elif mode == "none":
        in_frontier[:] = False
    elif mode == "first":
        in_frontier[:] = False
        held = candidates[deg[candidates] > 0]
        in_frontier[csr.cols64[csr.starts64[held]]] = True
    elif mode == "hub-last":
        hub = int(deg.argmax())
        candidates = np.union1d(candidates, [hub])
        in_frontier[:] = False
        if deg[hub]:
            in_frontier[csr.cols64[csr.ends64[hub] - 1]] = True
    return csr, candidates.astype(np.int64), in_frontier


class TestAdvancePullEqualsFullGather:
    @given(
        degrees=st.lists(
            st.one_of(st.sampled_from((0,) + CHUNK_EDGE_DEGREES),
                      st.integers(0, 60)),
            min_size=1, max_size=40,
        ),
        mode=st.sampled_from(_HIT_MODES),
        seed=st.integers(0, 2**16),
        view=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_property(self, degrees, mode, seed, view):
        _assert_pull_equals_reference(*_pull_case(degrees, mode, seed, view))

    @pytest.mark.parametrize("view", [False, True])
    @pytest.mark.parametrize("hub", CHUNK_EDGE_DEGREES)
    def test_hit_only_at_the_hubs_last_column(self, hub, view):
        """A hub row of a chunk-boundary length whose one hit is its
        last column: it scans (and is charged for) the whole row."""
        n = 64
        cols = np.arange(1, hub + 1)  # distinct columns
        offsets = np.concatenate([[0, hub], np.full(n - 1, hub)])
        graph = CsrGraph(n, offsets, cols)
        csr = graph.rows(np.ones(n, bool)) if view else graph
        in_frontier = np.zeros(n, bool)
        in_frontier[hub] = True
        disc, parents, stats = advance_pull(csr, np.array([0]), in_frontier)
        assert disc.tolist() == [0] and parents.tolist() == [hub]
        assert stats.edges_visited == hub
        _assert_pull_equals_reference(csr, np.array([0, 1, 2]), in_frontier)

    def test_duplicate_all_views_of_rmat(self, small_rmat):
        from repro.partition import PartitionResult, build_subgraphs
        from repro.partition.duplication import DUPLICATE_ALL

        rng = np.random.default_rng(5)
        n = small_rmat.num_vertices
        part = PartitionResult.from_assignment(
            rng.integers(0, 3, n).astype(np.int32), 3
        )
        for sub in build_subgraphs(small_rmat, part, DUPLICATE_ALL):
            for density in (0.0, 0.01, 0.2, 1.0):
                in_frontier = rng.random(n) < density
                candidates = np.flatnonzero(rng.random(n) < 0.5)
                _assert_pull_equals_reference(sub.csr, candidates, in_frontier)
