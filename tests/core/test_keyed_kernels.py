"""Each linear-time keyed kernel against the formulation it replaced.

``repro.core.operators.compute`` swaps sorts, hashes and whole-list
``ufunc.at`` calls for scatters into the bounded vertex domain.  Every
kernel here is compared with the NumPy idiom the hooks used before
(``np.unique``, ``np.minimum.at`` / ``np.add.at`` over all items, stable
``argsort`` + ``searchsorted``) on hypothesis-drawn inputs that include
duplicate keys, all-equal keys, ``±inf``, ties, ``n = 1`` and empty
input.  Every result is held to the same bits as the idiom it
replaced: ``segment_reduce_sum`` *is* ``np.add.at``, and
``segment_reduce_min`` runs one ``np.minimum.at`` over all items, so
its float results match to the last bit, signed zeros included, and its
dropped keys are exactly the distinct keys whose value fell.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.comm import split_frontier
from repro.core.operators import (
    dedup,
    filter_unvisited,
    member_mask,
    segment_first,
    segment_reduce_min,
    segment_reduce_sum,
    unique_vertices,
)
from repro.core.operators.fused import first_witness
from repro.graph.generators import generate_rmat
from repro.partition import DUPLICATE_1HOP, DUPLICATE_ALL, build_subgraphs
from repro.partition.base import PartitionResult

SETTINGS = settings(max_examples=120, deadline=None)

_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=True, width=64),
    st.sampled_from([0.0, 1.0, 2.0, np.inf, -np.inf]),  # ties are likely
)


@st.composite
def keyed_items(draw, values=_FLOATS, min_items=0):
    """``(n, keys, values)``: keys in ``[0, n)``, duplicates likely."""
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=min_items, max_value=40))
    if draw(st.booleans()):
        keys = [draw(st.integers(0, n - 1))] * m  # all-equal keys
    else:
        keys = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    vals = draw(st.lists(values, min_size=m, max_size=m))
    return n, np.array(keys, dtype=np.int64), np.array(vals, dtype=np.float64)


def _same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    # signed zeros and every finite bit
    finite = ~np.isnan(a)
    assert a[finite].tobytes() == b[finite].tobytes()


# -- dedup == np.unique ---------------------------------------------------

@SETTINGS
@given(keyed_items())
def test_dedup_equals_unique(item):
    n, keys, _ = item
    want = np.unique(keys)
    got = dedup(keys, n)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    got, _stats = unique_vertices(keys, n)
    np.testing.assert_array_equal(got, want)


@SETTINGS
@given(keyed_items(), st.data())
def test_filter_unvisited_equals_unique_of_unvisited(item, data):
    n, keys, _ = item
    labels = np.array(
        data.draw(st.lists(st.sampled_from([-1, 0, 3]), min_size=n,
                           max_size=n)),
        dtype=np.int64,
    )
    want = np.unique(keys[labels[keys] == -1])
    got, stats = filter_unvisited(keys, labels, -1)
    np.testing.assert_array_equal(got, want)
    assert (stats.input_size, stats.output_size) == (keys.size, want.size)


# -- member_mask == np.isin -------------------------------------------------

@SETTINGS
@given(keyed_items(), st.data())
def test_member_mask_equals_isin(item, data):
    n, probe, _ = item
    members = np.array(
        data.draw(st.lists(st.integers(0, n - 1), max_size=n)),
        dtype=np.int64,
    )
    got = member_mask(probe, members, n)
    assert got.dtype == np.bool_
    np.testing.assert_array_equal(got, np.isin(probe, members))


# -- segment_reduce_min == np.minimum.at ------------------------------------

@st.composite
def reduce_min_cases(draw):
    """``(keys, values, start)``: keyed items and the array they hit."""
    n, keys, vals = draw(keyed_items())
    start = draw(st.lists(_FLOATS, min_size=n, max_size=n))
    return keys, vals, np.array(start, dtype=np.float64)


@SETTINGS
@given(reduce_min_cases())
# a -0.0 offered to a +0.0 slot: equal, so not dropped, but whatever
# minimum.at stores the kernel stores too
@example((np.array([0]), np.array([-0.0]), np.array([0.0])))
def test_segment_reduce_min_equals_minimum_at(case):
    keys, vals, start = case
    want = start.copy()
    np.minimum.at(want, keys, vals)
    got = start.copy()
    dropped = segment_reduce_min(keys, vals, got)
    assert got.dtype == want.dtype
    # the same bits: an integer view tells -0.0 from +0.0
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    # SSSP's next frontier: the distinct keys whose value fell, ascending
    improved = np.unique(keys[want[keys] < start[keys]])
    assert dropped.dtype == improved.dtype
    np.testing.assert_array_equal(dropped, improved)


@SETTINGS
@given(keyed_items(values=st.integers(-5, 5).map(float)), st.data())
def test_segment_reduce_min_integer_labels(item, data):
    """CC's use: an integer component array min-hooked along edges."""
    n, keys, vals = item
    start = np.array(
        data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)),
        dtype=np.int32,
    )
    vals = vals.astype(np.int32)
    want = start.copy()
    np.minimum.at(want, keys, vals)
    got = start.copy()
    segment_reduce_min(keys, vals, got)
    _same_bits(got, want)


# -- segment_reduce_sum == np.add.at ----------------------------------------

@SETTINGS
@given(keyed_items(), st.data())
def test_segment_reduce_sum_equals_add_at(item, data):
    n, keys, vals = item
    start = np.array(
        data.draw(st.lists(_FLOATS, min_size=n, max_size=n)), dtype=np.float64
    )
    with np.errstate(invalid="ignore"):  # inf + -inf
        want = start.copy()
        np.add.at(want, keys, vals)
        got = start.copy()
        segment_reduce_sum(keys, vals, got)
    _same_bits(got, want)


# -- first witness == stable argsort + searchsorted -------------------------

def _first_witness_by_sort(neighbors, sources, survivors):
    """The formulation first_witness replaced."""
    order = np.argsort(neighbors, kind="stable")
    first_pos = order[
        np.searchsorted(neighbors[order], survivors, side="left")
    ]
    return sources[first_pos]


@SETTINGS
@given(keyed_items(min_items=1), st.data())
def test_first_witness_lowest_position_wins(item, data):
    n, neighbors, _ = item
    m = neighbors.size
    # distinct sources: the witness names the position it came from
    sources = np.array(
        data.draw(st.permutations(list(range(m)))), dtype=np.int64
    )
    present = np.unique(neighbors)
    keep = data.draw(st.lists(st.booleans(), min_size=present.size,
                              max_size=present.size))
    survivors = present[np.array(keep, dtype=bool)]
    if survivors.size:
        want = _first_witness_by_sort(neighbors, sources, survivors)
    else:
        want = np.empty(0, np.int64)
    w_src = first_witness(neighbors, sources, survivors, n)
    np.testing.assert_array_equal(w_src, want)


@SETTINGS
@given(keyed_items(values=st.integers(0, 1000).map(float), min_items=1))
def test_segment_first_lowest_rank_per_key(item):
    n, keys, ranks = item
    ranks = ranks.astype(np.int64)
    targets = np.unique(keys)
    want = np.array([ranks[keys == t].min() for t in targets])
    got = segment_first(keys, ranks, targets, n)
    np.testing.assert_array_equal(got, want)
    # a subset of targets: the caller drops the other keys' items
    mine = np.isin(keys, targets[::2])
    got = segment_first(keys[mine], ranks[mine], targets[::2], n)
    np.testing.assert_array_equal(got, want[::2])


# -- split_frontier's owner presence == np.unique(hosts) --------------------

@pytest.fixture(scope="module")
def split_subgraphs():
    graph = generate_rmat(7, 6, seed=4)
    rng = np.random.default_rng(9)
    # GPU 2 hosts nothing: an owner that is never present
    part = PartitionResult.from_assignment(
        rng.choice([0, 1, 3, 4], size=graph.num_vertices), 5
    )
    return {
        strategy: build_subgraphs(graph, part, strategy)
        for strategy in (DUPLICATE_ALL, DUPLICATE_1HOP)
    }


@SETTINGS
@given(st.data())
def test_split_frontier_peers_equal_unique_hosts(split_subgraphs, data):
    strategy = data.draw(st.sampled_from([DUPLICATE_ALL, DUPLICATE_1HOP]))
    sub = split_subgraphs[strategy][data.draw(st.sampled_from([0, 1, 3, 4]))]
    frontier = np.array(
        data.draw(st.lists(st.integers(0, sub.num_vertices - 1), max_size=60)),
        dtype=np.int64,
    )
    local, remote, stats = split_frontier(sub, frontier)
    hosts = sub.host_of_local[frontier]
    want_peers = np.unique(hosts[hosts != sub.gpu_id]).tolist()
    assert list(remote) == want_peers  # ascending, like the sorted unique
    np.testing.assert_array_equal(local, frontier[hosts == sub.gpu_id])
    for peer in want_peers:
        np.testing.assert_array_equal(remote[peer], frontier[hosts == peer])
    assert stats.input_size == frontier.size
