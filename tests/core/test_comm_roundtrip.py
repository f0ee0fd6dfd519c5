"""Satellite 3: property-based round-trip of the split/package pipeline.

For arbitrary small graphs, partitions, duplication strategies and
frontiers, ``split_frontier`` + ``make_selective_messages`` must
conserve the frontier exactly: the local part plus every packaged
message, mapped through ``host_local_id`` into each receiver's numbering
and back to global IDs, is a permutation of the original frontier — no
vertex lost, none duplicated, every one delivered to its hosting GPU —
and the gathered associate values ride along unchanged.

``split_frontier`` itself is one stable counting partition by owner; the
second half of the file holds it, for every frontier shape a run can
produce, to the reference ``{p: frontier[hosts == p]}`` (``test_comm``'s
``_general_split``): equal parts in input order, ascending Python-int
keys, equal ``OpStats``.
"""

from dataclasses import asdict

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.comm import make_selective_messages, split_frontier
from repro.graph.build import from_edges
from repro.partition import DUPLICATE_1HOP, DUPLICATE_ALL, build_subgraphs
from repro.partition.base import PartitionResult

from .test_comm import _general_split


@st.composite
def split_cases(draw):
    """A random (graph, partition, strategy, gpu, frontier) instance."""
    n = draw(st.integers(min_value=2, max_value=24))
    num_edges = draw(st.integers(min_value=0, max_value=60))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    edges = [(u, v) for u, v in pairs if u != v]
    graph = from_edges(n, edges)
    num_gpus = draw(st.integers(min_value=1, max_value=4))
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_gpus - 1),
            min_size=n,
            max_size=n,
        )
    )
    part = PartitionResult.from_assignment(np.array(assignment), num_gpus)
    strategy = draw(st.sampled_from([DUPLICATE_ALL, DUPLICATE_1HOP]))
    subs = build_subgraphs(graph, part, strategy)
    gpu = draw(st.integers(min_value=0, max_value=num_gpus - 1))
    sub = subs[gpu]
    # a duplicate-free frontier in this GPU's local index space (a GPU
    # hosting nothing under duplicate-1-hop may have no local vertices)
    if sub.num_vertices == 0:
        frontier = []
    else:
        frontier = draw(
            st.lists(
                st.integers(min_value=0, max_value=sub.num_vertices - 1),
                max_size=sub.num_vertices,
                unique=True,
            )
        )
    return subs, gpu, np.array(sorted(frontier), dtype=np.int64)


@given(split_cases())
@settings(max_examples=120, deadline=None)
def test_split_package_round_trip(case):
    subs, gpu, frontier = case
    sub = subs[gpu]
    # per-local-vertex associates: the global ID (vertex associate) and a
    # distinctive float keyed on the global ID (value associate)
    vertex_assoc = sub.local_to_global.copy()
    value_assoc = sub.local_to_global.astype(np.float64) * 0.5 + 0.25

    local, remote, _ = split_frontier(sub, frontier)
    messages, _ = make_selective_messages(
        sub, remote, [vertex_assoc], [value_assoc]
    )

    # the local part is exactly the hosted subset of the frontier
    assert np.array_equal(
        np.sort(local), frontier[sub.is_hosted(frontier)]
    )
    # each remote sub-frontier targets the hosting GPU of its vertices
    for peer, local_ids in remote.items():
        assert peer != gpu
        assert np.all(sub.host_of_local[local_ids] == peer)

    # round trip: sender-local -> receiver-local -> global must equal
    # sender-local -> global, message by message
    delivered_globals = []
    for msg in messages:
        receiver = subs[msg.dst_gpu]
        got = receiver.local_to_global[msg.vertices]
        expected = sub.local_to_global[remote[msg.dst_gpu]]
        assert np.array_equal(got, expected)
        # the receiver hosts every vertex it is sent
        assert np.all(receiver.host_of_local[msg.vertices] == msg.dst_gpu)
        # associates were gathered from the sent vertices, in order
        assert np.array_equal(msg.vertex_associates[0], expected)
        assert np.array_equal(
            msg.value_associates[0], expected.astype(np.float64) * 0.5 + 0.25
        )
        delivered_globals.append(got)

    # conservation: local + delivered = the original frontier, exactly
    # once each (no loss, no duplication)
    pieces = [sub.local_to_global[local]] + delivered_globals
    union = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
    assert np.array_equal(
        np.sort(union), np.sort(sub.local_to_global[frontier])
    )
    assert np.unique(union).size == union.size


@given(split_cases())
@settings(max_examples=60, deadline=None)
def test_split_is_a_partition_of_the_frontier(case):
    subs, gpu, frontier = case
    sub = subs[gpu]
    local, remote, _ = split_frontier(sub, frontier)
    sizes = local.size + sum(ids.size for ids in remote.values())
    assert sizes == frontier.size
    all_ids = np.concatenate(
        [local] + list(remote.values())
        if remote else [local]
    )
    assert set(all_ids.tolist()) == set(frontier.tolist())


# -- split_frontier is one stable partition by owner -------------------------

@st.composite
def partition_cases(draw):
    """(sub-graph, frontier) with the frontier drawn from one of the
    shapes a run produces: any mix (unsorted, duplicated), empty,
    all-local, all-remote, or everything owned by a single peer."""
    n = draw(st.integers(min_value=6, max_value=40))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=n, max_size=4 * n,
    ))
    graph = from_edges(n, [(u, v) for u, v in pairs if u != v])
    num_gpus = draw(st.integers(min_value=1, max_value=6))
    assignment = np.array(draw(st.lists(
        st.integers(0, num_gpus - 1), min_size=n, max_size=n,
    )))
    strategy = draw(st.sampled_from([DUPLICATE_ALL, DUPLICATE_1HOP]))
    subs = build_subgraphs(
        graph, PartitionResult.from_assignment(assignment, num_gpus), strategy
    )
    sub = subs[draw(st.integers(0, num_gpus - 1))]
    local_ids = np.arange(sub.num_vertices)
    peers = np.unique(sub.host_of_local[sub.host_of_local != sub.gpu_id])
    shape = draw(st.sampled_from(
        ["any", "empty", "all-local", "all-remote", "single-peer"]
    ))
    if shape == "all-local":
        pool = local_ids[sub.host_of_local == sub.gpu_id]
    elif shape == "all-remote":
        pool = local_ids[sub.host_of_local != sub.gpu_id]
    elif shape == "single-peer" and peers.size:
        pool = local_ids[sub.host_of_local == draw(st.sampled_from(
            peers.tolist()
        ))]
    else:
        pool = local_ids
    if shape == "empty" or pool.size == 0:
        picks = []
    else:
        picks = draw(st.lists(st.integers(0, pool.size - 1), max_size=80))
    return sub, pool[picks].astype(np.int64), draw(st.sampled_from([4, 8]))


@given(partition_cases())
@settings(max_examples=200, deadline=None)
def test_split_equals_one_mask_per_owner(case):
    sub, frontier, ids_bytes = case
    local, remote, stats = split_frontier(sub, frontier, ids_bytes)
    w_local, w_remote, w_stats = _general_split(sub, frontier, ids_bytes)
    # every part is the frontier's items of that owner, in input order:
    # packaging gathers the associates through these very arrays
    np.testing.assert_array_equal(local, w_local)
    assert local.dtype == np.int64
    assert list(remote) == list(w_remote)  # ascending owners
    for peer, part in remote.items():
        assert type(peer) is int
        assert part.dtype == np.int64
        np.testing.assert_array_equal(part, w_remote[peer])
    assert asdict(stats) == asdict(w_stats)
    for field, value in asdict(stats).items():
        assert type(value) is type(asdict(w_stats)[field]), field


def test_owner_keys_are_narrow_and_uncharged():
    """The partition's sort key: ``host_of_local`` in at most 16 bits
    (what NumPy radix-sorts), and not part of the device structure."""
    graph = from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    for num_gpus in (1, 2, 6, 300):
        part = PartitionResult.from_assignment(
            np.arange(8) * num_gpus // 8, num_gpus
        )
        for strategy in (DUPLICATE_ALL, DUPLICATE_1HOP):
            for sub in build_subgraphs(graph, part, strategy):
                keys = sub.owner_keys
                assert keys.dtype.kind == "u" and keys.dtype.itemsize <= 2
                np.testing.assert_array_equal(keys, sub.host_of_local)
                assert sub.memory_bytes() == (
                    sub.csr.memory_bytes() + sub.local_to_global.nbytes
                    + sub.host_of_local.nbytes
                )
