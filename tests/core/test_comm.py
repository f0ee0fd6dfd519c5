"""Communication: split, package, broadcast, message sizing."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.comm import (
    Message,
    make_broadcast_messages,
    make_selective_messages,
    route_empty_frontier,
    split_frontier,
)
from repro.core.stats import OpStats
from repro.graph.build import from_edges
from repro.graph.generators import generate_road
from repro.obs import Tracer
from repro.partition import (
    DUPLICATE_1HOP,
    DUPLICATE_ALL,
    build_subgraphs,
)
from repro.partition.base import PartitionResult, reassign_onto_survivors
from repro.types import ID32, ID64


@pytest.fixture
def split_setup():
    g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    pr = PartitionResult.from_assignment(np.array([0, 0, 1, 1, 2, 2]), 3)
    subs = build_subgraphs(g, pr, DUPLICATE_ALL)
    return g, pr, subs


class TestSplit:
    def test_local_remote_separation(self, split_setup):
        g, pr, subs = split_setup
        s0 = subs[0]
        # frontier on GPU0 containing its own vertex 1, plus 2 (GPU1), 4 (GPU2)
        local, remote, st = split_frontier(s0, np.array([1, 2, 4]))
        assert local.tolist() == [1]
        assert remote[1].tolist() == [2]
        assert remote[2].tolist() == [4]
        assert st.vertices_processed == 3

    def test_all_local(self, split_setup):
        _, _, subs = split_setup
        local, remote, _ = split_frontier(subs[0], np.array([0, 1]))
        assert local.tolist() == [0, 1]
        assert remote == {}

    def test_empty_frontier(self, split_setup):
        _, _, subs = split_setup
        local, remote, st = split_frontier(subs[0], np.array([], np.int64))
        assert local.size == 0
        assert remote == {}


def _general_split(sub, frontier, ids_bytes):
    """The split with no shortcut for frontiers that route nothing: a
    mask per owner found by sorting — the reference the empty and
    interior early-outs must equal."""
    hosts = sub.host_of_local[frontier]
    local = frontier[hosts == sub.gpu_id]
    remote = {
        int(peer): frontier[hosts == peer]
        for peer in np.unique(hosts) if peer != sub.gpu_id
    }
    stats = OpStats(
        name="split",
        input_size=int(frontier.size),
        output_size=int(frontier.size),
        vertices_processed=int(frontier.size),
        launches=1,
        streaming_bytes=2 * frontier.size * ids_bytes,
        random_bytes=frontier.size * 4,
    )
    return local, remote, stats


@pytest.fixture(scope="module")
def road_subgraphs():
    """Blocks of a road grid — most vertices are interior to their part
    — as partitioned, and as rebuilt after GPU 2 is lost."""
    graph = generate_road(12, 12, seed=3)
    table = np.arange(graph.num_vertices) * 4 // graph.num_vertices
    degraded = reassign_onto_survivors(table, {2}, 4)
    return {
        (name, dup): build_subgraphs(
            graph, PartitionResult.from_assignment(assignment, 4), dup
        )
        for name, assignment in (("intact", table), ("degraded", degraded))
        for dup in (DUPLICATE_ALL, DUPLICATE_1HOP)
    }


class TestSplitEarlyOuts:
    """Empty and all-local frontiers take no per-peer pass; what they
    return must be what the general pass returns."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_general_split(self, road_subgraphs, data):
        subs = road_subgraphs[
            data.draw(st.sampled_from(sorted(road_subgraphs)))
        ]
        sub = subs[data.draw(st.sampled_from([0, 1, 3]))]
        hosted = np.flatnonzero(sub.host_of_local == sub.gpu_id)
        kind = data.draw(st.sampled_from(["empty", "interior", "any"]))
        pool = {
            "empty": np.empty(0, dtype=np.int64),
            "interior": hosted,
            "any": np.arange(sub.num_vertices),
        }[kind]
        frontier = (
            pool[data.draw(st.lists(st.integers(0, pool.size - 1),
                                    max_size=40))]
            if pool.size else pool
        ).astype(np.int64)
        ids_bytes = data.draw(st.sampled_from([4, 8]))
        local, remote, stats = split_frontier(sub, frontier, ids_bytes)
        w_local, w_remote, w_stats = _general_split(sub, frontier, ids_bytes)
        np.testing.assert_array_equal(local, w_local)
        assert local.dtype == w_local.dtype
        assert list(remote) == list(w_remote)
        for peer, part in w_remote.items():
            np.testing.assert_array_equal(remote[peer], part)
        assert asdict(stats) == asdict(w_stats)
        if kind != "any":
            assert remote == {}

    @pytest.mark.parametrize("num_associates", [0, 1, 2])
    def test_route_empty_frontier_equals_split_then_package(
        self, road_subgraphs, num_associates
    ):
        sub = road_subgraphs[("degraded", DUPLICATE_ALL)][1]
        empty = np.empty(0, dtype=np.int64)
        assoc = [np.zeros(sub.num_vertices)] * num_associates
        want_tracer, got_tracer = Tracer(), Tracer()
        local, remote, s_stats = split_frontier(
            sub, empty, ids_bytes=8, tracer=want_tracer
        )
        msgs, p_stats = make_selective_messages(
            sub, remote, assoc[:1], assoc[1:], ids_bytes=8,
            tracer=want_tracer,
        )
        assert local.size == 0 and msgs == []
        got = route_empty_frontier(sub, num_associates, got_tracer)
        assert [asdict(s) for s in got] == [asdict(s_stats), asdict(p_stats)]
        assert got_tracer.events == want_tracer.events
        assert len(got_tracer.events) == 2
        # untraced, it records nothing and prices the same
        assert route_empty_frontier(sub, num_associates) == got


class TestSelectiveMessages:
    def test_vertices_converted_to_host_ids(self):
        g = from_edges(4, [(0, 2), (1, 3)])
        pr = PartitionResult.from_assignment(np.array([0, 0, 1, 1]), 2)
        subs = build_subgraphs(g, pr, DUPLICATE_1HOP)
        s0 = subs[0]
        # GPU0's proxies for globals {2,3} are locals {2,3}
        local, remote, _ = split_frontier(s0, np.array([2, 3]))
        msgs, _ = make_selective_messages(s0, remote, [], [])
        (m,) = msgs
        assert m.dst_gpu == 1
        # on GPU1, globals {2,3} are locals {0,1}
        assert sorted(m.vertices.tolist()) == [0, 1]

    def test_associates_gathered(self, split_setup):
        _, _, subs = split_setup
        s0 = subs[0]
        preds = np.arange(6) * 10
        dist = np.arange(6) * 0.5
        _, remote, _ = split_frontier(s0, np.array([2, 4]))
        msgs, st = make_selective_messages(s0, remote, [preds], [dist])
        by_dst = {m.dst_gpu: m for m in msgs}
        assert by_dst[1].vertex_associates[0].tolist() == [20]
        assert by_dst[2].value_associates[0].tolist() == [2.0]
        assert st.vertices_processed == 2

    def test_deterministic_peer_order(self, split_setup):
        _, _, subs = split_setup
        _, remote, _ = split_frontier(subs[0], np.array([4, 2]))
        msgs, _ = make_selective_messages(subs[0], remote, [], [])
        assert [m.dst_gpu for m in msgs] == [1, 2]


class TestBroadcastMessages:
    def test_one_message_per_peer(self, split_setup):
        _, _, subs = split_setup
        msgs, st = make_broadcast_messages(subs[0], np.array([0, 1]), 3, [], [])
        assert len(msgs) == 2
        assert {m.dst_gpu for m in msgs} == {1, 2}
        for m in msgs:
            assert m.vertices.tolist() == [0, 1]

    def test_empty_frontier_messages_empty(self, split_setup):
        _, _, subs = split_setup
        msgs, st = make_broadcast_messages(
            subs[0], np.array([], np.int64), 3, [], []
        )
        assert all(m.num_items == 0 for m in msgs)
        assert st.launches == 0

    def test_single_gpu_no_messages(self, split_setup):
        _, _, subs = split_setup
        msgs, _ = make_broadcast_messages(subs[0], np.array([0]), 1, [], [])
        assert msgs == []


class TestMessageSizing:
    def test_nbytes_vertex_only(self):
        m = Message(0, 1, np.arange(10))
        assert m.nbytes(ID32) == 40
        assert m.nbytes(ID64) == 80  # Table V: 64-bit IDs double the wire

    def test_nbytes_with_associates(self):
        m = Message(
            0,
            1,
            np.arange(10),
            vertex_associates=[np.arange(10)],
            value_associates=[np.arange(10, dtype=np.float64)],
        )
        assert m.nbytes(ID32) == 10 * (4 + 4 + 8)

    def test_num_items(self):
        assert Message(0, 1, np.arange(7)).num_items == 7


# -- the int64 contract ---------------------------------------------------------
#
# Frontiers and ``Message.vertices`` are int64 ndarrays wherever the
# framework produces them, so the superstep and the hooks index with
# them as they are, without an ``np.asarray(..., dtype=np.int64)`` per
# message and per hook call.  Producers: ``Problem.reset``, the hooks'
# own outputs, ``split_frontier`` / packaging (``host_local_id`` is
# int64), the exchange segment's views on ``processes``, and
# ``route_restored_state`` after a rollback.

def _int64_checked(iteration_cls, seen):
    def check(arr, what):
        assert isinstance(arr, np.ndarray), what
        assert arr.dtype == np.int64, (what, arr.dtype)

    class Checked(iteration_cls):
        def expand_incoming(self, ctx, msg):
            assert type(msg.vertices) is np.ndarray
            check(msg.vertices, "Message.vertices")
            verts, stats = super().expand_incoming(ctx, msg)
            check(verts, "expand_incoming output")
            seen["messages"] += 1
            return verts, stats

        def full_queue_core(self, ctx, frontier):
            check(frontier, "input frontier")
            out, stats = super().full_queue_core(ctx, frontier)
            check(out, "full_queue_core output")
            seen["cores"] += 1
            return out, stats

    return Checked


@pytest.mark.parametrize("backend", ["serial", "processes:2"])
@pytest.mark.parametrize(
    "variant", ["bfs+preds", "dobfs", "sssp+preds", "cc", "bc", "pr"]
)
def test_frontiers_and_messages_are_int64(variant, backend):
    from collections import Counter

    import tests.core.test_kernel_bit_identity as identity
    from repro.core.enactor import Enactor
    from repro.sim.machine import Machine

    problem_cls, iteration_cls, pkw, ekw, _, opts = identity.VARIANTS[variant]
    plain, weighted = identity._graphs()["rmat"]
    problem = problem_cls(
        weighted if variant.startswith("sssp") else plain, Machine(4), **pkw
    )
    seen = Counter()
    opts = {k: v for k, v in opts.items() if k != "fixed"}
    with Enactor(problem, _int64_checked(iteration_cls, seen),
                 backend=backend, **opts) as enactor:
        enactor.enact(**ekw)
    if backend == "serial":  # a worker's counts stay in the worker
        assert seen["cores"] and seen["messages"]


def test_restored_frontiers_and_messages_are_int64(small_rmat):
    """After a GPU loss the run resumes from ``route_restored_state``'s
    frontiers and re-addressed messages."""
    from collections import Counter

    from repro.core.enactor import Enactor
    from repro.primitives import BFSIteration, BFSProblem
    from repro.sim.faults import GPU_LOSS, FaultPlan, FaultSpec
    from repro.sim.machine import Machine

    machine = Machine(4)
    machine.arm_faults(FaultPlan([FaultSpec(GPU_LOSS, gpu=3, iteration=2)]))
    problem = BFSProblem(small_rmat, machine, mark_predecessors=True)
    seen = Counter()
    with Enactor(problem, _int64_checked(BFSIteration, seen),
                 checkpoint_every=1) as enactor:
        metrics = enactor.enact(src=0)
    assert metrics.rollbacks == 1 and seen["messages"]
