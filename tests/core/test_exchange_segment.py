"""The frontier/message exchange: arrays cross the process boundary as
descriptors into a per-GPU, double-buffered shared-memory segment.

Covers the segment class on its own (round trips, regrowth, cleanup,
a second process), the effects pack/unpack pair the step protocol is
built from, and the integrity digest over the exchange payload.
"""

import glob
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.backend import (
    GpuStepEffects,
    ProcessesBackend,
    _pack_effects,
    _SizeOnly,
    _unpack_effects,
)
from repro.core.comm import Message
from repro.core.enactor import Enactor
from repro.core.shm import SHM_PREFIX, ControlBlock, ExchangeSegment
from repro.core.supervise import SupervisionConfig
from repro.errors import SimulationError
from repro.primitives import BFSIteration, BFSProblem, run_bfs
from repro.sim.faults import SHM_CORRUPT, FaultPlan, FaultSpec
from repro.sim.machine import Machine

from .test_supervision import FAST

def _mine():
    return glob.glob(f"/dev/shm/{SHM_PREFIX}-{os.getpid()}-x*")


@pytest.fixture
def segment():
    seg = ExchangeSegment(0, 4096)
    yield seg
    seg.close()
    assert _mine() == []


arrays = st.one_of(*(
    hnp.arrays(dtype, st.integers(0, 300))
    for dtype in (np.int32, np.int64, np.float64)
))


@settings(max_examples=60, deadline=None)
@given(batch=st.lists(arrays, min_size=0, max_size=6),
       parity=st.integers(0, 1))
def test_round_trip_array_descriptor_view(batch, parity):
    """Any mix of int32 / int64 / float64 arrays, empty ones included,
    reads back bit for bit — also when the batch outgrows the half."""
    seg = ExchangeSegment(3, 256)
    try:
        seg.begin(parity)
        descs = [seg.put(parity, arr) for arr in batch]
        for arr, desc in zip(batch, descs):
            key, par, offset, dtype, length = desc
            assert (key, par, length) == (3, parity, arr.size)
            assert offset % 8 == 0 and np.dtype(dtype) == arr.dtype
            got = seg.view(desc)
            assert got.dtype == arr.dtype and not got.flags.writeable
            np.testing.assert_array_equal(got, arr)
            del got  # a live view pins its mapping
        assert seg.used(1 - parity) == 0
    finally:
        assert seg.close() is True
    assert _mine() == []


def test_views_are_zero_copy_and_halves_independent(segment):
    d0 = segment.put(0, np.arange(10))
    d1 = segment.put(1, np.arange(10) * 2.5)
    a, b = segment.view(d0), segment.view(d0)
    assert np.shares_memory(a, b)
    # step k+1 rewrites half 1 while half 0 — its input — stays put
    segment.begin(1)
    segment.put(1, np.full(10, -1.0))
    np.testing.assert_array_equal(a, np.arange(10))
    np.testing.assert_array_equal(segment.view(d1), np.full(10, -1.0))
    del a, b


def test_empty_superstep_round_trips_through_the_protocol():
    """Zero messages and a zero-length frontier — every road-network
    superstep away from the wavefront — cost no segment bytes."""
    seg = ExchangeSegment(2, 64)
    backend = ProcessesBackend()
    backend._exchange = [None, None, seg]
    try:
        seg.begin(1)
        eff = GpuStepEffects(gpu=2, frontier_size=7, direction="fwd")
        packed = _pack_effects(eff, seg, 1)
        assert seg.used(1) == 0
        back = _unpack_effects(packed, backend._exchange, backend._described)
        assert back.frontier.size == 0 and back.frontier.dtype == np.int64
        assert back.sends == []
        assert (back.gpu, back.frontier_size, back.direction) == (2, 7, "fwd")
    finally:
        backend._described.clear()
        del back
        seg.close()
    assert _mine() == []


def test_effects_with_messages_round_trip():
    """Arrays come back as views with the right owners; a broadcast's
    shared payload is written once."""
    seg = ExchangeSegment(1, 1 << 16)
    backend = ProcessesBackend()
    backend._exchange = [None, seg]
    verts = np.arange(100, dtype=np.int64)
    depth = np.arange(100, dtype=np.int32)
    sigma = np.linspace(0.0, 1.0, 100)
    eff = GpuStepEffects(
        gpu=1, frontier=np.array([4, 5, 6], dtype=np.int64),
        sends=[(dst, 0.5 + dst, Message(1, dst, verts, [depth], [sigma]))
               for dst in (0, 2, 3)],
        transfer_nbytes=[2000, 2000, 2000], items_sent=300, bytes_sent=6000,
    )
    try:
        seg.begin(0)
        packed = _pack_effects(eff, seg, 0)
        # 3 * 8 + 100 * (8 + 4 + 8) bytes, once, not three times
        assert seg.used(0) == 24 + 800 + 400 + 800
        back = _unpack_effects(packed, backend._exchange, backend._described)
        np.testing.assert_array_equal(back.frontier, eff.frontier)
        assert [(d, t) for d, t, _ in back.sends] == [
            (d, t) for d, t, _ in eff.sends
        ]
        for (_, _, got), (_, _, want) in zip(back.sends, eff.sends):
            assert (got.src_gpu, got.dst_gpu) == (want.src_gpu, want.dst_gpu)
            np.testing.assert_array_equal(got.vertices, verts)
            np.testing.assert_array_equal(got.vertex_associates[0], depth)
            np.testing.assert_array_equal(got.value_associates[0], sigma)
            assert got.vertex_associates[0].dtype == np.int32
        assert back.transfer_nbytes == [2000, 2000, 2000]
        # what came back is known by descriptor for the next dispatch
        assert backend._describe(1, 1, back.frontier) == packed[1]
        assert seg.used(1) == 0
    finally:
        backend._described.clear()
        del back, got
        seg.close()
    assert _mine() == []


@pytest.mark.parametrize("read", [
    np.asarray, lambda s: s[0], list, lambda s: s.vertices,
], ids=["asarray", "indexing", "iteration", "attribute"])
def test_size_only_stand_in_refuses_its_contents(read):
    stand_in = _SizeOnly(5)
    assert stand_in.size == 5 and len(stand_in) == 5
    assert not _SizeOnly(0)
    with pytest.raises(SimulationError, match="sizes only.*REP115"):
        read(stand_in)


def test_below_the_horizon_only_cross_worker_messages_are_written():
    """The writing worker owns GPUs 1 and 3: its frontier and its
    message to GPU 3 travel as sizes, the messages to GPUs 0 and 2 as
    descriptors.  The other worker decodes views for its own GPUs only;
    the parent's replay decodes sizes only."""
    seg = ExchangeSegment(1, 1 << 16)
    exchange = [None, seg]
    depth = np.arange(30, dtype=np.int32)
    sigma = np.linspace(0.0, 1.0, 30)
    sends = [
        (dst, 0.5 + dst, Message(1, dst, np.arange(n, dtype=np.int64),
                                 [depth[:n]], [sigma[:n]]))
        for dst, n in ((0, 10), (2, 20), (3, 30))
    ]
    eff = GpuStepEffects(gpu=1, frontier=np.array([4, 5, 6]), sends=sends)
    try:
        seg.begin(0)
        packed = _pack_effects(eff, seg, 0, kept=frozenset({1, 3}))
        # (8 + 4 + 8) bytes per item of the 10- and 20-item messages
        assert seg.used(0) == 200 + 400
        peer = _unpack_effects(packed, exchange, readers={0, 2})
        assert isinstance(peer.frontier, _SizeOnly) and peer.frontier.size == 3
        for (_, _, got), (_, _, want) in zip(peer.sends[:2], sends):
            np.testing.assert_array_equal(got.vertices, want.vertices)
            np.testing.assert_array_equal(got.value_associates[0],
                                          want.value_associates[0])
        assert isinstance(peer.sends[2][2], _SizeOnly)
        replay = _unpack_effects(packed, exchange, readers=())
        assert [msg.size for _, _, msg in replay.sends] == [10, 20, 30]
        assert all(isinstance(msg, _SizeOnly) for _, _, msg in replay.sends)
        assert [(d, t) for d, t, _ in replay.sends] == [
            (d, t) for d, t, _ in sends
        ]
    finally:
        del peer, got
        seg.close()
    assert _mine() == []


def test_forced_regrowth_keeps_earlier_views_valid():
    """A put that does not fit moves the half to a new generation: the
    bytes written so far are carried over (old descriptors resolve in
    the new generation), views of the old generation stay readable, and
    closing leaves nothing in /dev/shm."""
    seg = ExchangeSegment(7, 64)
    first = np.arange(6, dtype=np.int64)
    d_first = seg.put(0, first)
    early = seg.view(d_first)
    names_before = set(_mine())
    big = np.arange(1000, dtype=np.float64)
    d_big = seg.put(0, big)
    assert seg.generations() == (1, 0)
    assert seg.capacity(0) >= first.nbytes + big.nbytes
    # the outgrown generation's name is gone, its mapping is not
    assert len(set(_mine()) - names_before) == 1
    assert len(set(_mine())) == 2
    np.testing.assert_array_equal(early, first)
    np.testing.assert_array_equal(seg.view(d_first), first)
    np.testing.assert_array_equal(seg.view(d_big), big)
    assert not np.shares_memory(early, seg.view(d_first))
    # two generations in one go
    huge = np.arange(20000, dtype=np.int64)
    d_huge = seg.put(0, huge)
    assert seg.generations() == (2, 0)
    np.testing.assert_array_equal(seg.view(d_huge), huge)
    np.testing.assert_array_equal(early, first)
    assert seg.close() is False  # ``early`` still views generation 0
    assert _mine() == []
    np.testing.assert_array_equal(early, first)
    del early
    assert seg.close() is True


def _child_regrows(seg, conn):
    seg.begin(1)
    seg.put(1, np.arange(500, dtype=np.int64))  # generation 1
    seg.put(1, np.arange(5000, dtype=np.int64))  # generation 2
    desc = seg.put(1, np.arange(7, dtype=np.int32))
    conn.send((seg.generations()[1], seg.used(1), desc))
    conn.close()


def test_regrowth_in_a_worker_is_adopted_by_name():
    """The writer of a half may be a forked worker: the parent learns
    the new generation number, maps it by name, unlinks what it
    supersedes and owns the cleanup."""
    seg = ExchangeSegment(5, 128)
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    proc = ctx.Process(target=_child_regrows, args=(seg, theirs))
    proc.start()
    assert ours.poll(30)
    generation, used, desc = ours.recv()
    proc.join(30)
    assert proc.exitcode == 0
    assert generation == 2 and seg.generations() == (0, 0)
    assert len(_mine()) == 4
    seg.sync(1, generation, used)
    assert seg.generations() == (0, 2) and seg.used(1) == used
    got = seg.view(desc)
    np.testing.assert_array_equal(got, np.arange(7, dtype=np.int32))
    assert len(_mine()) == 2
    # the parent appends after the worker's fill mark
    extra = seg.put(1, np.array([9, 9], dtype=np.int64))
    assert extra[2] >= used
    np.testing.assert_array_equal(got, np.arange(7, dtype=np.int32))
    del got
    assert seg.close() is True
    assert _mine() == []


def test_close_sweeps_a_generation_nobody_reported():
    """A worker that regrew a half and died before replying leaves a
    generation the parent never heard of; close() finds it."""
    seg = ExchangeSegment(6, 64)
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    proc = ctx.Process(target=_child_regrows, args=(seg, theirs))
    proc.start()
    proc.join(30)
    assert len(_mine()) == 4 and seg.generations() == (0, 0)
    # a replacement writer reuses the orphan's name
    seg.begin(1)
    seg.put(1, np.arange(500, dtype=np.int64))
    assert seg.generations() == (0, 1)
    assert seg.close() is True
    assert _mine() == []


def _child_posts(control, conn):
    """Worker 1: three barriers' worth of mail, the last two outgrowing
    the half they go to."""
    arrivals = [
        control.post(1, parity, payload)
        for parity, payload in ((0, b"first"), (1, b"y" * 5000),
                                (0, b"z" * 20000))
    ]
    conn.send(arrivals)
    conn.close()


def test_control_block_round_trip_across_regrowth():
    """Mail posted by a forked worker is read back by generation and
    length from the control words alone — also from a half the writer
    regrew; arrival counters count barriers; the abort word sticks; and
    close() leaves none of the block's or the mailboxes' names."""
    def ours():
        return glob.glob(f"/dev/shm/{SHM_PREFIX}-{os.getpid()}-*")

    control = ControlBlock(2)
    assert len(ours()) == 1 + 2 * 2  # the block, two halves per worker
    assert [control.arrived(w) for w in range(2)] == [0, 0]
    assert not control.aborted
    assert control.post(0, 0, b"hello") == 1
    assert bytes(control.read(0, 0)) == b"hello"
    ctx = multiprocessing.get_context("fork")
    mine, theirs = ctx.Pipe()
    proc = ctx.Process(target=_child_posts, args=(control, theirs))
    proc.start()
    assert mine.poll(30)
    assert mine.recv() == [1, 2, 3]
    proc.join(30)
    assert proc.exitcode == 0
    assert (control.arrived(0), control.arrived(1)) == (1, 3)
    # half 1 regrew once, half 0 after it: the reader maps each by name
    assert control.mail[1].generations() == (0, 0)
    assert bytes(control.read(1, 1)) == b"y" * 5000
    assert bytes(control.read(1, 0)) == b"z" * 20000
    assert min(control.mail[1].generations()) >= 1
    # worker 0's mail is untouched by its peer's
    assert bytes(control.read(0, 0)) == b"hello"
    control.abort()
    assert control.aborted
    control.close()
    control.close()
    assert ours() == []


def test_digest_covers_exactly_the_written_bytes(segment):
    segment.put(0, np.arange(50, dtype=np.int64))
    used = segment.used(0)
    before = segment.digest(0, used, 17)
    assert before == segment.digest(0, used, 17)
    assert before != segment.digest(0, used, 18)
    raw = segment.view((0, 0, 0, "|u1", segment.capacity(0)))
    raw.setflags(write=True)
    raw[used] ^= 0xFF  # past the fill mark: not part of the payload
    assert segment.digest(0, used, 17) == before
    raw[used // 2] ^= 0xFF
    assert segment.digest(0, used, 17) != before
    del raw


def _corrupt_exchange(enactor, iteration):
    """Re-aim ``shm-corrupt`` at the exchange: flip a byte of what the
    victim GPU's worker just wrote instead of one in a slice window."""
    backend, sup = enactor.backend, enactor.supervisor
    struck = []

    def deliver(_problem):
        for spec in sup._pending_corrupt:
            seg = backend._exchange[spec.gpu]
            used = seg.used(iteration % 2)
            assert used > 0, "nothing was written to corrupt"
            raw = seg.view((spec.gpu, iteration % 2, 0, "|u1", used))
            raw.setflags(write=True)
            raw[used // 2] ^= 0xFF
            struck.append(spec.gpu)
        sup._pending_corrupt = []

    sup.deliver_pending_corruption = deliver
    return struck


def test_corrupt_exchange_payload_is_caught_by_the_digest(small_rmat):
    """With ``shm_checksums`` on, the per-barrier digest covers the
    exchange payload: a flipped frontier/message byte fails the
    barrier and rolls back to a correct finish."""
    ref, _, _ = run_bfs(small_rmat, Machine(2), src=0)
    machine = Machine(2)
    machine.arm_faults(FaultPlan([FaultSpec(SHM_CORRUPT, gpu=1, iteration=1)]))
    problem = BFSProblem(small_rmat, machine)
    enactor = Enactor(
        problem, BFSIteration, backend="processes", checkpoint_every=2,
        supervise=True,
        supervision=SupervisionConfig(shm_checksums=True, **FAST),
    )
    struck = _corrupt_exchange(enactor, iteration=1)
    try:
        metrics = enactor.enact(src=0)
        got = problem.labels()
    finally:
        enactor.close()
    assert struck == [1]
    assert metrics.rollbacks == 1
    assert list(metrics.degraded_gpus) == [1]
    assert metrics.worker_respawns == 0
    np.testing.assert_array_equal(ref, got)
    assert multiprocessing.active_children() == []
    assert glob.glob(f"/dev/shm/{SHM_PREFIX}-*") == []
