"""Failure paths of the peer-to-peer supersteps stay bounded.

While an epoch runs the parent is asleep and the workers wait for one
another at a shared-memory barrier, so every way a worker can fail to
arrive has to end the wait: a dead worker, a stopped one, one whose
hook raised, and control hooks that do not decide the same thing in
every process; and a barrier that reads contents where only sizes
crossed must fail, not compute.  All of it on an *unsupervised* pool — supervised
dispatch stays in lockstep (``test_supervision.py``).

Everything here runs real forked processes and real signals; every
pool test also asserts that no worker and no ``/dev/shm`` name is left.
"""

import glob
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.core import supervise
from repro.core.backend import ProcessesBackend
from repro.core.enactor import Enactor
from repro.core.shm import SHM_PREFIX, ControlBlock
from repro.core.supervise import wait_for_peers
from repro.errors import SimulationError
from repro.graph.generators import generate_road
from repro.partition import make_partitioner
from repro.primitives import BFSIteration, BFSProblem
from repro.sim.machine import Machine

PARENT = os.getpid()
#: the superstep at which the toy hooks below strike: mid-epoch
STRIKE = 5


@pytest.fixture(scope="module")
def road():
    return generate_road(16, 16, delete_fraction=0.1,
                         shortcut_fraction=0.0, seed=1)


@pytest.fixture(autouse=True)
def nothing_left_behind():
    yield
    assert multiprocessing.active_children() == []
    assert glob.glob(f"/dev/shm/{SHM_PREFIX}-*") == []


@pytest.fixture
def fast_bounds(monkeypatch):
    """Barrier deadline and reap budget in tenths of a second (workers
    inherit them through the fork)."""
    monkeypatch.setattr(supervise, "BARRIER_TIMEOUT", 0.5)
    monkeypatch.setattr(ProcessesBackend, "_reap_timeout", lambda self: 0.3)


def _enactor(road, iteration_cls, backend="processes:2"):
    problem = BFSProblem(
        road, Machine(4), partitioner=make_partitioner("metis", seed=1)
    )
    return Enactor(problem, iteration_cls, backend=backend)


def _barriers_completed(monkeypatch):
    """Count the parent's ``Enactor.barrier`` calls."""
    done = []
    barrier = Enactor.barrier

    def counted(self, iteration, *args):
        out = barrier(self, iteration, *args)
        if os.getpid() == PARENT:
            done.append(iteration)
        return out

    monkeypatch.setattr(Enactor, "barrier", counted)
    return done


class _Signals(BFSIteration):
    """GPU 1's worker sends itself ``SIGNAL`` in superstep STRIKE."""

    SIGNAL = signal.SIGKILL

    def full_queue_core(self, ctx, frontier):
        if (ctx.iteration == STRIKE and ctx.gpu.device_id == 1
                and os.getpid() != PARENT):
            os.kill(os.getpid(), self.SIGNAL)
        return super().full_queue_core(ctx, frontier)


class _Stops(_Signals):
    SIGNAL = signal.SIGSTOP


@pytest.mark.parametrize("iteration_cls", [_Signals, _Stops])
def test_lost_worker_mid_epoch_is_a_bounded_error(
    iteration_cls, road, fast_bounds
):
    """SIGKILL: the parent sees the death, and its abort word releases
    the survivor from the barrier.  SIGSTOP: the survivor's barrier
    deadline passes, it aborts the epoch and reports; the parent gives
    the silent worker the same deadline, then reaps it."""
    enactor = _enactor(road, iteration_cls)
    started = time.monotonic()
    try:
        with pytest.raises(SimulationError, match="worker"):
            enactor.enact(src=0)
        assert time.monotonic() - started < 5.0
        assert enactor.backend._workers is None, "the pool was not reaped"
    finally:
        enactor.close()


class _Raises(BFSIteration):
    def full_queue_core(self, ctx, frontier):
        if ctx.iteration == STRIKE and ctx.gpu.device_id == 1:
            raise ValueError("boom in superstep %d" % ctx.iteration)
        return super().full_queue_core(ctx, frontier)


@pytest.mark.parametrize("backend", ["serial", "processes:2"])
def test_hook_error_mid_epoch_surfaces_at_its_superstep(
    backend, road, monkeypatch
):
    """The raising worker sets the abort word, so its peer leaves the
    barrier and both reply; the parent replays what completed and
    re-raises where the serial loop would."""
    done = _barriers_completed(monkeypatch)
    enactor = _enactor(road, _Raises, backend=backend)
    try:
        with pytest.raises(ValueError, match="boom in superstep 5"):
            enactor.enact(src=0)
    finally:
        enactor.close()
    assert done == list(range(STRIKE))


class _WorkersStopEarly(BFSIteration):
    def should_stop(self, iteration, frontier_sizes, messages_in_flight):
        if os.getpid() != PARENT and iteration == STRIKE:
            return True
        return super().should_stop(iteration, frontier_sizes,
                                   messages_in_flight)


class _ParentStopsEarly(BFSIteration):
    def should_stop(self, iteration, frontier_sizes, messages_in_flight):
        if os.getpid() == PARENT and iteration == STRIKE:
            return True
        return super().should_stop(iteration, frontier_sizes,
                                   messages_in_flight)


@pytest.mark.parametrize("iteration_cls, where", [
    (_WorkersStopEarly, "in the workers but not in the parent"),
    (_ParentStopsEarly, "in the parent but not in the workers"),
])
def test_diverging_should_stop_is_an_error_not_a_hang(
    iteration_cls, where, road, monkeypatch
):
    """A ``should_stop`` that depends on the process it runs in: the
    parent's replay disagrees with the workers' log at STRIKE."""
    done = _barriers_completed(monkeypatch)
    enactor = _enactor(road, iteration_cls)
    try:
        with pytest.raises(SimulationError, match=where):
            enactor.enact(src=0)
    finally:
        enactor.close()
    assert done == list(range(STRIKE + 1))


class _OneWorkerStops(BFSIteration):
    """``should_stop`` true in the worker of GPUs 0 and 2 only (which
    it learns, against the contract, from state a hot hook left on the
    iteration object)."""

    def full_queue_core(self, ctx, frontier):
        self.seen_gpu = ctx.gpu.device_id
        return super().full_queue_core(ctx, frontier)

    def should_stop(self, iteration, frontier_sizes, messages_in_flight):
        if iteration == STRIKE and getattr(self, "seen_gpu", 1) % 2 == 0:
            return True
        return super().should_stop(iteration, frontier_sizes,
                                   messages_in_flight)


@pytest.mark.parametrize("backend", ["serial", "processes:2"])
def test_reading_an_intermediate_frontier_fails_loudly(
    backend, road, monkeypatch
):
    """A barrier that reads frontier contents: below an epoch's horizon
    those stayed in their workers, so on ``processes:2`` the run raises,
    naming the rule, instead of returning a result computed from bytes
    nobody wrote.  Serial, where every frontier is a live array, runs
    the same barrier to the end."""
    barrier = Enactor.barrier

    def reads_contents(self, iteration, iteration_obj, results, frontiers):
        out = barrier(self, iteration, iteration_obj, results, frontiers)
        for frontier in frontiers:
            np.asarray(frontier).sum()
        return out

    monkeypatch.setattr(Enactor, "barrier", reads_contents)
    enactor = _enactor(road, BFSIteration, backend=backend)
    try:
        if backend == "serial":
            assert enactor.enact(src=0).supersteps > STRIKE
        else:
            with pytest.raises(SimulationError, match="sizes only"):
                enactor.enact(src=0)
    finally:
        enactor.close()


def test_workers_that_disagree_among_themselves_time_out(road, fast_bounds):
    """One worker leaves the epoch, the other runs on and waits for a
    peer that will not come: its deadline ends the epoch."""
    enactor = _enactor(road, _OneWorkerStops)
    try:
        with pytest.raises(SimulationError, match="did not reach"):
            enactor.enact(src=0)
    finally:
        enactor.close()


# -- the wait helper alone ----------------------------------------------------

@pytest.fixture
def control():
    block = ControlBlock(2)
    yield block
    block.close()


@pytest.mark.parametrize("spin", [True, False])
def test_wait_for_peers_returns_on_arrival(control, spin):
    mine = control.post(0, 0, b"a")
    control.post(1, 0, b"b")
    assert wait_for_peers(control, 0, mine, os.getppid(), spin, timeout=5.0)


@pytest.mark.parametrize("spin", [True, False])
def test_wait_for_peers_missing_peer_raises_within_its_deadline(control, spin):
    mine = control.post(0, 0, b"a")
    started = time.monotonic()
    with pytest.raises(SimulationError, match=r"worker\(s\) \[1\] did not"):
        wait_for_peers(control, 0, mine, os.getppid(), spin, timeout=0.2)
    assert 0.2 <= time.monotonic() - started < 2.0


def test_wait_for_peers_abort_word_returns_at_once(control):
    mine = control.post(0, 0, b"a")
    control.abort()
    started = time.monotonic()
    assert wait_for_peers(
        control, 0, mine, os.getppid(), True, timeout=30.0
    ) is False
    assert time.monotonic() - started < 1.0


def test_wait_for_peers_notices_an_orphaned_worker(control):
    mine = control.post(0, 0, b"a")
    with pytest.raises(EOFError):
        wait_for_peers(control, 0, mine, os.getppid() + 1, False, timeout=30.0)
