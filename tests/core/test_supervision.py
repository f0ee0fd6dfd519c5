"""Tentpole: the supervised worker pool survives real process faults.

A SIGKILLed or SIGSTOPped worker must never deadlock the run.  The
supervisor detects the failure through liveness/heartbeat/deadline
checks, respawns the worker against the same shared-memory slices, and
replays the in-flight superstep — bit-identically, because the parent's
Python state only mutates when staged effects apply after *all* replies
are in, and the pre-dispatch shadow undoes any torn shm writes.  When
the same superstep dies twice the failure converts to the established
``DeviceLostError``-as-value path: checkpoint rollback, reassignment
onto the survivors, and a degraded-but-correct finish.

Everything here runs real forked processes and real signals; every
test also asserts ``/dev/shm`` holds none of our segments afterwards.
"""

import glob
import json
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.backend import ProcessesBackend
from repro.core.enactor import Enactor
from repro.core.shm import SHM_PREFIX
from repro.core.supervise import (
    SupervisionConfig,
    WorkerSupervisor,
    reap_worker,
    wait_for_reply,
    worker_recv,
)
from repro.errors import SimulationError, WorkerCrashError, WorkerHangError
from repro.obs import EventBus, Tracer
from repro.primitives import (
    BFSIteration,
    BFSProblem,
    run_bc,
    run_bfs,
    run_cc,
    run_dobfs,
    run_pagerank,
    run_sssp,
)
from repro.sim.faults import (
    SHM_CORRUPT,
    WORKER_CRASH,
    WORKER_HANG,
    FaultPlan,
    FaultSpec,
)
from repro.sim.machine import Machine

RUNNERS = {
    "bfs": (run_bfs, {"src": 0}),
    "dobfs": (run_dobfs, {"src": 0}),
    "sssp": (run_sssp, {"src": 0}),
    "cc": (run_cc, {}),
    "bc": (run_bc, {"src": 0}),
    "pr": (run_pagerank, {"max_iter": 30}),
}

#: tight timings so detection happens in tenths of seconds, not tens
FAST = dict(
    heartbeat_interval=0.02,
    stale_factor=15.0,
    deadline_floor=5.0,
    poll_interval=0.02,
    teardown_timeout=0.2,
)


def _shm_leaks():
    return glob.glob(f"/dev/shm/{SHM_PREFIX}-*")


def _graph_for(name, small_rmat, weighted_rmat):
    return weighted_rmat if name == "sssp" else small_rmat


def _run(name, graph, num_gpus, **kwargs):
    runner, rkwargs = RUNNERS[name]
    machine = Machine(num_gpus)
    result, metrics, _ = runner(graph, machine, **rkwargs, **kwargs)
    return np.asarray(result), metrics, machine


def _run_faulted(name, graph, num_gpus, specs, tracer=None, **kwargs):
    runner, rkwargs = RUNNERS[name]
    machine = Machine(num_gpus)
    machine.arm_faults(FaultPlan(faults=list(specs)))
    if tracer is not None:
        kwargs["tracer"] = tracer
    result, metrics, _ = runner(
        graph, machine, **rkwargs,
        backend="processes",
        supervision=SupervisionConfig(**FAST),
        **kwargs,
    )
    return np.asarray(result), metrics


class TestRespawnReplay:
    @pytest.mark.parametrize("primitive", sorted(RUNNERS))
    @pytest.mark.parametrize("num_gpus", [2, 4])
    def test_sigkill_respawn_bit_identical(
        self, primitive, num_gpus, small_rmat, weighted_rmat
    ):
        """One SIGKILL mid-superstep: respawn + replay reproduces the
        fault-free serial result exactly, with no degraded GPUs."""
        graph = _graph_for(primitive, small_rmat, weighted_rmat)
        ref, _, _ = _run(primitive, graph, num_gpus)
        # guarded runs take a baseline checkpoint, which charges virtual
        # time — so the virtual-timeline comparison needs a guarded
        # reference: same plan shape, fault never due
        never = [FaultSpec(WORKER_CRASH, gpu=0, iteration=10 ** 6)]
        _, ref_metrics = _run_faulted(primitive, graph, num_gpus, never)
        specs = [FaultSpec(WORKER_CRASH, gpu=num_gpus - 1, iteration=1)]
        got, metrics = _run_faulted(primitive, graph, num_gpus, specs)
        np.testing.assert_array_equal(ref, got)
        assert metrics.worker_respawns >= 1
        assert metrics.supersteps_replayed >= 1
        assert metrics.rollbacks == 0
        assert list(metrics.degraded_gpus) == []
        # the virtual timeline is untouched by host-level recovery
        assert metrics.elapsed == ref_metrics.elapsed
        assert metrics.supersteps == ref_metrics.supersteps
        assert _shm_leaks() == []

    @pytest.mark.parametrize("primitive", ["bfs", "cc", "pr"])
    def test_sigstop_hang_detected_and_respawned(
        self, primitive, small_rmat, weighted_rmat
    ):
        """A SIGSTOPped worker trips the stale-heartbeat check; the
        supervisor reaps it (SIGCONT+terminate under a bound), respawns,
        and replays — still bit-identical."""
        graph = _graph_for(primitive, small_rmat, weighted_rmat)
        ref, _, _ = _run(primitive, graph, 2)
        specs = [FaultSpec(WORKER_HANG, gpu=1, iteration=1)]
        got, metrics = _run_faulted(primitive, graph, 2, specs)
        np.testing.assert_array_equal(ref, got)
        assert metrics.hang_detections >= 1
        assert metrics.worker_respawns >= 1
        assert _shm_leaks() == []


class TestEscalationRollback:
    @pytest.mark.parametrize("primitive", ["bfs", "cc", "pr"])
    @pytest.mark.parametrize("num_gpus", [2, 4])
    def test_kill_twice_escalates_to_rollback(
        self, primitive, num_gpus, small_rmat, weighted_rmat
    ):
        """The same superstep dying twice (the second spec strikes the
        replacement during replay) converts to the DeviceLostError
        rollback path: degraded finish, same answer (exact for the
        integer-label primitives; PR reconverges within tolerance, as
        the degraded repartition reorders its float sums — the chaos
        harness's EXACT_PRIMITIVES policy)."""
        graph = _graph_for(primitive, small_rmat, weighted_rmat)
        ref, _, _ = _run(primitive, graph, num_gpus)
        g = num_gpus - 1
        specs = [
            FaultSpec(WORKER_CRASH, gpu=g, iteration=1),
            FaultSpec(WORKER_CRASH, gpu=g, iteration=1),
        ]
        got, metrics = _run_faulted(
            primitive, graph, num_gpus, specs, checkpoint_every=2
        )
        if primitive == "pr":
            np.testing.assert_allclose(ref, got)
        else:
            np.testing.assert_array_equal(ref, got)
        assert metrics.worker_respawns == 1
        assert metrics.rollbacks >= 1
        assert list(metrics.degraded_gpus) != []
        assert _shm_leaks() == []

    def test_shm_corruption_caught_by_checksum(self, small_rmat):
        """A flipped byte in a slice window between the worker's reply
        and the barrier fails checksum verification and rolls back."""
        ref, _, _ = _run("bfs", small_rmat, 2)
        specs = [FaultSpec(SHM_CORRUPT, gpu=1, iteration=1)]
        got, metrics = _run_faulted(
            "bfs", small_rmat, 2, specs, checkpoint_every=2
        )
        np.testing.assert_array_equal(ref, got)
        assert metrics.rollbacks >= 1
        assert metrics.worker_respawns == 0
        assert _shm_leaks() == []


class TestObservability:
    def test_counters_match_events(self, small_rmat):
        """Every supervision counter has a matching event stream: one
        worker.respawn per respawn, one heartbeat.stale per hang."""
        bus = EventBus()
        records = []
        bus.subscribe(records.append)
        tracer = Tracer(bus=bus)
        specs = [
            FaultSpec(WORKER_CRASH, gpu=0, iteration=1),
            FaultSpec(WORKER_HANG, gpu=1, iteration=2),
        ]
        _, metrics = _run_faulted(
            "bfs", small_rmat, 2, specs, tracer=tracer
        )
        assert metrics.worker_respawns == 2
        assert metrics.hang_detections == 1
        assert tracer.count("worker.respawn") == metrics.worker_respawns
        assert tracer.count("heartbeat.stale") == metrics.hang_detections
        assert tracer.count("worker.lost") == 0
        by_type = {}
        for r in records:
            by_type[r.get("type")] = by_type.get(r.get("type"), 0) + 1
        assert by_type.get("worker.respawn", 0) == metrics.worker_respawns
        assert by_type.get("heartbeat.stale", 0) == metrics.hang_detections

    def test_supervised_nofault_is_bit_identical(self, small_rmat):
        """With no faults armed the supervisor is a pure observer: the
        labels and the whole metrics tree (minus its own wall-clock
        overhead counter) match the unsupervised processes run."""
        ref, ref_metrics, _ = _run(
            "bfs", small_rmat, 2, backend="processes"
        )
        got, metrics, _ = _run(
            "bfs", small_rmat, 2, backend="processes",
            supervision=SupervisionConfig(**FAST),
        )
        np.testing.assert_array_equal(ref, got)
        d_ref, d_got = ref_metrics.to_dict(), metrics.to_dict()
        assert d_got["recovery"]["supervision_overhead_seconds"] >= 0.0
        d_got["recovery"]["supervision_overhead_seconds"] = 0.0
        d_ref["recovery"]["supervision_overhead_seconds"] = 0.0
        assert json.dumps(d_ref) == json.dumps(d_got)
        assert _shm_leaks() == []


class TestLifecycle:
    def test_shm_clean_after_sigkill_mid_superstep(self, small_rmat):
        """Regression: a worker SIGKILLed while holding shm mappings
        must not leave segments in /dev/shm once the run finishes (the
        parent owns the segments; respawn reattaches by name)."""
        specs = [FaultSpec(WORKER_CRASH, gpu=1, iteration=1)]
        _run_faulted("bfs", small_rmat, 2, specs)
        assert _shm_leaks() == []

    def test_close_idempotent_with_half_dead_pool(self, small_rmat):
        """Enactor.close() must terminate cleanly (and repeatably) when
        part of the pool was already killed out-of-band."""
        machine = Machine(2)
        problem = BFSProblem(small_rmat, machine)
        enactor = Enactor(
            problem, BFSIteration, backend="processes",
            supervision=SupervisionConfig(**FAST),
        )
        enactor.enact(src=0)
        backend = enactor.backend
        assert isinstance(backend, ProcessesBackend)
        workers = backend._workers or []
        live = [w for w in workers if w is not None]
        assert live, "worker pool should persist between enacts"
        os.kill(live[0][0].pid, signal.SIGKILL)
        t0 = time.monotonic()
        enactor.close()
        enactor.close()  # idempotent
        assert time.monotonic() - t0 < 30.0
        assert _shm_leaks() == []

    def test_validation_rejects_bad_combinations(self, small_rmat):
        machine = Machine(2)
        problem = BFSProblem(small_rmat, machine)
        # supervision requires the processes backend
        with pytest.raises(SimulationError):
            Enactor(problem, BFSIteration, backend="serial",
                    supervision=SupervisionConfig())
        # sanitizer pauses workers at hook boundaries; combined with
        # hang detection it would self-trigger — banned
        with pytest.raises(SimulationError):
            Enactor(problem, BFSIteration, backend="processes",
                    sanitize=True, supervision=SupervisionConfig())
        # host-level faults need a supervisor to deliver them
        machine2 = Machine(2)
        machine2.arm_faults(FaultPlan(
            faults=[FaultSpec(WORKER_CRASH, gpu=0, iteration=1)]
        ))
        with pytest.raises(SimulationError):
            run_bfs(small_rmat, machine2, src=0, backend="processes")


def _silent_child(conn):
    conn.recv()  # wait for the go signal, then exit without replying


def _sleepy_child(conn):
    conn.recv()
    time.sleep(60)


def _sigterm_deaf_child(conn):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send("ready")
    time.sleep(60)


class TestWaitPrimitives:
    """The bounded-wait building blocks, against real processes."""

    def _spawn(self, target):
        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=target, args=(child,), daemon=True)
        proc.start()
        child.close()
        return proc, parent

    def test_wait_for_reply_detects_death(self):
        proc, conn = self._spawn(_silent_child)
        conn.send("go")
        t0 = time.monotonic()
        with pytest.raises(WorkerCrashError):
            wait_for_reply(conn, proc, timeout=None, poll_interval=0.02)
        assert time.monotonic() - t0 < 10.0
        reap_worker(proc, conn, timeout=0.2)

    def test_wait_for_reply_deadline(self):
        proc, conn = self._spawn(_sleepy_child)
        conn.send("go")
        with pytest.raises(WorkerHangError):
            wait_for_reply(conn, proc, timeout=0.2, poll_interval=0.02)
        reap_worker(proc, conn, timeout=0.2)
        assert not proc.is_alive()

    def test_reap_worker_handles_sigstopped_child(self):
        """SIGSTOP ignores SIGTERM until resumed; the reap sequence
        (SIGCONT + terminate, then SIGKILL) stays bounded anyway."""
        proc, conn = self._spawn(_sleepy_child)
        conn.send("go")
        os.kill(proc.pid, signal.SIGSTOP)
        t0 = time.monotonic()
        reap_worker(proc, conn, timeout=0.2)
        assert time.monotonic() - t0 < 5.0
        assert not proc.is_alive()

    def test_reap_worker_kills_a_child_that_ignores_sigterm(self):
        """A worker that ignores SIGTERM is still reaped, by the SIGKILL
        backstop.  The reap runs in a daemon thread, so an unbounded
        wait fails this test instead of hanging the suite."""
        proc, conn = self._spawn(_sigterm_deaf_child)
        try:
            assert conn.poll(5.0) and conn.recv() == "ready"
            reaper = threading.Thread(
                target=reap_worker, args=(proc, conn),
                kwargs={"timeout": 0.2}, daemon=True,
            )
            reaper.start()
            reaper.join(5.0)
            assert not reaper.is_alive(), "reap_worker is still waiting"
            assert proc.exitcode == -signal.SIGKILL
        finally:
            proc.kill()

    def test_worker_recv_detects_orphaning_by_recorded_parent(
        self, monkeypatch
    ):
        """An orphan is re-parented to whatever reaps orphans here —
        pid 1, a subreaper, a container init — so the worker compares
        against the pid recorded at fork, not against 1."""
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe()
        try:
            # re-parented to a subreaper that is not pid 1
            monkeypatch.setattr(os, "getppid", lambda: 4242)
            with pytest.raises(EOFError):
                worker_recv(theirs, 1000, poll_interval=0.01)
            # a live parent that happens to BE pid 1 (container init)
            # is not an orphaning: the request still arrives
            monkeypatch.setattr(os, "getppid", lambda: 1)
            threading.Timer(0.05, ours.send, args=(("stop",),)).start()
            assert worker_recv(theirs, 1, poll_interval=0.01) == ("stop",)
        finally:
            ours.close()
            theirs.close()

    def test_deadline_adapts_to_observed_supersteps(self):
        sup = WorkerSupervisor(SupervisionConfig(
            deadline_factor=4.0, deadline_floor=0.0, ewma_alpha=0.5,
        ))
        sup.begin_run()
        for _ in range(8):
            sup.observe(0.1)
        assert sup.deadline() == pytest.approx(0.4, rel=0.2)
        sup2 = WorkerSupervisor(SupervisionConfig())
        sup2.begin_run()
        sup2.observe(0.001)
        # the floor keeps early, noisy estimates from false-positives
        assert sup2.deadline() >= sup2.config.deadline_floor
