"""Supervised worker pool: real-process fault tolerance for the
processes backend.

PR 3's fault machinery is entirely *virtual* — :mod:`repro.sim.faults`
injects simulated events into the model — but the processes backend
runs real OS processes where real failures happen: a worker SIGKILL'd
by the OOM killer or segfaulted inside a compiled kernel used to leave
the enactor blocked forever on an unbounded ``conn.recv()``, and a
hung worker stalled every superstep with no detection.

:class:`WorkerSupervisor` wraps the duplex-pipe run protocol with

* **heartbeats** — each worker runs a daemon thread bumping a shared
  ``multiprocessing.Value('d')`` with ``time.monotonic()`` every
  :attr:`SupervisionConfig.heartbeat_interval` seconds (CLOCK_MONOTONIC
  is system-wide on Linux, so the parent can age it directly);
* **adaptive per-superstep deadlines** — a multiple of the EWMA of
  observed superstep wall times, with a floor, so slow graphs don't
  trip false hangs and fast graphs don't wait minutes for a dead one;
* **liveness checks** — pipe EOF, a readable ``Process.sentinel`` /
  non-None ``exitcode``, and heartbeat staleness, surfaced as the typed
  errors :class:`~repro.errors.WorkerCrashError` /
  :class:`~repro.errors.WorkerHangError`;
* **shm integrity** — each worker checksums its GPU's slice windows and
  the exchange payload it wrote (next frontier, outgoing message
  arrays) at superstep end (``zlib.adler32``); the parent recomputes
  from its own mappings at the barrier and raises
  :class:`~repro.errors.ShmIntegrityError` on mismatch.

Escalation policy (see ``docs/robustness.md``): first failure of a
superstep → kill + respawn the worker, re-attach the shared-memory
slices by name, restore the pre-superstep **replay shadow** (a copy of
the dispatched GPUs' slice arrays — a crashed worker may have written
half its window, so naive re-execution would start from torn state),
and replay the in-flight superstep.  The superstep's *inputs* need no
shadow: they sit in the exchange half the superstep does not write
(:class:`~repro.core.shm.ExchangeSegment`'s parity rule).  Because the
parent's own Python state (streams, pools, fault consumption,
frontiers) is only mutated when sidecars are applied *after* all
replies arrive, a replayed superstep re-executes bit-identically — the
run completes with results identical to a fault-free run.  The pool,
heartbeat threads included, outlives ``enact()``: a worker that fails
in a later run of the same enactor is respawned the same way.  If the
respawn fails or the same superstep dies twice, the failure converts
into the existing ``DeviceLostError``-as-value path so the proven
rollback + repartition + checkpoint-restore recovery takes over, with
the replacement worker pool resized to the survivor set.

The module-level helpers (:func:`wait_for_reply`, :func:`worker_recv`,
:func:`wait_for_peers`, :func:`reap_worker`) are used by the backend
even when supervision is off, so *unsupervised* runs can no longer
deadlock on a dead worker either — they just lack adaptive deadlines,
respawn, and checksums.
"""

from __future__ import annotations

import os
import signal
import time
import zlib
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import (
    ShmIntegrityError,
    SimulationError,
    WorkerCrashError,
    WorkerHangError,
)
from .observer import Observer

__all__ = [
    "SupervisionConfig",
    "WorkerSupervisor",
    "wait_for_reply",
    "worker_recv",
    "wait_for_peers",
    "reap_worker",
    "BARRIER_TIMEOUT",
    "slice_checksum",
]

#: how often the bounded waits wake up to run liveness checks
_POLL_INTERVAL = 0.05
#: how long a worker may keep its peers waiting at a superstep barrier
#: (and the parent, once the epoch is aborted) before it counts as
#: wedged.  Generous: it has to cover the slowest superstep's lead over
#: the fastest, not a handshake.
BARRIER_TIMEOUT = 60.0
#: barrier wait: poll this long without sleeping (two workers of one
#: superstep rarely finish further apart), then sleep between polls — a
#: quarter of the time already waited, at most the nap
_BARRIER_SPIN = 200e-6
_BARRIER_NAP = 1e-3


@dataclass
class SupervisionConfig:
    """Tuning knobs for :class:`WorkerSupervisor`.

    The deadline for one superstep is
    ``max(deadline_floor, deadline_factor * ewma)`` where ``ewma`` is
    the exponentially weighted moving average of observed per-worker
    superstep wall times (``ewma_alpha`` weighting the newest sample).
    Before any sample exists the floor alone applies.  A heartbeat is
    considered stale after ``heartbeat_interval * stale_factor``
    seconds without an update.
    """

    #: seconds between heartbeat updates in each worker
    heartbeat_interval: float = 0.05
    #: heartbeat age (in intervals) that counts as a hang
    stale_factor: float = 40.0
    #: superstep deadline as a multiple of the EWMA wall time
    deadline_factor: float = 16.0
    #: absolute minimum superstep deadline, seconds
    deadline_floor: float = 10.0
    #: EWMA smoothing for observed superstep wall times
    ewma_alpha: float = 0.25
    #: liveness-check poll period for bounded waits, seconds
    poll_interval: float = _POLL_INTERVAL
    #: verify per-barrier adler32 checksums of shm slice windows
    shm_checksums: bool = True
    #: total respawns allowed per run before escalating to rollback
    max_respawns: int = 8
    #: bounded-join budget when reaping a worker, seconds
    teardown_timeout: float = 5.0

    @property
    def stale_after(self) -> float:
        """Seconds of heartbeat silence that count as a hang."""
        return self.heartbeat_interval * self.stale_factor


# ---------------------------------------------------------------------------
# bounded-wait helpers (used with and without a supervisor)
# ---------------------------------------------------------------------------

def wait_for_reply(
    conn,
    proc,
    timeout: Optional[float] = None,
    poll_interval: float = _POLL_INTERVAL,
    heartbeat=None,
    stale_after: Optional[float] = None,
    aborted: Optional[Callable[[], bool]] = None,
):
    """Receive one message from ``conn``, bounded by liveness checks.

    Never blocks past ``poll_interval`` without re-checking that the
    worker is alive, so a SIGKILL'd worker surfaces as
    :class:`WorkerCrashError` instead of a deadlock.  ``timeout`` adds
    a hard deadline (``WorkerHangError``); ``heartbeat``/``stale_after``
    add staleness detection (``WorkerHangError`` with ``stale=True``).
    With all three None/absent the wait is unbounded in *time* but
    still bounded by worker liveness — the unsupervised guarantee.
    ``aborted`` (polled at every wake-up) reports that the pool's
    superstep epoch was aborted: a healthy worker then leaves its
    barrier and replies, so from that moment a wait without a deadline
    gets one, :data:`BARRIER_TIMEOUT`.

    A reply that is already buffered — the usual case once replies come
    in chunks — is returned without any of that machinery.
    """
    if conn.poll(0):
        try:
            # poll(0) above bounds this recv
            return conn.recv()
        except (EOFError, OSError):
            pass  # closed mid-reply: the slow path classifies the death
    start = time.monotonic()
    while True:
        step = poll_interval
        if timeout is not None:
            remaining = timeout - (time.monotonic() - start)
            if remaining <= 0:
                raise WorkerHangError(
                    f"worker exceeded its superstep deadline "
                    f"({timeout:.2f}s)", site="supervise.deadline",
                )
            step = min(step, remaining)
        ready = mp_connection.wait([conn, proc.sentinel], timeout=step)
        if conn in ready:
            try:
                # wait() above bounds this recv
                return conn.recv()
            except (EOFError, OSError):
                raise WorkerCrashError(
                    "worker pipe closed mid-reply",
                    exitcode=proc.exitcode, site="supervise.liveness",
                )
        if proc.sentinel in ready:
            # the process died; a reply may still be buffered in the
            # pipe (death after send) — drain it before giving up
            if conn.poll(0):
                try:
                    # poll(0) above bounds this recv
                    return conn.recv()
                except (EOFError, OSError):
                    pass
            proc.join(timeout=poll_interval)
            raise WorkerCrashError(
                f"worker process died (exitcode={proc.exitcode})",
                exitcode=proc.exitcode, site="supervise.liveness",
            )
        if heartbeat is not None and stale_after is not None:
            age = time.monotonic() - heartbeat.value
            if age > stale_after:
                raise WorkerHangError(
                    f"worker heartbeat stale for {age:.2f}s "
                    f"(threshold {stale_after:.2f}s)",
                    stale=True, site="supervise.heartbeat",
                )
        if timeout is None and aborted is not None and aborted():
            timeout = time.monotonic() - start + BARRIER_TIMEOUT


def worker_recv(conn, parent_pid: int, poll_interval: float = 1.0):
    """Worker-side bounded request wait.

    Polls instead of blocking so an orphaned worker (parent died
    without sending "stop") notices and exits rather than lingering
    forever holding shm mappings.  ``parent_pid`` is the pid recorded
    at fork: an orphan is re-parented to *some* reaper — pid 1, a
    subreaper, or a container init that is not pid 1 — so the test is
    "my parent is no longer the process that forked me".
    """
    while True:
        if conn.poll(poll_interval):
            # poll() above bounds this recv
            return conn.recv()
        if os.getppid() != parent_pid:
            raise EOFError("parent process exited")


def wait_for_peers(control, worker: int, barrier: int, parent_pid: int,
                   spin: bool, timeout: Optional[float] = None) -> bool:
    """Worker-side barrier wait: True once every peer of ``worker`` has
    arrived at barrier number ``barrier`` of ``control`` (a
    :class:`~repro.core.shm.ControlBlock`), False as soon as its abort
    word is set.

    Polls the peers' arrival counters for :data:`_BARRIER_SPIN` without
    sleeping — busily when ``spin`` (the caller's "every live worker
    has a core of its own"), else with ``os.sched_yield()`` between
    polls, because spinning on a shared core only delays the peer being
    waited for.  After that it sleeps between polls, a quarter of the
    time already waited and at most :data:`_BARRIER_NAP`, so a long
    wait costs wake-ups, not a core.  The sleeping phase also watches
    for a changed parent pid (``EOFError``, as :func:`worker_recv`) and
    for ``timeout`` (default :data:`BARRIER_TIMEOUT`; ``SimulationError``
    — what an unsupervised pool makes of any lost worker), so a dead or
    wedged peer ends the wait instead of leaving a spinning orphan.
    """
    if timeout is None:
        timeout = BARRIER_TIMEOUT
    waiting = [w for w in range(control.workers) if w != worker]
    start = time.monotonic()
    while True:
        waiting = [w for w in waiting if control.arrived(w) < barrier]
        if not waiting:
            return True
        if control.aborted:
            return False
        waited = time.monotonic() - start
        if waited < _BARRIER_SPIN:
            if not spin:
                os.sched_yield()
            continue
        if waited > timeout:
            raise SimulationError(
                f"processes backend: worker(s) {waiting} did not reach "
                f"superstep barrier {barrier} within {timeout:.2f}s",
                site="supervise.barrier",
            )
        if os.getppid() != parent_pid:
            raise EOFError("parent process exited")
        time.sleep(min(waited / 4, _BARRIER_NAP))


def reap_worker(proc, conn, timeout: float = 5.0) -> None:
    """Bounded, escalating teardown of one worker (never blocks forever).

    stop message → bounded join → SIGCONT (a SIGSTOPped worker ignores
    SIGTERM until resumed) + terminate → kill → close the pipe.  Safe
    to call on an already-dead worker.
    """
    try:
        conn.send(("stop",))
    except (BrokenPipeError, OSError, ValueError):
        pass
    proc.join(timeout=timeout)
    if proc.is_alive():
        try:
            os.kill(proc.pid, signal.SIGCONT)
        except (ProcessLookupError, PermissionError, OSError):
            pass
        proc.terminate()
        proc.join(timeout=timeout)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=timeout)
    try:
        conn.close()
    except OSError:
        pass


def slice_checksum(data_slice) -> int:
    """adler32 over a GPU's slice arrays, in sorted-name order.

    Cheap enough to run per-barrier (~GB/s) and any single-byte flip
    changes it, which is exactly the cross-window corruption model the
    per-barrier integrity check exists to catch.
    """
    total = 1
    for name in sorted(data_slice.arrays):
        arr = data_slice.arrays[name]
        base = np.ascontiguousarray(arr.view(np.ndarray))
        total = zlib.adler32(name.encode("utf-8"), total)
        total = zlib.adler32(base, total)
    return total


# ---------------------------------------------------------------------------
# the supervisor
# ---------------------------------------------------------------------------

class WorkerSupervisor(Observer):
    """Policy + bookkeeping for supervising a real worker pool.

    Owned by the enactor (``Enactor(supervision=SupervisionConfig())``),
    which runs it as its first observer, and attached to the
    :class:`~repro.core.backend.ProcessesBackend`, which consults it at
    every dispatch.  The supervisor itself never touches
    pipes — the backend does the waiting via :func:`wait_for_reply` with
    the deadline/staleness parameters the supervisor computes — it owns
    the escalation *decisions*, the replay shadow, host-fault delivery,
    checksum verification, and the counters; the backend reports its
    events through :meth:`Enactor.emit <repro.core.enactor.Enactor.emit>`.
    """

    def __init__(self, config: SupervisionConfig):
        self.config = config
        self.begin_run(None, None)

    def begin_run(self, enactor, metrics) -> None:
        """Reset per-run state (counters persist across rollbacks
        within one run, not across runs)."""
        # counters mirrored into RunMetrics at run end
        self.worker_respawns = 0
        self.supersteps_replayed = 0
        self.hang_detections = 0
        self.overhead_seconds = 0.0
        self._ewma: Optional[float] = None
        #: (iteration, worker) -> failure count this superstep
        self._failures: Dict[Tuple[int, int], int] = {}
        self._pending_corrupt: List = []

    def end_run(self, metrics) -> None:
        metrics.worker_respawns = self.worker_respawns
        metrics.supersteps_replayed = self.supersteps_replayed
        metrics.hang_detections = self.hang_detections
        metrics.supervision_overhead_seconds = self.overhead_seconds

    # -- deadlines -------------------------------------------------------
    def deadline(self) -> float:
        """Current per-superstep deadline in wall seconds."""
        cfg = self.config
        if self._ewma is None:
            return cfg.deadline_floor
        return max(cfg.deadline_floor, cfg.deadline_factor * self._ewma)

    def observe(self, wall_seconds: float) -> None:
        """Feed one observed per-worker superstep wall time."""
        a = self.config.ewma_alpha
        if self._ewma is None:
            self._ewma = wall_seconds
        else:
            self._ewma = a * wall_seconds + (1.0 - a) * self._ewma

    # -- escalation bookkeeping -----------------------------------------
    def record_failure(self, iteration: int, worker: int) -> int:
        """Count one detected failure; returns the new count for this
        (iteration, worker) superstep."""
        key = (iteration, worker)
        self._failures[key] = self._failures.get(key, 0) + 1
        return self._failures[key]

    def should_escalate(self, iteration: int, worker: int) -> bool:
        """True when the respawn path is exhausted for this superstep:
        the same superstep died twice, or the run's respawn budget is
        spent — convert to the DeviceLostError rollback path."""
        if self._failures.get((iteration, worker), 0) >= 2:
            return True
        return self.worker_respawns >= self.config.max_respawns

    # -- replay shadow ---------------------------------------------------
    def capture_shadow(self, problem, gpu_indices) -> Dict[int, dict]:
        """Copy the dispatched GPUs' slice arrays before the superstep.

        A crashed worker may have written half its shm window; replay
        must start from the pre-superstep state, not torn state.
        """
        t0 = time.perf_counter()
        shadow: Dict[int, dict] = {}
        for g in gpu_indices:
            ds = problem.data_slices[g]
            shadow[g] = {
                name: np.array(arr.view(np.ndarray), copy=True)
                for name, arr in ds.arrays.items()
            }
        self.overhead_seconds += time.perf_counter() - t0
        return shadow

    def restore_shadow(self, problem, shadow: Dict[int, dict],
                       gpu_indices) -> None:
        """Write the shadow copies back into the shm slice windows."""
        t0 = time.perf_counter()
        for g in gpu_indices:
            ds = problem.data_slices[g]
            for name, saved in shadow[g].items():
                arr = ds.arrays.get(name)
                if arr is not None and arr.shape == saved.shape:
                    arr.view(np.ndarray)[...] = saved
        self.overhead_seconds += time.perf_counter() - t0

    # -- shm integrity ---------------------------------------------------
    def verify_digests(self, reported: Dict[int, Optional[int]],
                       recompute) -> List[int]:
        """Check the workers' per-barrier digests against the parent's
        own mappings.

        ``reported`` maps GPU -> the digest its worker computed over
        the GPU's slice windows and exchange payload; ``recompute(gpu)``
        computes the same from the parent's side.  Returns the GPU
        indices that fail verification (empty when clean or checksums
        are disabled).
        """
        if not self.config.shm_checksums:
            return []
        t0 = time.perf_counter()
        bad = [
            g for g, want in sorted(reported.items())
            if want is not None and recompute(g) != want
        ]
        self.overhead_seconds += time.perf_counter() - t0
        return bad

    def integrity_error(self, gpu: int, iteration: int) -> ShmIntegrityError:
        return ShmIntegrityError(
            "shared-memory slice window failed its per-barrier checksum",
            gpu_id=gpu, iteration=iteration, site="supervise.checksum",
        )

    # -- host-level fault delivery --------------------------------------
    def deliver_due_host_faults(
        self, backend, enactor, iteration, only_gpus=None
    ) -> None:
        """Deliver due host-level faults to the real worker pool.

        ``worker-crash`` → SIGKILL the owning worker; ``worker-hang`` →
        SIGSTOP it (detection kills + respawns it, which doubles as the
        resume); ``shm-corrupt`` is deferred until the replies are in,
        then flips a byte in the victim window (see
        :meth:`deliver_pending_corruption`).  Consumed parent-side only
        — worker forks never see host specs fire.  ``only_gpus``
        restricts delivery to one worker's bucket (replay re-delivery:
        a second spec must strike the *replacement*, not burn against a
        different worker that is already being handled).
        """
        inj = enactor.machine.faults
        if inj is None or backend._workers is None:
            return
        from ..sim.faults import SHM_CORRUPT, WORKER_CRASH, WORKER_HANG
        t0 = time.perf_counter()
        for spec in inj.take_due_host_faults(iteration, only_gpus=only_gpus):
            if spec.kind == SHM_CORRUPT:
                self._pending_corrupt.append(spec)
                continue
            w = backend._owner.get(spec.gpu)
            if w is None:
                continue
            proc = backend._workers[w][0]
            try:
                if spec.kind == WORKER_CRASH:
                    os.kill(proc.pid, signal.SIGKILL)
                elif spec.kind == WORKER_HANG:
                    os.kill(proc.pid, signal.SIGSTOP)
            except (ProcessLookupError, OSError):
                pass  # already dead; detection handles it either way
        self.overhead_seconds += time.perf_counter() - t0

    def deliver_pending_corruption(self, problem) -> None:
        """Flip one byte in each pending victim's slice window.

        Runs after all replies are received and before checksum
        verification — modelling a non-owner scribbling on the window
        between the owner's last write and the barrier.
        """
        while self._pending_corrupt:
            spec = self._pending_corrupt.pop(0)
            ds = problem.data_slices[spec.gpu]
            for name in sorted(ds.arrays):
                base = ds.arrays[name].view(np.ndarray)
                if base.nbytes == 0:
                    continue
                raw = base.reshape(-1).view(np.uint8)
                raw[len(raw) // 2] ^= 0xFF
                break
