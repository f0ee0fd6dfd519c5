"""Bounded waits for the processes backend's real worker pool.

The fault machinery of :mod:`repro.sim.faults` is *virtual* — it
injects modelled events — but the processes backend runs real OS
processes where real failures happen: a worker SIGKILL'd by the OOM
killer or stopped by a signal must not leave the parent, or a peer
waiting at a superstep barrier, blocked forever on an unbounded
``recv()`` or ``join()``.  Every wait of the pool goes through one of
these helpers:

* :func:`wait_for_reply` — the parent's receive from one worker,
  bounded by the worker's liveness (pipe EOF, a readable
  ``Process.sentinel``) and, once the epoch is aborted, by
  :data:`BARRIER_TIMEOUT`;
* :func:`worker_recv` — a worker's request wait, which notices that
  its parent is gone;
* :func:`wait_for_peers` — a worker's superstep barrier, bounded by the
  abort word, :data:`BARRIER_TIMEOUT` and the parent's liveness;
* :func:`reap_worker` — bounded, escalating teardown of one worker.

A worker lost mid-run ends the run in a
:class:`~repro.errors.SimulationError` and a reaped pool
(docs/robustness.md, "Worker liveness").
"""

from __future__ import annotations

import os
import signal
import time
from multiprocessing import connection as mp_connection
from typing import Callable, Optional

from ..errors import SimulationError, WorkerCrashError, WorkerHangError

__all__ = [
    "wait_for_reply",
    "worker_recv",
    "wait_for_peers",
    "reap_worker",
    "BARRIER_TIMEOUT",
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


def wait_for_reply(
    conn,
    proc,
    timeout: Optional[float] = None,
    poll_interval: float = _POLL_INTERVAL,
    aborted: Optional[Callable[[], bool]] = None,
):
    """Receive one message from ``conn``, bounded by liveness checks.

    Never blocks past ``poll_interval`` without re-checking that the
    worker is alive, so a SIGKILL'd worker surfaces as
    :class:`WorkerCrashError` instead of a deadlock.  ``timeout`` adds
    a hard deadline (``WorkerHangError``).  Without one the wait is
    unbounded in *time* but still bounded by worker liveness.
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
    — what the pool makes of any lost worker), so a dead or
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
