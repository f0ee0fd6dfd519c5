"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch framework errors without catching programming errors (``TypeError``
etc. are still raised for API misuse at the boundary).

Every :class:`ReproError` carries optional structured fault context —
``gpu_id``, ``iteration``, ``site`` — so a failure deep inside a superstep
is attributable (which GPU, which BSP iteration, which subsystem) without
a debugger.  Context is appended to ``str(exc)`` when present.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "GraphFormatError",
    "PartitionError",
    "DeviceMemoryError",
    "DeviceLostError",
    "SimulationError",
    "ConvergenceError",
    "CommunicationError",
    "WorkerCrashError",
    "WorkerHangError",
]


def _rebuild_error(cls, args, gpu_id, iteration, site):
    """Unpickle helper: reconstruct a :class:`ReproError` with context."""
    exc = cls(*args)
    exc.gpu_id = gpu_id
    exc.iteration = iteration
    exc.site = site
    return exc


class ReproError(Exception):
    """Base class for all library errors.

    Parameters
    ----------
    message:
        Human-readable description of the failure.
    gpu_id:
        Virtual GPU the failure is attributed to, if any.
    iteration:
        BSP superstep during which the failure occurred, if known.
    site:
        Subsystem/location tag, e.g. ``"interconnect.send[0->1]"`` or
        ``"memory.alloc[bfs#0.fin]"``.
    """

    def __init__(
        self,
        message: str = "",
        *args: object,
        gpu_id: Optional[int] = None,
        iteration: Optional[int] = None,
        site: Optional[str] = None,
    ):
        super().__init__(message, *args)
        self.gpu_id = gpu_id
        self.iteration = iteration
        self.site = site

    def __reduce__(self):
        # default Exception pickling replays only positional args, which
        # would drop the keyword-only context; the processes execution
        # backend ships these across worker pipes, so preserve it
        return (_rebuild_error, (
            type(self), self.args, self.gpu_id, self.iteration, self.site,
        ))

    def __str__(self) -> str:
        base = super().__str__()
        parts = []
        if self.gpu_id is not None:
            parts.append(f"gpu={self.gpu_id}")
        if self.iteration is not None:
            parts.append(f"iteration={self.iteration}")
        if self.site is not None:
            parts.append(f"site={self.site}")
        if not parts:
            return base
        return f"{base} [{' '.join(parts)}]"


class GraphFormatError(ReproError):
    """Malformed graph input (bad CSR offsets, out-of-range vertex IDs...)."""


class PartitionError(ReproError):
    """Invalid partition (wrong table sizes, empty required partition...)."""


class DeviceMemoryError(ReproError):
    """A virtual GPU ran out of memory.

    Raised by :class:`repro.sim.memory.MemoryPool` when an allocation would
    exceed device capacity.  This is the simulated analogue of
    ``cudaErrorMemoryAllocation`` and is what the just-enough allocation
    scheme (paper Section VI-B) exists to avoid.
    """


class DeviceLostError(ReproError):
    """A virtual GPU was lost permanently (``cudaErrorDeviceUnavailable``).

    Unlike :class:`DeviceMemoryError` or a transient
    :class:`CommunicationError`, this is not retryable on the same device:
    recovery requires rolling back to a checkpoint and repartitioning the
    lost GPU's subgraph onto the survivors (see ``docs/robustness.md``).
    """


class SimulationError(ReproError):
    """Inconsistent simulator state (negative time, bad stream deps...)."""


class ConvergenceError(ReproError):
    """A primitive failed to converge within its iteration budget."""


class CommunicationError(ReproError):
    """Malformed inter-GPU message (size mismatch, unknown peer...)."""


class WorkerCrashError(ReproError):
    """A real worker process of the processes backend died.

    Detected by the pool's bounded waits (pipe EOF, readable process
    sentinel, or a non-None ``Process.exitcode``) instead of blocking
    forever on an unbounded ``recv()``.  ``exitcode`` carries the OS
    exit status when known (negative = killed by that signal number,
    e.g. ``-9`` for SIGKILL).
    """

    def __init__(self, message: str = "", *args: object,
                 exitcode: Optional[int] = None, **kwargs):
        super().__init__(message, *args, **kwargs)
        self.exitcode = exitcode


class WorkerHangError(ReproError):
    """A worker process stopped making progress without dying.

    Raised when a wait on a worker outlives its deadline — once the
    pool's epoch is aborted, a worker that still does not reply within
    ``BARRIER_TIMEOUT`` counts as wedged (:mod:`repro.core.supervise`).
    """
