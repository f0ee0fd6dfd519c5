"""Virtual CUDA streams and events.

Gunrock overlaps computation and communication by putting them on
different ``cudaStream_t``\\ s and expressing cross-GPU dependencies with
``cudaStreamWaitEvent`` (paper Section III-B).  We reproduce exactly that
scheduling discipline on virtual time:

* a :class:`Stream` is a FIFO work queue with an ``available_at`` horizon;
* launching work of duration ``d`` at earliest-start ``t0`` occupies the
  stream for ``[start, start+d)`` where ``start = max(t0, available_at)``;
* an :class:`Event` records a completion time; ``wait_event`` pushes a
  stream's horizon past it without any host intervention, exactly like
  ``cudaStreamWaitEvent``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..errors import SimulationError

__all__ = ["Event", "Stream"]


@dataclass(frozen=True)
class Event:
    """A point on the virtual timeline (analogue of ``cudaEvent_t``)."""

    timestamp: float
    label: str = ""


@dataclass
class Stream:
    """An in-order virtual work queue (analogue of ``cudaStream_t``)."""

    name: str
    available_at: float = 0.0
    #: (start, end, label) of every operation launched, for introspection.
    history: List[Tuple[float, float, str]] = field(default_factory=list)
    record_history: bool = False

    def launch(self, duration: float, earliest_start: float = 0.0,
               label: str = "") -> Event:
        """Enqueue work of ``duration`` seconds; return its completion event.

        ``earliest_start`` expresses data dependencies (e.g. an incoming
        transfer); the work cannot begin before both the stream is free and
        the dependency is satisfied.
        """
        end = self.launch_many(((duration, earliest_start, label),))[0]
        return Event(end, label)

    def launch_many(
        self, ops: Sequence[Tuple[float, float, str]]
    ) -> List[float]:
        """:meth:`launch` for a ledger of ``(duration, earliest_start,
        label)`` ops, in order; returns their completion times.  A
        negative duration raises where a sequence of launches would
        have: the ops before it stay applied."""
        horizon = self.available_at
        ends = [0.0] * len(ops)
        for k, (duration, earliest_start, label) in enumerate(ops):
            if duration < 0:
                raise SimulationError(f"negative duration: {duration}")
            # max(horizon, earliest_start)
            start = earliest_start if earliest_start > horizon else horizon
            self.available_at = horizon = ends[k] = start + duration
            if self.record_history:
                self.history.append((start, horizon, label))
        return ends

    def wait_event(self, event: Event) -> None:
        """``cudaStreamWaitEvent``: future work waits for ``event``."""
        self.available_at = max(self.available_at, event.timestamp)

    def record_event(self, label: str = "") -> Event:
        """``cudaEventRecord``: an event that fires when the queue drains."""
        return Event(self.available_at, label)

    def reset(self) -> None:
        self.available_at = 0.0
        self.history.clear()
