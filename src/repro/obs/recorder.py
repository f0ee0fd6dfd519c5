"""Always-on flight recorder: a bounded ring of recent activity.

The tracer records *everything* and therefore costs memory proportional
to run length, so production runs leave it off — and when one of those
runs dies, there is nothing to look at.  The flight recorder is the
other point on the trade-off curve: a fixed-size ``collections.deque``
ring of the most recent events plus a short window of per-superstep
summaries, meant to be cheap enough to leave attached to every run.

Appends never grow memory past the configured capacity — the deque's
``maxlen`` drops the oldest entry in C.  The recorder is an enactor
observer (docs/observability.md, "Observers"): its ring holds every
instant ``Enactor.emit`` sends and one ``superstep.end`` per superstep.

When something goes wrong — a :class:`~repro.errors.ReproError`
propagates out of ``enact()`` (on any backend, a lost ``processes``
worker included) or a chaos cell fails — :meth:`FlightRecorder.on_error`
snapshots the ring into a crash report: the last *k* superstep
summaries, recent events, the :class:`~repro.sim.metrics.RunMetrics`
accumulated so far, and the fault plan's injection state.  The report
is a valid ``recorder.dump`` event record, written to ``path`` when one
is configured and always kept on :attr:`FlightRecorder.dumps`.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Any, Dict, List, Optional

from ..core.observer import Observer
from .events import EVENT_SCHEMA_VERSION

__all__ = ["FlightRecorder"]


class FlightRecorder(Observer):
    """Bounded ring buffer of recent run activity with crash dumps.

    Parameters
    ----------
    capacity:
        Maximum retained event records; older entries are dropped.
    keep_supersteps:
        How many trailing per-superstep summaries a dump includes.
    path:
        Optional file the next crash report is written to (JSON).
    """

    def __init__(self, capacity: int = 4096, keep_supersteps: int = 8,
                 path=None):
        self.capacity = int(capacity)
        self.keep_supersteps = int(keep_supersteps)
        self.path = path
        self.ring: deque = deque(maxlen=self.capacity)
        self.supersteps: deque = deque(maxlen=self.keep_supersteps)
        self.recorded = 0
        self.dumps: List[dict] = []
        self.metrics = None
        self.primitive = ""
        self.backend = ""
        self.num_gpus = 0
        self._wall0 = time.perf_counter()

    # -- the observer hooks ---------------------------------------------------
    def begin_run(self, enactor, metrics) -> None:
        """Remember the run and its live RunMetrics, which dumps
        snapshot."""
        self.primitive = str(metrics.primitive)
        self.backend = str(enactor.backend.name)
        self.num_gpus = int(metrics.num_gpus)
        self.metrics = metrics

    def instant(self, type_: str, vt: Optional[float] = None,
                **fields) -> None:
        """Append one event to the ring (drops the oldest at capacity)."""
        rec: Dict[str, Any] = {"type": str(type_)}
        if vt is not None:
            rec["vt"] = float(vt)
        rec.update(fields)
        self.ring.append(rec)
        self.recorded += 1

    def on_barrier(self, enactor, iteration: int, rec) -> None:
        """Keep a compact summary of one finished superstep."""
        vt = enactor.machine.clock.now
        self.supersteps.append(
            {
                "iteration": int(iteration),
                "vt": float(vt),
                "duration": float(rec.duration),
                "frontier": int(rec.frontier_size),
                "direction": rec.direction,
                "edges": int(sum(rec.edges_visited.values())),
            }
        )
        self.instant(
            "superstep.end", vt=vt, iteration=int(iteration),
            frontier=int(rec.frontier_size),
        )

    # -- crash reports --------------------------------------------------------
    def on_error(self, reason: str, error: Optional[BaseException] = None,
                 faults=None, **extra) -> dict:
        """Snapshot the ring into a crash report and return it.

        The report is shaped as a ``recorder.dump`` event record so it
        validates against the JSONL event schema.  ``faults`` is the
        machine's :class:`~repro.sim.faults.FaultInjector` (its
        injected counters and plan size are recorded, never the object).
        """
        report: Dict[str, Any] = {
            "type": "recorder.dump",
            "schema_version": EVENT_SCHEMA_VERSION,
            "reason": str(reason),
            "primitive": self.primitive,
            "backend": self.backend,
            "num_gpus": self.num_gpus,
            "wall_s": time.perf_counter() - self._wall0,
            "recorded": self.recorded,
            "capacity": self.capacity,
            "events": list(self.ring),
            "supersteps": list(self.supersteps),
        }
        if error is not None:
            report["error"] = {
                "class": type(error).__name__,
                "message": str(error),
                "gpu": getattr(error, "gpu_id", None),
                "iteration": getattr(error, "iteration", None),
                "site": getattr(error, "site", None),
            }
        if faults is not None:
            report["pending_faults"] = {
                "injected": dict(faults.injected),
                "planned": len(faults.plan.faults),
            }
        if self.metrics is not None:
            report["metrics"] = self.metrics.to_dict()
        report.update(extra)
        self.dumps.append(report)
        if self.path is not None:
            with open(self.path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True, default=str)
        return report

    def clear(self) -> None:
        """Forget everything recorded (benchmark repeats reuse one
        recorder)."""
        self.ring.clear()
        self.supersteps.clear()
        self.dumps.clear()
        self.recorded = 0
        self.metrics = None
