"""Span-based tracer for the virtual multi-GPU machine.

Records what the virtual machine *did* on two clocks at once:

* the **virtual clock** — the simulated timeline the cost model charges
  (``Stream.launch`` timestamps), which is what every performance claim
  in the repro is made on; and
* the **wall clock** — real ``time.perf_counter`` time, what the host
  actually spent.

Spans live on one track per virtual GPU plus a shared communication
track (:data:`COMM_TRACK`).  The tracer is a pure observer: it never
launches work, never advances a stream, and never touches result
arrays, so a traced run is bit-identical to an untraced one.

The tracer is an enactor observer (docs/observability.md,
"Observers"): what a GPU's superstep records is staged between
:meth:`Tracer.on_superstep_start` and :meth:`Tracer.on_superstep_end`,
rides the GPU's ``GpuStepEffects.stages`` — out of a ``processes``
worker too — and is committed by :meth:`Tracer.on_effects` in GPU-index
order, so the span and event streams are the same on every backend and
a rolled-back superstep's records are dropped with its effects.  Off
the observer loops, the fine-grained hook sites (operators,
communication, the machine) take the tracer as an argument that is
``None`` untraced, behind one ``if tracer is None`` check: no Python
call, so untraced runs keep their ``py_calls``.

The tracer is the run's one recorder: the Chrome trace, the JSONL event
stream (a ``sink`` callable), the profile, the critical-path report,
the timeline and the crash dump (:meth:`Tracer.on_error`) are all views
of what it recorded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.observer import Observer
from .events import EVENT_SCHEMA_VERSION

__all__ = ["COMM_TRACK", "DUMP_EVENTS", "Span", "Tracer"]

#: track index of the shared communication row (real GPUs are 0..n-1)
COMM_TRACK = -1

#: how many trailing events a crash dump carries
DUMP_EVENTS = 4096


@dataclass
class Span:
    """One timed interval on one track of the trace."""

    name: str
    #: "op" (operator launch), "superstep", or "comm" (inter-GPU send)
    cat: str
    #: GPU index, or :data:`COMM_TRACK` for the communication row
    track: int
    iteration: int
    #: virtual-clock start/duration in (virtual) seconds
    vt_start: float
    vt_dur: float
    #: wall-clock start/duration in seconds since the tracer was created;
    #: zero for spans that only exist on the virtual timeline
    wall_start: float = 0.0
    wall_dur: float = 0.0
    args: Dict[str, Any] = field(default_factory=dict)

    def key(self) -> Tuple:
        """Identity on the virtual timeline only — wall clock excluded,
        so backend-invariance tests can compare serial vs processes."""
        return (
            self.cat,
            self.name,
            self.track,
            self.iteration,
            round(self.vt_start, 12),
            round(self.vt_dur, 12),
        )

    def to_record(self) -> dict:
        """JSONL event representation."""
        rec: Dict[str, Any] = {
            "type": "span",
            "cat": self.cat,
            "name": self.name,
            "gpu": self.track,
            "iteration": self.iteration,
            "vt": self.vt_start,
            "dur": self.vt_dur,
        }
        if self.wall_dur:
            rec["wall"] = self.wall_start
            rec["wall_dur"] = self.wall_dur
        if self.args:
            rec["args"] = dict(self.args)
        return rec


class Tracer(Observer):
    """Collects :class:`Span` objects and structured events.

    Attach to a run by passing ``tracer=`` to the enactor (or the
    ``run_*`` convenience runners).  ``sink`` is called with each
    committed record, in commit order — a
    :class:`repro.obs.events.JsonlWriter` streams them out as JSONL.
    """

    def __init__(self, sink: Optional[Callable[[dict], None]] = None):
        self.sink = sink
        self.spans: List[Span] = []
        self.events: List[dict] = []
        #: crash reports :meth:`on_error` took, oldest first
        self.dumps: List[dict] = []
        #: the live RunMetrics of the current (or last) run
        self.metrics = None
        #: wall-clock per-operator aggregate: name -> [calls, seconds]
        self.op_wall: Dict[str, List[float]] = {}
        self.primitive = ""
        self.backend = ""
        self.num_gpus = 0
        #: where a record goes: the open GPU bracket's staging list
        #: (``_staged``) or, outside one, straight to :meth:`_commit`;
        #: the bracket's GPU and superstep are the defaults of :meth:`span`
        self._staged: List[tuple] = []
        self._record = self._commit
        self._gpu = 0
        self._iteration = -1
        #: the open bracket's start on both clocks
        self._turn = (0.0, 0.0)
        #: gpu -> last traversal direction, and the merge's changes of it
        self._last_dirs: Dict[int, str] = {}
        self._switches: List[tuple] = []
        self._wall0 = time.perf_counter()

    # -- clocks ---------------------------------------------------------------
    def wall(self) -> float:
        """Seconds of wall-clock time since the tracer was created."""
        return time.perf_counter() - self._wall0

    # -- the observer hooks: run and superstep brackets ----------------------
    def begin_run(self, enactor, metrics) -> None:
        # a run that raised mid-superstep never closed its bracket
        self._record = self._commit
        self._last_dirs = {}
        self._switches = []
        self.metrics = metrics
        self.primitive = str(metrics.primitive)
        self.num_gpus = int(metrics.num_gpus)
        self.backend = str(enactor.backend.name)
        self.instant("run.begin", vt=0.0, primitive=self.primitive,
                     num_gpus=self.num_gpus, backend=self.backend)

    def end_run(self, metrics) -> None:
        self.instant(
            "run.end", vt=metrics.elapsed, elapsed=metrics.elapsed,
            supersteps=len(metrics.iterations),
        )

    def on_superstep_start(self, gpu, iteration, vt, frontier) -> None:
        """Enter one GPU's superstep: stage what is recorded until
        :meth:`on_superstep_end`, from its ``superstep.begin`` on."""
        self._staged = []
        self._record = self._staged.append
        self._gpu = int(gpu)
        self._iteration = int(iteration)
        self._turn = (vt, self.wall())
        self.instant(
            "superstep.begin", vt=vt, gpu=gpu, iteration=iteration,
            frontier=int(frontier.size),
        )

    def on_superstep_end(self, vt: float, eff) -> List[tuple]:
        """Leave the bracket with its span and ``superstep.end``
        instant; return what it staged."""
        vt0, wall0 = self._turn
        self.span(
            "superstep", f"superstep {self._iteration}", vt0, vt - vt0,
            track=self._gpu, wall_start=wall0, wall_dur=self.wall() - wall0,
            frontier=eff.frontier_size, edges=int(eff.edges_visited),
        )
        self.instant(
            "superstep.end", vt=vt, gpu=eff.gpu, iteration=self._iteration,
            out=int(eff.frontier.size),
        )
        self._record = self._commit
        return self._staged

    def on_effects(self, eff, stage: List[tuple]) -> None:
        """Commit one GPU's staged records (the merge runs in GPU-index
        order) and note a change of its traversal direction."""
        for entry in stage:
            self._commit(entry)
        if eff.direction:
            prev = self._last_dirs.get(eff.gpu)
            self._last_dirs[eff.gpu] = eff.direction
            if prev is not None and prev != eff.direction:
                self._switches.append((eff.gpu, prev, eff.direction))

    def on_barrier(self, enactor, iteration: int, rec) -> None:
        """One ``direction.switch`` instant per direction change the
        merge noted."""
        for gpu, before, after in self._switches:
            self.instant(
                "direction.switch", vt=enactor.machine.clock.now,
                gpu=gpu, iteration=iteration, before=before, after=after,
            )
        self._switches = []

    def on_error(self, reason: str, error: Optional[BaseException] = None,
                 faults=None, **extra) -> dict:
        """Take a crash report, keep it on :attr:`dumps` and return it.

        The report is a ``recorder.dump`` event record: the last
        :data:`DUMP_EVENTS` committed events, the live RunMetrics (its
        per-superstep records included), the error and the state of the
        machine's :class:`~repro.sim.faults.FaultInjector` (its injected
        counters and plan size, never the object).  The caller writes
        it to a file, if it wants one.
        """
        report: Dict[str, Any] = {
            "type": "recorder.dump",
            "schema_version": EVENT_SCHEMA_VERSION,
            "reason": str(reason),
            "primitive": self.primitive,
            "backend": self.backend,
            "num_gpus": self.num_gpus,
            "wall_s": self.wall(),
            "recorded": len(self.events),
            "events": self.events[-DUMP_EVENTS:],
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
        return report

    # -- recording ------------------------------------------------------------
    def span(
        self,
        cat: str,
        name: str,
        vt_start: float,
        vt_dur: float,
        track: Optional[int] = None,
        iteration: Optional[int] = None,
        wall_start: float = 0.0,
        wall_dur: float = 0.0,
        **args,
    ) -> Span:
        """Record a span; staged when inside a GPU bracket."""
        if track is None:
            track = self._gpu
        if iteration is None:
            iteration = self._iteration
        s = Span(
            name=name,
            cat=cat,
            track=int(track),
            iteration=int(iteration),
            vt_start=float(vt_start),
            vt_dur=float(vt_dur),
            wall_start=float(wall_start),
            wall_dur=float(wall_dur),
            args=args,
        )
        self._record(("span", s))
        return s

    def op_span(self, gpu: int, stats, vt_start: float, vt_dur: float) -> Span:
        """Record one operator launch from its ``OpStats``."""
        return self.span(
            "op",
            stats.name,
            vt_start,
            vt_dur,
            track=gpu,
            edges=int(stats.edges_visited),
            items_in=int(stats.input_size),
            items_out=int(stats.output_size),
        )

    def instant(self, type_: str, vt: Optional[float] = None, **fields) -> dict:
        """Record a structured point event (no duration)."""
        rec: Dict[str, Any] = {"type": str(type_)}
        if vt is not None:
            rec["vt"] = float(vt)
        rec.update(fields)
        self._record(("event", rec))
        return rec

    def op_wall_sample(self, name: str, seconds: float) -> None:
        """Add one wall-clock sample to the per-operator aggregate."""
        self._record(("wall", name, float(seconds)))

    def clear(self) -> None:
        """Forget everything recorded (benchmark repeats reuse one
        tracer)."""
        self._record = self._commit
        self.spans.clear()
        self.events.clear()
        self.op_wall.clear()
        self.dumps.clear()
        self.metrics = None

    # -- views ----------------------------------------------------------------
    def spans_of(self, cat: str) -> List[Span]:
        return [s for s in self.spans if s.cat == cat]

    def events_of(self, type_: str) -> List[dict]:
        return [e for e in self.events if e.get("type") == type_]

    def count(self, type_: str) -> int:
        return len(self.events_of(type_))

    # -- internals ------------------------------------------------------------
    def _commit(self, entry: tuple) -> None:
        """Commit one record: ``("span", Span)``, ``("event", dict)`` or
        ``("wall", name, seconds)``."""
        kind, item = entry[0], entry[1]
        if kind == "span":
            self.spans.append(item)
            if self.sink is not None:
                self.sink(item.to_record())
        elif kind == "event":
            self.events.append(item)
            if self.sink is not None:
                self.sink(item)
        else:
            ent = self.op_wall.setdefault(item, [0, 0.0])
            ent[0] += 1
            ent[1] += entry[2]
