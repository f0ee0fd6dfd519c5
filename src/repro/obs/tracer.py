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

Staging discipline (mirrors ``check.sanitizer.BspSanitizer``): each GPU
superstep is bracketed by :meth:`Tracer.begin_gpu` /
:meth:`Tracer.end_gpu`; everything recorded inside the bracket goes to
that GPU's private staging list and is merged into the global record in
GPU-index order at :meth:`Tracer.on_barrier`.  A ``processes`` worker
ships its GPUs' staging lists to the parent (:meth:`take_staged` /
:meth:`adopt_staged`), so the span and event streams are the same on
every backend.  A rolled-back superstep's staging is
discarded with :meth:`Tracer.drop_staged` — exactly like the enactor
drops the aborted superstep's ``GpuStepEffects`` — so event counts stay
consistent with ``RunMetrics`` recovery counters.

Disabled-cost discipline (mirrors ``sim/faults.py``): every hook site in
the framework holds a plain attribute that is ``None`` by default and
guards the call with a single ``if tracer is None`` check.  The check
costs no Python call, which is what keeps an untraced superstep inside
``tests/core/test_hot_path_guard.py``'s per-superstep call budget and the
benchmark's ``py_calls`` bound; an unguarded call fails at once, on
``None``, in every untraced run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["COMM_TRACK", "SUPERVISOR_TRACK", "Span", "Tracer"]

#: track index of the shared communication row (real GPUs are 0..n-1)
COMM_TRACK = -1

#: track index of the worker-supervision row (processes backend,
#: ``Enactor(supervision=...)``): respawn/lost/stale-heartbeat activity
SUPERVISOR_TRACK = -2


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
        """Event-bus (JSONL) representation."""
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


class Tracer:
    """Collects :class:`Span` objects and structured events.

    Attach to a run by passing ``tracer=`` to the enactor (or the
    ``run_*`` convenience runners); attach a
    :class:`repro.obs.events.EventBus` to stream records out as JSONL.
    """

    def __init__(self, bus=None):
        self.bus = bus
        self.spans: List[Span] = []
        self.events: List[dict] = []
        #: wall-clock per-operator aggregate: name -> [calls, seconds]
        self.op_wall: Dict[str, List[float]] = {}
        self.primitive = ""
        self.backend = ""
        self.num_gpus = 0
        self._staging: Dict[int, List[tuple]] = {}
        #: the open GPU bracket: its staging list (None outside one),
        #: GPU and superstep — the defaults of :meth:`span`
        self._current: Optional[List[tuple]] = None
        self._gpu = 0
        self._iteration = -1
        self._wall0 = time.perf_counter()

    # -- clocks ---------------------------------------------------------------
    def wall(self) -> float:
        """Seconds of wall-clock time since the tracer was created."""
        return time.perf_counter() - self._wall0

    # -- run / superstep brackets --------------------------------------------
    def begin_run(self, primitive: str, num_gpus: int, backend: str = "") -> None:
        self.primitive = str(primitive)
        self.num_gpus = int(num_gpus)
        self.backend = str(backend)
        self.instant(
            "run.begin",
            vt=0.0,
            primitive=self.primitive,
            num_gpus=self.num_gpus,
            backend=self.backend,
        )

    def end_run(self, **fields) -> None:
        self.instant("run.end", **fields)

    def begin_gpu(self, gpu: int, iteration: int) -> None:
        """Enter one GPU's superstep."""
        self._current = self._staging.setdefault(int(gpu), [])
        self._gpu = int(gpu)
        self._iteration = int(iteration)

    def end_gpu(self) -> None:
        """Leave the superstep bracket."""
        self._current = None

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
        staged = self._current
        if staged is not None:
            staged.append(("span", s))
        else:
            self._commit_span(s)
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
        staged = self._current
        if staged is not None:
            staged.append(("event", rec))
        else:
            self._commit_event(rec)
        return rec

    def op_wall_sample(self, name: str, seconds: float) -> None:
        """Add one wall-clock sample to the per-operator aggregate."""
        staged = self._current
        if staged is not None:
            staged.append(("wall", name, float(seconds)))
        else:
            self._merge_wall(name, float(seconds))

    # -- barrier merge / rollback --------------------------------------------
    def on_barrier(self, iteration: int) -> None:
        """Merge all staged records in GPU-index order (deterministic)."""
        staged = sorted(self._staging.items())
        self._staging = {}
        for _gpu, entries in staged:
            for entry in entries:
                kind = entry[0]
                if kind == "span":
                    self._commit_span(entry[1])
                elif kind == "event":
                    self._commit_event(entry[1])
                else:
                    self._merge_wall(entry[1], entry[2])

    def take_staged(self, gpu: int) -> List[tuple]:
        """Pop one GPU's staged records (processes-backend worker side:
        the staged entries ship to the parent in the sidecar)."""
        return self._staging.pop(int(gpu), [])

    def adopt_staged(self, gpu: int, entries: List[tuple]) -> None:
        """Stage records produced by a worker process for this GPU, to be
        merged (or dropped, on rollback) exactly like locally staged
        ones."""
        self._staging.setdefault(int(gpu), []).extend(entries)

    def drop_staged(self) -> None:
        """Discard staged records of an aborted superstep (rollback)."""
        self._staging = {}
        # an aborted superstep never reaches end_gpu(); close its bracket
        # so recovery instants commit instead of landing in an orphaned
        # staging list
        self._current = None

    def clear(self) -> None:
        """Forget everything recorded (benchmark repeats reuse one
        tracer)."""
        self.drop_staged()
        self.spans.clear()
        self.events.clear()
        self.op_wall.clear()

    # -- views ----------------------------------------------------------------
    def spans_of(self, cat: str) -> List[Span]:
        return [s for s in self.spans if s.cat == cat]

    def events_of(self, type_: str) -> List[dict]:
        return [e for e in self.events if e.get("type") == type_]

    def count(self, type_: str) -> int:
        return len(self.events_of(type_))

    # -- internals ------------------------------------------------------------
    def _commit_span(self, s: Span) -> None:
        self.spans.append(s)
        if self.bus is not None:
            self.bus.emit(s.to_record())

    def _commit_event(self, rec: dict) -> None:
        self.events.append(rec)
        if self.bus is not None:
            self.bus.emit(rec)

    def _merge_wall(self, name: str, seconds: float) -> None:
        ent = self.op_wall.setdefault(name, [0, 0.0])
        ent[0] += 1
        ent[1] += seconds
