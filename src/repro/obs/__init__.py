"""Observability for the virtual multi-GPU machine (docs/observability.md).

Five cooperating layers, all strictly *observers* — none of them may
touch the virtual clock, the streams, or any result array, so a traced
run is bit-identical to an untraced one:

* :mod:`repro.obs.tracer` — span-based tracing with one track per
  virtual GPU plus a communication track, on both the virtual clock and
  the wall clock.  Backend-invariant via per-GPU staging merged in
  GPU-index order at barriers (the sanitizer's discipline), and
  zero-overhead when disabled via the ``tracer is None`` fast path
  everywhere (the ``sim/faults.py`` discipline: the check costs no
  Python call, so untraced runs keep their ``py_calls``).
* :mod:`repro.obs.events` — a structured event bus emitting JSONL
  records for superstep boundaries, operator calls, communication
  stages, DOBFS direction switches, checkpoint/recovery actions, and
  sanitizer hazards.
* :mod:`repro.obs.chrome_trace` / :mod:`repro.obs.profile` — exporters:
  Chrome ``trace_event`` JSON viewable in Perfetto, and a per-operator
  hot-spot table mapped onto the paper's W/H/C/S cost terms.
* :mod:`repro.obs.critical_path` — trace analytics: per-superstep
  critical paths on the virtual clock, barrier slack attributed into
  W/H/C/S per GPU, straggler/imbalance detection, and zero-comm /
  perfect-balance what-if estimates (``repro analyze``).
* :mod:`repro.obs.recorder` / :mod:`repro.obs.metrics_export` — the
  always-on tier: a bounded flight recorder that dumps a crash report
  when a run dies, and OpenMetrics text exposition of RunMetrics.
"""

from .chrome_trace import (
    export_chrome_trace,
    load_chrome_trace,
    summarize_chrome_trace,
    to_chrome_trace,
    validate_chrome_trace,
)
from .critical_path import TraceData, analyze_trace, render_analysis
from .events import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    RECOVERY_EVENT_TYPES,
    EventBus,
    JsonlWriter,
    validate_event,
    validate_events_jsonl,
)
from .metrics_export import to_openmetrics, write_openmetrics
from .profile import profile_rows, render_profile, term_of_span
from .recorder import FlightRecorder
from .tracer import COMM_TRACK, Span, Tracer

__all__ = [
    "COMM_TRACK",
    "Span",
    "Tracer",
    "EventBus",
    "JsonlWriter",
    "EVENT_SCHEMA_VERSION",
    "EVENT_TYPES",
    "RECOVERY_EVENT_TYPES",
    "validate_event",
    "validate_events_jsonl",
    "to_chrome_trace",
    "export_chrome_trace",
    "load_chrome_trace",
    "validate_chrome_trace",
    "summarize_chrome_trace",
    "term_of_span",
    "profile_rows",
    "render_profile",
    "TraceData",
    "analyze_trace",
    "render_analysis",
    "FlightRecorder",
    "to_openmetrics",
    "write_openmetrics",
]
