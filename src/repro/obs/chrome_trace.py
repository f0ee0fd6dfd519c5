"""Chrome ``trace_event`` export for tracer data (Perfetto-loadable).

Layout:

* ``pid 0`` — the **virtual clock**: one thread row per virtual GPU plus
  a ``comm`` row for inter-GPU sends; operator/superstep/comm spans are
  complete (``"X"``) events with microsecond ``ts``/``dur`` derived from
  virtual seconds, and recovery/checkpoint/barrier/direction events are
  instants (``"i"``).
* ``pid 1`` — the **wall clock**: superstep spans re-plotted on real
  time, which is where the host's own cost per superstep becomes
  visible.

Open the file at https://ui.perfetto.dev (or ``chrome://tracing``).
"""

from __future__ import annotations

import json
from typing import Dict, List

from .events import RECOVERY_EVENT_TYPES
from .tracer import COMM_TRACK, Tracer

__all__ = [
    "to_chrome_trace",
    "export_chrome_trace",
    "load_chrome_trace",
    "validate_chrome_trace",
    "summarize_chrome_trace",
]

#: event types rendered as instants on the virtual-clock process
INSTANT_TYPES = frozenset(
    {
        "barrier",
        "direction.switch",
        "checkpoint",
        "checkpoint.capture",
        "recovery.retry",
        "recovery.oom-regrow",
        "recovery.gpu-loss",
        "recovery.rollback",
        "recovery.restore-routed",
        "sanitizer.hazard",
        "mc.divergence",
    }
)

#: instant names counted into the summarizer's checkpoint/recovery
#: bucket (``repro trace`` surfaces them even when the run recovered
#: quietly)
_RECOVERY_INSTANTS = (
    RECOVERY_EVENT_TYPES
    | {"checkpoint", "checkpoint.capture", "recovery.restore-routed"}
)

_US = 1e6  # virtual seconds -> trace microseconds


def _num_tracks(tracer: Tracer) -> int:
    n = tracer.num_gpus
    for s in tracer.spans:
        if s.track >= n:
            n = s.track + 1
    return max(n, 1)


def to_chrome_trace(tracer: Tracer) -> dict:
    """Build the Chrome ``trace_event`` JSON object for a traced run."""
    num_gpus = _num_tracks(tracer)
    comm_tid = num_gpus
    events: List[dict] = []

    def meta(pid: int, tid: int, name: str, value: str) -> None:
        events.append(
            {"ph": "M", "pid": pid, "tid": tid, "name": name,
             "args": {"name": value}}
        )

    meta(0, 0, "process_name", "virtual multi-GPU machine (virtual clock)")
    meta(1, 0, "process_name", "simulation wall clock")
    for g in range(num_gpus):
        meta(0, g, "thread_name", f"GPU {g}")
        meta(1, g, "thread_name", f"GPU {g} (wall)")
    meta(0, comm_tid, "thread_name", "comm")

    for s in tracer.spans:
        tid = comm_tid if s.track == COMM_TRACK else s.track
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "name": s.name,
                "cat": s.cat,
                "ts": s.vt_start * _US,
                "dur": s.vt_dur * _US,
                "args": {"iteration": s.iteration, **s.args},
            }
        )
        if s.cat == "superstep" and s.wall_dur > 0:
            events.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "name": s.name,
                    "cat": "wall",
                    "ts": s.wall_start * _US,
                    "dur": s.wall_dur * _US,
                    "args": {"iteration": s.iteration, **s.args},
                }
            )

    for e in tracer.events:
        etype = e.get("type")
        if etype not in INSTANT_TYPES or "vt" not in e:
            continue
        gpu = e.get("gpu")
        tid = (gpu if isinstance(gpu, int) and 0 <= gpu < num_gpus
               else comm_tid)
        events.append(
            {
                "ph": "i",
                "pid": 0,
                "tid": tid,
                "name": etype,
                "s": "t" if isinstance(gpu, int) else "g",
                "ts": e["vt"] * _US,
                "args": {k: v for k, v in e.items() if k not in ("type", "vt")},
            }
        )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "primitive": tracer.primitive,
            "backend": tracer.backend,
            "num_gpus": num_gpus,
        },
    }


def export_chrome_trace(tracer: Tracer, path) -> dict:
    """Write the Chrome trace JSON to ``path``; returns the object."""
    trace = to_chrome_trace(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return trace


def load_chrome_trace(path) -> dict:
    """Read back a Chrome-trace JSON file written by ``export_chrome_trace``."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def validate_chrome_trace(trace) -> List[str]:
    """Return structural problems for a Chrome trace object ([] = OK).

    Checks both trace_event well-formedness (Perfetto loadability) and
    the repro's own layout contract: per-GPU thread rows, a comm row,
    and at least one operator span on a GPU track.
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return ["trace is not a JSON object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["missing 'traceEvents' list"]
    thread_names: List[str] = []
    gpu_span = False
    for idx, ev in enumerate(events):
        where = f"traceEvents[{idx}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append(f"{where}: unsupported ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            problems.append(f"{where}: missing or non-string 'name'")
        for fld in ("pid", "tid"):
            if not isinstance(ev.get(fld), int):
                problems.append(f"{where}: missing or non-integer {fld!r}")
        if ph in ("X", "i"):
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or isinstance(ts, bool):
                problems.append(f"{where}: missing or non-numeric 'ts'")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool):
                problems.append(f"{where}: missing or non-numeric 'dur'")
            elif dur < 0:
                problems.append(f"{where}: negative 'dur'")
            if ev.get("pid") == 0 and ev.get("cat") in ("op", "superstep"):
                gpu_span = True
        if ph == "i" and ev.get("s") not in (None, "g", "p", "t"):
            problems.append(f"{where}: bad instant scope {ev.get('s')!r}")
        if ph == "M" and ev.get("name") == "thread_name":
            args = ev.get("args")
            if isinstance(args, dict) and isinstance(args.get("name"), str):
                thread_names.append(args["name"])
            else:
                problems.append(f"{where}: thread_name without args.name")
    if not any(n.startswith("GPU ") for n in thread_names):
        problems.append("no per-GPU thread_name metadata (expected 'GPU <i>')")
    if "comm" not in thread_names:
        problems.append("no 'comm' thread row")
    if not gpu_span:
        problems.append("no operator/superstep span on the virtual-clock process")
    return problems


def summarize_chrome_trace(trace) -> dict:
    """Aggregate view of a trace for ``repro trace``."""
    events = trace.get("traceEvents", []) if isinstance(trace, dict) else []
    names: Dict[tuple, str] = {}
    for ev in events:
        if isinstance(ev, dict) and ev.get("ph") == "M" \
                and ev.get("name") == "thread_name":
            label = ev.get("args", {}).get("name", "")
            names[(ev.get("pid"), ev.get("tid"))] = label
    tracks: Dict[str, Dict[str, float]] = {}
    instants: Dict[str, int] = {}
    span_count = 0
    end_us = 0.0
    for ev in events:
        if not isinstance(ev, dict):
            continue
        ph = ev.get("ph")
        if ph == "X":
            span_count += 1
            key = names.get((ev.get("pid"), ev.get("tid")),
                            f"pid{ev.get('pid')}.tid{ev.get('tid')}")
            row = tracks.setdefault(key, {"spans": 0, "busy_ms": 0.0})
            row["spans"] += 1
            row["busy_ms"] += float(ev.get("dur", 0.0)) / 1e3
            end_us = max(end_us, float(ev.get("ts", 0.0)) + float(ev.get("dur", 0.0)))
        elif ph == "i":
            instants[ev.get("name", "?")] = instants.get(ev.get("name", "?"), 0) + 1
            end_us = max(end_us, float(ev.get("ts", 0.0)))
    other = trace.get("otherData", {}) if isinstance(trace, dict) else {}
    recovery = {
        name: count
        for name, count in sorted(instants.items())
        if name in _RECOVERY_INSTANTS
    }
    return {
        "primitive": other.get("primitive", ""),
        "backend": other.get("backend", ""),
        "num_gpus": other.get("num_gpus", 0),
        "spans": span_count,
        "tracks": tracks,
        "instants": instants,
        "recovery": recovery,
        "end_ms": end_us / 1e3,
    }
