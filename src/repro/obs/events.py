"""Structured event bus + JSONL sink for the tracer.

Every record is a flat JSON object with a ``"type"`` drawn from
:data:`EVENT_TYPES` and, where the event has a position on the virtual
timeline, a numeric ``"vt"`` (virtual seconds).  The full schema is
documented in docs/observability.md; :func:`validate_events_jsonl`
checks a written file against it (used by the CI trace-smoke job and
the ``repro trace`` subcommand).
"""

from __future__ import annotations

import json
from typing import Callable, List, Optional

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_TYPES",
    "RECOVERY_EVENT_TYPES",
    "EventBus",
    "JsonlWriter",
    "validate_event",
    "validate_events_jsonl",
]

#: JSONL event schema version.  Version 1 was the implicit schema of
#: PRs 4/9 (spans, barriers, recovery and other instants); version
#: 2 adds the observability *products* as first-class records —
#: ``recorder.dump`` (flight-recorder crash reports) and
#: ``analysis.report`` (critical-path analyzer output) — so derived
#: artifacts can ride the same stream they were computed from.  The
#: OpenMetrics exposition (``repro.obs.metrics_export``) advertises
#: this constant in its ``repro_schema_info`` metric.
EVENT_SCHEMA_VERSION = 2

#: recovery actions the chaos harness cross-checks against RunMetrics
RECOVERY_EVENT_TYPES = frozenset(
    {
        "recovery.retry",
        "recovery.oom-regrow",
        "recovery.gpu-loss",
        "recovery.rollback",
    }
)

EVENT_TYPES = frozenset(
    {
        "run.begin",
        "run.end",
        "span",
        "superstep.begin",
        "superstep.end",
        "barrier",
        "backend.dispatch",
        "comm.split",
        "comm.package",
        "comm.combine",
        "comm.transfer",
        "direction.switch",
        "checkpoint",
        "checkpoint.capture",
        "recovery.restore-routed",
        "sanitizer.hazard",
        "recorder.dump",
        "analysis.report",
    }
    | RECOVERY_EVENT_TYPES
)

#: fields that must be integers when present
_INT_FIELDS = ("gpu", "iteration", "src", "dst", "num_gpus", "worker")


class EventBus:
    """Minimal synchronous pub/sub fan-out for tracer records."""

    def __init__(self):
        self._subscribers: List[Callable[[dict], None]] = []

    def subscribe(self, fn: Callable[[dict], None]) -> None:
        self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[dict], None]) -> None:
        self._subscribers.remove(fn)

    def emit(self, record: dict) -> None:
        for fn in self._subscribers:
            fn(record)


class JsonlWriter:
    """Event-bus subscriber writing one JSON object per line."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self.count = 0

    def __call__(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self.count += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def validate_event(record, line_no: Optional[int] = None) -> List[str]:
    """Return schema problems for one event record ([] when clean)."""
    where = f"line {line_no}: " if line_no is not None else ""
    if not isinstance(record, dict):
        return [f"{where}record is not a JSON object"]
    problems: List[str] = []
    etype = record.get("type")
    if not isinstance(etype, str) or not etype:
        problems.append(f"{where}missing or non-string 'type'")
        return problems
    if etype not in EVENT_TYPES:
        problems.append(f"{where}unknown event type {etype!r}")
    vt = record.get("vt")
    if vt is not None:
        if not isinstance(vt, (int, float)) or isinstance(vt, bool):
            problems.append(f"{where}{etype}: non-numeric 'vt'")
        elif vt < 0:
            problems.append(f"{where}{etype}: negative 'vt'")
    for fld in _INT_FIELDS:
        val = record.get(fld)
        if val is not None and (isinstance(val, bool) or not isinstance(val, int)):
            problems.append(f"{where}{etype}: non-integer {fld!r}")
    if etype == "span":
        for fld in ("cat", "name"):
            if not isinstance(record.get(fld), str):
                problems.append(f"{where}span: missing or non-string {fld!r}")
        if "vt" not in record:
            problems.append(f"{where}span: missing 'vt'")
        dur = record.get("dur")
        if not isinstance(dur, (int, float)) or isinstance(dur, bool):
            problems.append(f"{where}span: missing or non-numeric 'dur'")
        elif dur < 0:
            problems.append(f"{where}span: negative 'dur'")
    return problems


def validate_events_jsonl(path) -> List[str]:
    """Validate a JSONL event file; returns all problems found."""
    problems: List[str] = []
    count = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            count += 1
            try:
                record = json.loads(line)
            except ValueError as exc:
                problems.append(f"line {line_no}: invalid JSON ({exc})")
                continue
            problems.extend(validate_event(record, line_no=line_no))
    if count == 0:
        problems.append("file contains no events")
    return problems
