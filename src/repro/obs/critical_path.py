"""Critical-path analysis of a traced run on the virtual clock.

The profiler (:mod:`repro.obs.profile`) answers "where did the cycles
go" in aggregate; this module answers "which cycles actually gated the
run".  A BSP superstep is a fork-join DAG: each GPU executes its span
chain serially on the virtual clock, the barrier joins them, and the
superstep ends when the *slowest* chain ends.  The critical path of the
run is therefore the concatenation of each superstep's longest chain
plus the barrier sync latency — everything else is slack, and every
second of slack is a second a faster schedule could recover.

For every superstep the analyzer reports the critical GPU, the length
of its chain, and each non-critical GPU's slack *attributed into the
paper's W/H/C/S buckets*: GPU ``g`` waits at the barrier because the
critical GPU spent more time than ``g`` did in some bucket, so the
slack is split proportionally to the critical GPU's per-bucket excess
over ``g``.  Summing buckets over supersteps reconciles with
:func:`repro.obs.profile.profile_rows` — same spans, same
``term_of_span`` mapping.

Two counterfactuals bound what a schedule change could win:

* **zero-comm** — replay every superstep with the H bucket deleted
  (perfect comm/compute overlap); bounded above by the serial span sum,
  since one GPU's W+C+S chain can never exceed the sum of everything.
* **perfect-balance** — replay with each superstep's busy time spread
  evenly over its active GPUs (an ideal partitioner).

``analyze_trace`` accepts a live :class:`repro.obs.tracer.Tracer` or a
:class:`TraceData` reconstructed from an exported Chrome trace file, so
``repro analyze trace.json`` works offline on CI artifacts.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..analysis.reporting import render_table
from .events import EVENT_SCHEMA_VERSION
from .profile import profile_rows, term_of_span
from .tracer import COMM_TRACK, SUPERVISOR_TRACK, Span

__all__ = ["TraceData", "analyze_trace", "render_analysis"]

_TERMS = ("W", "H", "C", "S")


class TraceData:
    """Offline stand-in for a :class:`~repro.obs.tracer.Tracer`.

    Duck-types the read side the profiler and analyzer consume
    (``spans``, ``events``, ``events_of``, ``op_wall``, ``primitive``,
    ``backend``, ``num_gpus``) without any recording machinery, so an
    exported Chrome trace can be analyzed long after the run died.
    """

    def __init__(self, spans=None, events=None, op_wall=None,
                 primitive: str = "", backend: str = "", num_gpus: int = 0):
        self.spans: List[Span] = list(spans or [])
        self.events: List[dict] = list(events or [])
        self.op_wall: Dict[str, list] = dict(op_wall or {})
        self.primitive = primitive
        self.backend = backend
        self.num_gpus = int(num_gpus)

    @classmethod
    def from_tracer(cls, tracer) -> "TraceData":
        """Zero-copy view of a live tracer's recorded data."""
        data = cls(
            primitive=tracer.primitive,
            backend=tracer.backend,
            num_gpus=tracer.num_gpus,
        )
        data.spans = tracer.spans
        data.events = tracer.events
        data.op_wall = tracer.op_wall
        return data

    @classmethod
    def from_chrome_trace(cls, trace: dict) -> "TraceData":
        """Rebuild spans/events from a Chrome-trace JSON object.

        Inverts :func:`repro.obs.chrome_trace.to_chrome_trace` for the
        virtual-clock process (pid 0): complete events become
        :class:`Span` objects (the ``comm``/``supervisor`` rows map
        back to their negative track indices via the thread-name
        metadata) and instants become event records.  Wall-clock data
        (pid 1, per-op wall aggregates) is not round-tripped — it does
        not participate in virtual-clock analysis.
        """
        other = trace.get("otherData", {}) if isinstance(trace, dict) else {}
        events = trace.get("traceEvents", []) if isinstance(trace, dict) else []
        names: Dict[int, str] = {}
        for ev in events:
            if isinstance(ev, dict) and ev.get("ph") == "M" \
                    and ev.get("name") == "thread_name" \
                    and ev.get("pid") == 0:
                names[ev.get("tid")] = ev.get("args", {}).get("name", "")
        data = cls(
            primitive=other.get("primitive", ""),
            backend=other.get("backend", ""),
            num_gpus=int(other.get("num_gpus", 0) or 0),
        )
        for ev in events:
            if not isinstance(ev, dict) or ev.get("pid") != 0:
                continue
            ph = ev.get("ph")
            if ph == "X":
                label = names.get(ev.get("tid"), "")
                if label == "comm":
                    track = COMM_TRACK
                elif label == "supervisor":
                    track = SUPERVISOR_TRACK
                else:
                    track = int(ev.get("tid", 0))
                args = dict(ev.get("args") or {})
                iteration = args.pop("iteration", -1)
                data.spans.append(
                    Span(
                        name=str(ev.get("name", "")),
                        cat=str(ev.get("cat", "")),
                        track=track,
                        iteration=int(iteration),
                        vt_start=float(ev.get("ts", 0.0)) / 1e6,
                        vt_dur=float(ev.get("dur", 0.0)) / 1e6,
                        args=args,
                    )
                )
            elif ph == "i":
                rec = {
                    "type": str(ev.get("name", "")),
                    "vt": float(ev.get("ts", 0.0)) / 1e6,
                }
                rec.update(ev.get("args") or {})
                data.events.append(rec)
        return data

    # -- Tracer-compatible views ----------------------------------------------
    def spans_of(self, cat: str) -> List[Span]:
        return [s for s in self.spans if s.cat == cat]

    def events_of(self, type_: str) -> List[dict]:
        return [e for e in self.events if e.get("type") == type_]

    def count(self, type_: str) -> int:
        return len(self.events_of(type_))


def _span_gpu(span) -> Optional[int]:
    """The GPU a span's virtual time is charged to, or None.

    Comm spans live on the shared comm row but are *launched* by their
    sending GPU's comm stream, so the H time belongs to the sender's
    chain.  Supervisor-row spans belong to no GPU chain.
    """
    if span.track == SUPERVISOR_TRACK:
        return None
    if span.track == COMM_TRACK:
        src = span.args.get("src")
        return int(src) if src is not None else None
    return int(span.track)


def _zero_buckets() -> Dict[str, float]:
    return {t: 0.0 for t in _TERMS}


def analyze_trace(source) -> dict:
    """Critical-path/slack/what-if report for a traced run.

    ``source`` is a live tracer or a :class:`TraceData`.  The returned
    dict doubles as a valid ``analysis.report`` event record (it has a
    ``"type"`` and validates under
    :func:`repro.obs.events.validate_event`), so it can ride the same
    JSONL pipeline as the raw events it was computed from.
    """
    data = source if isinstance(source, TraceData) \
        else TraceData.from_tracer(source)

    # Run-level W/H/C/S totals come from the profiler itself — same
    # rows, same summation order as render_profile's legend — so the
    # analyzer reconciles with ``repro run --profile`` exactly, not
    # merely within float tolerance.
    rows = profile_rows(data)
    terms = _zero_buckets()
    for r in rows:
        terms[r["term"]] += r["virtual_s"]
    busy_total = sum(r["virtual_s"] for r in rows)

    sync_total = 0.0
    sync_count = 0
    for e in data.events_of("barrier"):
        sync_total += float(e.get("sync", 0.0))
        sync_count += 1

    # -- group work spans by superstep ---------------------------------------
    by_iter: Dict[int, List[Span]] = {}
    unattributed = _zero_buckets()  # iteration < 0 or GPU-less spans
    elapsed = 0.0
    for s in data.spans:
        elapsed = max(elapsed, s.vt_start + s.vt_dur)
        if s.cat == "superstep":
            continue
        if s.iteration < 0 or _span_gpu(s) is None:
            unattributed[term_of_span(s)] += s.vt_dur
            continue
        by_iter.setdefault(s.iteration, []).append(s)
    for e in data.events:
        vt = e.get("vt")
        if isinstance(vt, (int, float)) and not isinstance(vt, bool):
            elapsed = max(elapsed, float(vt))

    supersteps: List[dict] = []
    stragglers: Dict[int, int] = {}
    slack_terms = _zero_buckets()
    slack_total = 0.0
    critical_sum = 0.0
    zero_comm_sum = 0.0
    balance_sum = 0.0
    imbalances: List[float] = []

    for iteration in sorted(by_iter):
        spans = by_iter[iteration]
        busy: Dict[int, Dict[str, float]] = {}
        ends: Dict[int, float] = {}
        t0 = min(s.vt_start for s in spans)
        for s in spans:
            g = _span_gpu(s)
            busy.setdefault(g, _zero_buckets())[term_of_span(s)] += s.vt_dur
            ends[g] = max(ends.get(g, 0.0), s.vt_start + s.vt_dur)
        gpus = sorted(busy)
        crit_end = max(ends.values())
        crit = min(g for g in gpus if ends[g] == crit_end)
        critical_s = crit_end - t0
        critical_sum += critical_s

        per_gpu: Dict[str, dict] = {}
        step_slack = _zero_buckets()
        busy_sums = {g: sum(busy[g].values()) for g in gpus}
        for g in gpus:
            slack = crit_end - ends[g]
            entry = {
                "busy_s": busy_sums[g],
                "end_s": ends[g],
                "slack_s": slack,
            }
            entry.update(busy[g])
            per_gpu[str(g)] = entry
            if g == crit or slack <= 0.0:
                continue
            # g waited because the critical GPU spent more time in some
            # buckets than g did; split g's wait over those excesses
            excess = {
                t: max(0.0, busy[crit][t] - busy[g][t]) for t in _TERMS
            }
            denom = sum(excess.values())
            if denom > 0.0:
                # fraction first: slack * excess underflows to garbage
                # when the excess is subnormal; excess/denom is in [0,1]
                for t in _TERMS:
                    step_slack[t] += slack * (excess[t] / denom)
            else:
                # no bucket excess (pure launch-offset skew): charge the
                # wait itself as synchronization cost
                step_slack["S"] += slack
        for t in _TERMS:
            slack_terms[t] += step_slack[t]
        step_slack_total = sum(
            per_gpu[str(g)]["slack_s"] for g in gpus if g != crit
        )
        slack_total += step_slack_total

        mean_busy = sum(busy_sums.values()) / len(gpus)
        max_busy = max(busy_sums.values())
        imbalance = max_busy / mean_busy if mean_busy > 0.0 else 1.0
        imbalances.append(imbalance)
        stragglers[crit] = stragglers.get(crit, 0) + 1

        zero_comm_sum += max(
            busy_sums[g] - busy[g]["H"] for g in gpus
        )
        balance_sum += mean_busy

        supersteps.append(
            {
                "iteration": iteration,
                "critical_gpu": crit,
                "critical_s": critical_s,
                "slack_s": step_slack_total,
                "slack": step_slack,
                "imbalance": imbalance,
                "gpus": per_gpu,
            }
        )

    unattributed_total = sum(unattributed.values())
    critical_path_s = critical_sum + sync_total + unattributed_total

    # -- counterfactuals ------------------------------------------------------
    # profile_rows' total already includes the synthetic barrier(sync)
    # row, so busy_total *is* "every span plus sync, run serially" — the
    # ceiling no schedule can exceed and the zero-comm bound.
    serial_span_sum = busy_total
    zero_comm_s = zero_comm_sum + sync_total + (
        unattributed_total - unattributed["H"]
    )
    perfect_balance_s = balance_sum + sync_total + unattributed_total
    elapsed = max(elapsed, critical_path_s)

    def _speedup(estimate: float) -> float:
        return elapsed / estimate if estimate > 0.0 else math.inf

    n_steps = len(supersteps)
    report = {
        "type": "analysis.report",
        "schema_version": EVENT_SCHEMA_VERSION,
        "primitive": data.primitive,
        "backend": data.backend,
        "num_gpus": data.num_gpus,
        "supersteps": n_steps,
        "elapsed_s": elapsed,
        "critical_path_s": critical_path_s,
        "busy_s": busy_total,
        "sync_s": sync_total,
        "barriers": sync_count,
        "terms": terms,
        "slack_s": slack_total,
        "slack": slack_terms,
        "unattributed_s": unattributed_total,
        "load_imbalance": (
            sum(imbalances) / len(imbalances) if imbalances else 1.0
        ),
        "stragglers": {str(g): c for g, c in sorted(stragglers.items())},
        "steps": supersteps,
        "what_if": {
            "serial_span_sum_s": serial_span_sum,
            "zero_comm_s": zero_comm_s,
            "zero_comm_speedup": _speedup(zero_comm_s),
            "perfect_balance_s": perfect_balance_s,
            "perfect_balance_speedup": _speedup(perfect_balance_s),
        },
    }
    return report


def render_analysis(report: dict, top: Optional[int] = None,
                    what_if: bool = False) -> str:
    """ASCII rendering of an :func:`analyze_trace` report.

    ``top`` keeps only the N supersteps with the longest critical
    paths (all, sorted by iteration, when None); ``what_if`` appends
    the counterfactual estimates.
    """
    steps = report.get("steps", [])
    if top is not None:
        steps = sorted(
            steps, key=lambda s: (-s["critical_s"], s["iteration"])
        )[: max(0, int(top))]
    title = "critical path per superstep"
    if report.get("primitive"):
        title = (
            f"{report['primitive']} critical path "
            f"({report.get('num_gpus', 0)} GPUs, "
            f"{report.get('backend') or 'serial'} backend)"
        )
    table = render_table(
        ["superstep", "critical GPU", "critical ms", "slack ms",
         "slack split (W/H/C/S)", "imbalance"],
        [
            [
                s["iteration"],
                s["critical_gpu"],
                s["critical_s"] * 1e3,
                s["slack_s"] * 1e3,
                "/".join(f"{s['slack'][t] * 1e3:.3f}" for t in _TERMS),
                f"{s['imbalance']:.2f}x",
            ]
            for s in steps
        ],
        title=title,
    )
    terms = report.get("terms", {})
    lines = [
        table,
        "BSP terms (W + H·g + C + S·l): "
        + "  ".join(
            f"{t}={terms.get(t, 0.0) * 1e3:.3f}ms" for t in _TERMS
        ),
        (
            f"critical path: {report['critical_path_s'] * 1e3:.3f}ms of "
            f"{report['elapsed_s'] * 1e3:.3f}ms elapsed; slack "
            f"{report['slack_s'] * 1e3:.3f}ms; mean load imbalance "
            f"{report['load_imbalance']:.2f}x"
        ),
        "stragglers (supersteps on the critical path): "
        + (
            "  ".join(
                f"GPU {g}×{c}" for g, c in report["stragglers"].items()
            )
            or "none"
        ),
    ]
    if what_if:
        wi = report.get("what_if", {})
        lines.append(
            "what-if: zero-comm "
            f"{wi.get('zero_comm_s', 0.0) * 1e3:.3f}ms "
            f"({wi.get('zero_comm_speedup', 0.0):.2f}x), "
            "perfect-balance "
            f"{wi.get('perfect_balance_s', 0.0) * 1e3:.3f}ms "
            f"({wi.get('perfect_balance_speedup', 0.0):.2f}x), "
            "serial span sum "
            f"{wi.get('serial_span_sum_s', 0.0) * 1e3:.3f}ms"
        )
    return "\n".join(lines)
