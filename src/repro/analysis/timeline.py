"""Execution timeline rendering (virtual-time Gantt charts).

A view of a run's :class:`~repro.obs.tracer.Tracer`: each GPU's compute
row is its ``op`` spans and its comm row the ``comm`` spans it sent
(``src``), so a traced run on any backend renders as an ASCII timeline
per GPU/stream, making the BSP structure — compute bursts,
communication overlap, barrier gaps — directly visible.  Used by the
scaling examples and handy when debugging a new primitive's cost model.

Usage::

    tracer = Tracer()
    Enactor(problem, Iteration, tracer=tracer).enact(src=0)
    print(render_timeline(tracer, width=100))
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs.tracer import Tracer

__all__ = ["render_timeline", "busy_fraction"]

#: the rows of one GPU, in the order they render
_STREAMS = ("comm", "compute")


def _rows(tracer: Tracer) -> Tuple[int, Dict[tuple, List[tuple]]]:
    """The GPU count and ``(gpu, stream) -> [(start, end)]`` of a
    tracer's op and comm spans."""
    rows: Dict[tuple, List[tuple]] = {}
    num_gpus = tracer.num_gpus
    for s in tracer.spans:
        if s.cat == "op":
            key = (s.track, "compute")
        elif s.cat == "comm":
            key = (int(s.args["src"]), "comm")
        else:
            continue
        rows.setdefault(key, []).append((s.vt_start, s.vt_start + s.vt_dur))
        num_gpus = max(num_gpus, key[0] + 1)
    return num_gpus, rows


def _horizon(rows: Dict[tuple, List[tuple]]) -> float:
    return max((e for row in rows.values() for _s, e in row), default=0.0)


def busy_fraction(tracer: Tracer, stream_name: str = "compute") -> dict:
    """Per-GPU fraction of the run each stream spent busy.

    Low compute busy-fractions on multi-GPU runs are the visual signature
    of latency-bound workloads (the road-network story of Section V-B).
    """
    num_gpus, rows = _rows(tracer)
    end = _horizon(rows)
    out = {}
    for g in range(num_gpus):
        row = rows.get((g, stream_name), [])
        out[g] = sum(e - s for s, e in row) / end if end > 0 else 0.0
    return out


def render_timeline(
    tracer: Tracer,
    width: int = 100,
    start: float = 0.0,
    end: Optional[float] = None,
) -> str:
    """Render every stream's spans as one text row per stream.

    Each column is a time bucket; a cell shows ``#`` when the stream was
    busy most of that bucket, ``+`` when partially busy, ``.`` when idle.
    """
    if width < 10:
        raise ValueError("width must be at least 10")
    num_gpus, rows = _rows(tracer)
    end = end if end is not None else _horizon(rows)
    if end <= start:
        return "(empty timeline)"
    span = end - start
    dt = span / width
    lines: List[str] = [
        f"timeline: {start * 1e3:.3f} ms .. {end * 1e3:.3f} ms "
        f"({dt * 1e6:.1f} us/column)"
    ]
    for g in range(num_gpus):
        for name in _STREAMS:
            buckets = [0.0] * width
            for s, e in rows.get((g, name), ()):
                s = max(s, start)
                e = min(e, end)
                if e <= s:
                    continue
                first = int((s - start) / dt)
                last = min(int((e - start) / dt), width - 1)
                for b in range(first, last + 1):
                    b_start = start + b * dt
                    b_end = b_start + dt
                    overlap = min(e, b_end) - max(s, b_start)
                    buckets[b] += max(0.0, overlap)
            row = "".join(
                "#" if frac >= 0.5 * dt else ("+" if frac > 0 else ".")
                for frac in buckets
            )
            lines.append(f"gpu{g}.{name:<8s} |{row}|")
    return "\n".join(lines)
