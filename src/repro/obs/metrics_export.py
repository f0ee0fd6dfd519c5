"""OpenMetrics/Prometheus text exposition of a run's metrics.

Turns a :class:`~repro.sim.metrics.RunMetrics` into the standard
`OpenMetrics text format <https://prometheus.io/docs/instrumenting/exposition_formats/>`_
so a scrape target (or a CI artifact diff) can watch the reproduction
like any other production service: run-level counters/gauges, the
recovery counters the chaos machinery maintains, and
per-superstep gauges labeled by ``iteration`` and ``gpu``.

Exposition is versioned in lock-step with the JSONL event schema
(:data:`repro.obs.events.EVENT_SCHEMA_VERSION`) via the
``repro_schema_info`` metric, so a dashboard can detect a stream whose
semantics changed.

The format rules that matter here: metric names are
``repro_<noun>_<unit>``, label values are escaped, every family gets
``# TYPE``/``# HELP`` headers, and the exposition ends with ``# EOF``.
"""

from __future__ import annotations

from typing import List

from .events import EVENT_SCHEMA_VERSION

__all__ = ["to_openmetrics", "write_openmetrics"]

#: RunMetrics.to_dict schema the per-iteration gauges mirror
_METRICS_SCHEMA_VERSION = 2


def _escape(value) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels(**kv) -> str:
    inner = ",".join(
        f'{k}="{_escape(v)}"' for k, v in kv.items() if v not in (None, "")
    )
    return "{" + inner + "}" if inner else ""


def _num(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def to_openmetrics(metrics) -> str:
    """Render one run's metrics as an OpenMetrics text exposition."""
    run = _labels(primitive=metrics.primitive, dataset=metrics.dataset,
                  gpus=metrics.num_gpus)
    lines: List[str] = []

    def family(name: str, mtype: str, help_: str) -> None:
        lines.append(f"# TYPE {name} {mtype}")
        lines.append(f"# HELP {name} {help_}")

    def sample(name: str, labels: str, value) -> None:
        lines.append(f"{name}{labels} {_num(value)}")

    family("repro_schema_info", "gauge",
           "Schema versions of the event stream and metrics exposition.")
    sample(
        "repro_schema_info",
        _labels(event_schema=EVENT_SCHEMA_VERSION,
                metrics_schema=_METRICS_SCHEMA_VERSION),
        1,
    )

    family("repro_run_elapsed_virtual_seconds", "gauge",
           "Virtual-clock time the whole run took.")
    sample("repro_run_elapsed_virtual_seconds", run, metrics.elapsed)
    family("repro_run_supersteps", "gauge",
           "BSP supersteps executed to convergence.")
    sample("repro_run_supersteps", run, len(metrics.iterations))
    family("repro_run_edges_visited_total", "counter",
           "Edges visited across all GPUs and supersteps.")
    sample("repro_run_edges_visited_total", run,
           metrics.total_edges_visited)
    family("repro_run_items_sent_total", "counter",
           "Frontier items communicated between GPUs (the paper's H).")
    sample("repro_run_items_sent_total", run, metrics.total_items_sent)
    family("repro_run_load_imbalance_ratio", "gauge",
           "Mean max/mean per-GPU compute time over supersteps.")
    sample("repro_run_load_imbalance_ratio", run,
           metrics.load_imbalance())
    family("repro_run_reallocs_total", "counter",
           "Device buffer reallocations (just-enough growth).")
    sample("repro_run_reallocs_total", run, metrics.num_reallocs)

    family("repro_gpu_peak_memory_bytes", "gauge",
           "Peak device memory per GPU.")
    for g, peak in sorted(metrics.peak_memory.items()):
        sample("repro_gpu_peak_memory_bytes",
               _labels(primitive=metrics.primitive, gpus=metrics.num_gpus,
                       gpu=g), peak)

    family("repro_recovery_actions_total", "counter",
           "Recovery/supervision actions by kind (chaos machinery).")
    for kind, value in (
        ("comm_retries", metrics.comm_retries),
        ("oom_recoveries", metrics.oom_recoveries),
        ("checkpoints_taken", metrics.checkpoints_taken),
        ("rollbacks", metrics.rollbacks),
        ("worker_respawns", metrics.worker_respawns),
        ("supersteps_replayed", metrics.supersteps_replayed),
        ("hang_detections", metrics.hang_detections),
    ):
        sample("repro_recovery_actions_total",
               _labels(primitive=metrics.primitive,
                       gpus=metrics.num_gpus, kind=kind), value)
    family("repro_recovery_seconds", "gauge",
           "Virtual/wall seconds spent on recovery by kind.")
    for kind, value in (
        ("retry", metrics.retry_seconds),
        ("checkpoint", metrics.checkpoint_seconds),
        ("restore", metrics.restore_seconds),
        ("supervision_overhead", metrics.supervision_overhead_seconds),
    ):
        sample("repro_recovery_seconds",
               _labels(primitive=metrics.primitive,
                       gpus=metrics.num_gpus, kind=kind), value)

    family("repro_superstep_duration_virtual_seconds", "gauge",
           "Virtual-clock duration of each superstep.")
    family("repro_superstep_frontier_size", "gauge",
           "Total frontier items entering each superstep.")
    family("repro_superstep_gpu_compute_virtual_seconds", "gauge",
           "Per-GPU compute time within each superstep (the paper's W).")
    family("repro_superstep_gpu_comm_virtual_seconds", "gauge",
           "Per-GPU communication time within each superstep (H*g).")
    for rec in metrics.iterations:
        step = _labels(primitive=metrics.primitive,
                       gpus=metrics.num_gpus, iteration=rec.iteration)
        sample("repro_superstep_duration_virtual_seconds", step,
               rec.duration)
        sample("repro_superstep_frontier_size", step, rec.frontier_size)
        for g, t in sorted(rec.compute_time.items()):
            sample(
                "repro_superstep_gpu_compute_virtual_seconds",
                _labels(primitive=metrics.primitive,
                        gpus=metrics.num_gpus,
                        iteration=rec.iteration, gpu=g),
                t,
            )
        for g, t in sorted(rec.comm_time.items()):
            sample(
                "repro_superstep_gpu_comm_virtual_seconds",
                _labels(primitive=metrics.primitive,
                        gpus=metrics.num_gpus,
                        iteration=rec.iteration, gpu=g),
                t,
            )

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(metrics, path) -> str:
    """Write the exposition to ``path``; returns the text."""
    text = to_openmetrics(metrics)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
