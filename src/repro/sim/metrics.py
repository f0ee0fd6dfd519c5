"""BSP counters and run metrics.

The paper analyzes every primitive with the BSP cost model
``W + H*g + S*l`` (Section V, Table I).  :class:`IterationRecord` captures
those quantities per iteration and per GPU as the enactor runs, so the
Table I validation benchmark can compare *measured* W/H/C/S against the
paper's complexity bounds, and runs can be inspected after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["IterationRecord", "RunMetrics"]


@dataclass
class IterationRecord:
    """Measured quantities of one BSP superstep."""

    iteration: int
    #: edges touched per GPU during local computation (the W term's driver)
    edges_visited: Dict[int, int] = field(default_factory=dict)
    #: vertices processed per GPU during local computation
    vertices_processed: Dict[int, int] = field(default_factory=dict)
    #: items sent per GPU (the H term): vertices plus associated values
    items_sent: Dict[int, int] = field(default_factory=dict)
    #: logical bytes sent per GPU
    bytes_sent: Dict[int, int] = field(default_factory=dict)
    #: communication-computation items processed per GPU (the C term:
    #: splitting, packaging, combining)
    comm_compute_items: Dict[int, int] = field(default_factory=dict)
    #: per-GPU virtual compute time for this superstep (seconds)
    compute_time: Dict[int, float] = field(default_factory=dict)
    #: per-GPU virtual communication time (seconds)
    comm_time: Dict[int, float] = field(default_factory=dict)
    #: wall duration of the superstep including the barrier (seconds)
    duration: float = 0.0
    #: global frontier size at the start of this iteration
    frontier_size: int = 0
    #: traversal direction, for DOBFS ("forward"/"backward"/"")
    direction: str = ""

    def total_edges(self) -> int:
        return sum(self.edges_visited.values())

    def total_items_sent(self) -> int:
        return sum(self.items_sent.values())


@dataclass
class RunMetrics:
    """Aggregated metrics of one primitive execution."""

    num_gpus: int
    primitive: str = ""
    dataset: str = ""
    iterations: List[IterationRecord] = field(default_factory=list)
    #: total virtual runtime, seconds
    elapsed: float = 0.0
    #: workload scale multiplier in effect (DESIGN.md "Workload scaling")
    scale: float = 1.0
    #: peak scaled memory per GPU, bytes
    peak_memory: Dict[int, int] = field(default_factory=dict)
    num_reallocs: int = 0
    #: BSP-contract hazards found by the opt-in race sanitizer
    #: (``Enactor(sanitize=True)``); ``None`` when the run was unsanitized
    sanitizer_hazards: Optional[List[dict]] = None

    # -- fault-recovery observability (docs/robustness.md) ----------------
    #: transient communication faults survived via retry
    comm_retries: int = 0
    #: virtual seconds spent in retry backoff across all GPUs
    retry_seconds: float = 0.0
    #: allocation failures survived by regrown (exact-fit) allocation
    oom_recoveries: int = 0
    #: checkpoint snapshots taken at barriers
    checkpoints_taken: int = 0
    #: logical bytes captured by the most recent checkpoint
    checkpoint_bytes: int = 0
    #: virtual seconds charged for taking checkpoints (critical path)
    checkpoint_seconds: float = 0.0
    #: rollbacks to a checkpoint after permanent GPU loss
    rollbacks: int = 0
    #: virtual seconds charged for restoring state after rollbacks
    restore_seconds: float = 0.0
    #: GPUs permanently lost during the run (degraded-mode set)
    degraded_gpus: List[int] = field(default_factory=list)

    # -- retired worker-supervision counters ------------------------------
    #: These four always read 0: the worker supervisor that counted
    #: respawns, replayed supersteps, detected hangs and its own wall
    #: overhead is gone.  They stay because :meth:`to_dict` (and with it
    #: every committed ``metrics`` digest and the OpenMetrics keys)
    #: includes them; dropping them is a declared schema change.
    worker_respawns: int = 0
    supersteps_replayed: int = 0
    hang_detections: int = 0
    supervision_overhead_seconds: float = 0.0

    # -- BSP aggregates ---------------------------------------------------
    @property
    def supersteps(self) -> int:
        """S in the BSP model."""
        return len(self.iterations)

    @property
    def total_edges_visited(self) -> int:
        """Logical edges touched across all GPUs and iterations."""
        return sum(r.total_edges() for r in self.iterations)

    @property
    def total_items_sent(self) -> int:
        """H: total communicated items."""
        return sum(r.total_items_sent() for r in self.iterations)

    @property
    def total_comm_compute(self) -> int:
        """C: total communication-computation items."""
        return sum(sum(r.comm_compute_items.values()) for r in self.iterations)

    def max_compute_time(self) -> float:
        """Sum over supersteps of the slowest GPU's compute time (W·g side)."""
        return sum(
            max(r.compute_time.values(), default=0.0) for r in self.iterations
        )

    def max_comm_time(self) -> float:
        return sum(
            max(r.comm_time.values(), default=0.0) for r in self.iterations
        )

    def gteps(self, edges_traversed: Optional[int] = None) -> float:
        """Billions of traversed edges per second, over *scaled* edges.

        ``edges_traversed`` defaults to the measured per-run total; for
        traversal primitives callers usually pass |E| of the connected
        component (the Graph500 convention the paper follows).
        """
        if self.elapsed <= 0:
            return 0.0
        edges = (
            self.total_edges_visited if edges_traversed is None else edges_traversed
        )
        return (edges * self.scale) / self.elapsed / 1e9

    def millions_of_teps(self, edges_traversed: Optional[int] = None) -> float:
        return self.gteps(edges_traversed) * 1e3

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"{self.primitive or 'run'} on {self.dataset or '?'} "
            f"[{self.num_gpus} GPU]: {self.elapsed * 1e3:.3f} ms, "
            f"S={self.supersteps}, W={self.total_edges_visited} edges, "
            f"H={self.total_items_sent} items, C={self.total_comm_compute}"
        )

    def load_imbalance(self) -> float:
        """Mean over supersteps of (slowest GPU compute / mean compute).

        1.0 = perfectly balanced; large values indicate straggler GPUs
        (the partitioner-quality signal of Section V-C).
        """
        ratios = []
        for rec in self.iterations:
            times = list(rec.compute_time.values())
            if not times:
                continue
            mean = sum(times) / len(times)
            if mean > 0:
                ratios.append(max(times) / mean)
        return float(sum(ratios) / len(ratios)) if ratios else 1.0

    def to_dict(self) -> dict:
        """JSON-serializable trace of the whole run (per-iteration)."""
        return {
            "schema_version": 2,
            "primitive": self.primitive,
            "dataset": self.dataset,
            "num_gpus": self.num_gpus,
            "scale": self.scale,
            "elapsed_seconds": self.elapsed,
            "supersteps": self.supersteps,
            "total_edges_visited": self.total_edges_visited,
            "total_items_sent": self.total_items_sent,
            "total_comm_compute": self.total_comm_compute,
            "num_reallocs": self.num_reallocs,
            "peak_memory": {str(k): v for k, v in self.peak_memory.items()},
            "load_imbalance": self.load_imbalance(),
            "recovery": {
                "comm_retries": self.comm_retries,
                "retry_seconds": self.retry_seconds,
                "oom_recoveries": self.oom_recoveries,
                "checkpoints_taken": self.checkpoints_taken,
                "checkpoint_bytes": self.checkpoint_bytes,
                "checkpoint_seconds": self.checkpoint_seconds,
                "rollbacks": self.rollbacks,
                "restore_seconds": self.restore_seconds,
                "degraded_gpus": list(self.degraded_gpus),
                "worker_respawns": self.worker_respawns,
                "supersteps_replayed": self.supersteps_replayed,
                "hang_detections": self.hang_detections,
                "supervision_overhead_seconds":
                    self.supervision_overhead_seconds,
            },
            "iterations": [
                {
                    "iteration": r.iteration,
                    "duration": r.duration,
                    "frontier_size": r.frontier_size,
                    "direction": r.direction,
                    "edges_visited": {
                        str(k): v for k, v in r.edges_visited.items()
                    },
                    "items_sent": {
                        str(k): v for k, v in r.items_sent.items()
                    },
                    "bytes_sent": {
                        str(k): v for k, v in r.bytes_sent.items()
                    },
                    "comm_compute_items": {
                        str(k): v for k, v in r.comm_compute_items.items()
                    },
                    "vertices_processed": {
                        str(k): v for k, v in r.vertices_processed.items()
                    },
                    "compute_time": {
                        str(k): v for k, v in r.compute_time.items()
                    },
                    "comm_time": {
                        str(k): v for k, v in r.comm_time.items()
                    },
                }
                for r in self.iterations
            ],
        }

    def save_json(self, path) -> None:
        """Write the run trace to a JSON file."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)
