"""Filter operator: compact a frontier by a predicate.

"Filter generates a new frontier by selecting a subset of the current
frontier based on programmer-specified criteria" (Section II-B).  The
common traversal filter — keep each vertex once, and only if unvisited —
is provided as a specialized fast path because its cost model (one label
probe per candidate, atomic claim per survivor) is what BFS/SSSP charge.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from ..stats import OpStats
from .compute import dedup

__all__ = ["filter_predicate", "filter_unvisited", "unique_vertices"]


def filter_predicate(
    frontier: np.ndarray,
    predicate: Callable[[np.ndarray], np.ndarray],
    ids_bytes: int = 4,
    name: str = "filter",
    tracer=None,
) -> Tuple[np.ndarray, OpStats]:
    """Generic filter: keep elements where ``predicate`` is True.

    ``predicate`` receives the whole array and must return a boolean mask
    (vectorized, like every framework compute op).
    """
    _wall0 = tracer.wall() if tracer is not None else 0.0
    frontier = np.asarray(frontier, dtype=np.int64)
    mask = np.asarray(predicate(frontier), dtype=bool)
    if mask.shape != frontier.shape:
        raise ValueError("predicate must return a mask of the input shape")
    out = frontier[mask]
    stats = OpStats(
        name=name,
        input_size=int(frontier.size),
        output_size=int(out.size),
        vertices_processed=int(frontier.size),
        launches=1,
        streaming_bytes=(frontier.size + out.size) * ids_bytes,
        random_bytes=frontier.size * ids_bytes,
    )
    if tracer is not None:
        tracer.op_wall_sample(name, tracer.wall() - _wall0)
    return out, stats


def filter_unvisited(
    candidates: np.ndarray,
    labels: np.ndarray,
    invalid_label,
    ids_bytes: int = 4,
    tracer=None,
) -> Tuple[np.ndarray, OpStats]:
    """Traversal filter: deduplicate and keep vertices with no label yet.

    Mirrors the GPU idiom: probe the label array, attempt an atomic claim,
    survivors enter the new frontier exactly once, in ascending order.
    Deterministic here: the flag pass of :func:`~.compute.dedup` plays
    the role the atomic CAS race plays on hardware.
    """
    _wall0 = tracer.wall() if tracer is not None else 0.0
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size:
        unvisited = (labels[candidates] == invalid_label).nonzero()[0]
        out = dedup(candidates.take(unvisited), labels.shape[0])
    else:
        out = candidates
    n_in, n_out = int(candidates.size), int(out.size)
    stats = OpStats(
        name="filter",
        input_size=n_in,
        output_size=n_out,
        vertices_processed=n_in,
        launches=1,
        streaming_bytes=(n_in + n_out) * ids_bytes,
        random_bytes=n_in * ids_bytes,
        atomic_ops=float(n_out),
    )
    if tracer is not None:
        tracer.op_wall_sample("filter", tracer.wall() - _wall0)
    return out, stats


def unique_vertices(
    candidates: np.ndarray, num_vertices: int, ids_bytes: int = 4
) -> Tuple[np.ndarray, OpStats]:
    """Deduplicate a vertex list of IDs below ``num_vertices`` (the
    paper's split/merge helper); ascending output."""
    candidates = np.asarray(candidates, dtype=np.int64)
    out = dedup(candidates, num_vertices)
    stats = OpStats(
        name="unique",
        input_size=int(candidates.size),
        output_size=int(out.size),
        vertices_processed=int(candidates.size),
        launches=1,
        streaming_bytes=2 * candidates.size * ids_bytes,
    )
    return out, stats
