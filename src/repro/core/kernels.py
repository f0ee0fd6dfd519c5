"""Opt-in compiled hot-loop kernels (Numba njit, NumPy fallback).

The operator hot paths — advance (push & pull), the unvisited filter and
the fused advance+filter — are loop-free vectorized NumPy by contract
(lint rule REP104), which also makes them *trivially compilable*: each
is a textbook CSR traversal loop.  This module provides nopython-JIT
versions of exactly those four inner computations, behind the existing
operator interface: :mod:`repro.core.operators` consults
:func:`active` at the top of each call and, when a compiled layer is
live, delegates only the array computation to it.  The surrounding
:class:`~repro.core.stats.OpStats` cost accounting is built from the
same sizes in both paths, so a compiled run is **bit-identical** to an
interpreted one — results, RunMetrics, and virtual times (asserted in
``tests/core/test_backend_determinism.py``).

Numba is an *optional* extra (``pip install repro[kernels]``).  When it
is absent, :func:`enable` is a semantic no-op: the operators keep their
vectorized NumPy implementations and :func:`status` reports
``backend == "numpy-fallback"`` so benches can tell the difference.
The compiled functions below mirror the NumPy semantics exactly:

* ``gather`` flattens CSR rows in frontier order (``np.repeat`` +
  ``cumsum`` in the interpreted path);
* ``pull`` scans each candidate's neighbor list serially and stops at
  the first frontier hit (``np.minimum.reduceat`` over masked
  positions interpreted), counting only scanned edges;
* ``filter_unvisited`` sorts and deduplicates the unvisited survivors
  (the flag pass of ``operators.compute.dedup`` interpreted);
* ``fused`` records, per surviving vertex, the witness of its *first*
  discovery in gather order (the min-scatter of
  ``operators.compute.segment_first`` interpreted).

Enabling is process-global (``repro.core.kernels.enable()``, the
``--kernels`` CLI flag, or ``REPRO_KERNELS=1``); worker processes of the
``processes`` backend inherit the setting through ``fork``.  The
sanitizer's shadow arrays need the interpreted instrumentation, so
operators skip the compiled path whenever an input is an ndarray
subclass (``Enactor(sanitize=True)``).
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

__all__ = [
    "enable",
    "disable",
    "is_enabled",
    "active",
    "status",
    "HAVE_NUMBA",
]


def _numba_available() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


HAVE_NUMBA = _numba_available()


# ----------------------------------------------------------------------
# kernel bodies (plain Python; compiled with numba.njit on enable).
# All vertex/edge arrays are int64 — the operators already normalize
# through csr.offsets64/cols64 and _frontier64.
def _gather_kernel(offsets, cols, frontier):
    nf = frontier.shape[0]
    total = 0
    for i in range(nf):
        v = frontier[i]
        total += offsets[v + 1] - offsets[v]
    neighbors = np.empty(total, np.int64)
    sources = np.empty(total, np.int64)
    edge_idx = np.empty(total, np.int64)
    k = 0
    for i in range(nf):
        v = frontier[i]
        for e in range(offsets[v], offsets[v + 1]):
            neighbors[k] = cols[e]
            sources[k] = v
            edge_idx[k] = e
            k += 1
    return neighbors, sources, edge_idx


def _pull_kernel(offsets, cols, candidates, in_frontier):
    n = candidates.shape[0]
    discovered = np.empty(n, np.int64)
    parents = np.empty(n, np.int64)
    m = 0
    scanned = 0
    total = 0
    for i in range(n):
        v = candidates[i]
        start = offsets[v]
        end = offsets[v + 1]
        total += end - start
        looked = 0
        for e in range(start, end):
            looked += 1
            nbr = cols[e]
            if in_frontier[nbr]:
                discovered[m] = v
                parents[m] = nbr
                m += 1
                break
        # scanned = first_hit + 1 on a hit, full degree otherwise —
        # `looked` is both (the loop breaks on the hit)
        scanned += looked
    return discovered[:m].copy(), parents[:m].copy(), scanned, total


def _filter_unvisited_kernel(candidates, labels, invalid_label):
    n = candidates.shape[0]
    keep = np.empty(n, np.int64)
    m = 0
    for i in range(n):
        v = candidates[i]
        if labels[v] == invalid_label:
            keep[m] = v
            m += 1
    kept = np.sort(keep[:m])
    out = np.empty(m, np.int64)
    k = 0
    for i in range(m):
        if i == 0 or kept[i] != kept[i - 1]:
            out[k] = kept[i]
            k += 1
    return out[:k].copy()


def _fused_kernel(offsets, cols, frontier, labels, invalid_label):
    num_vertices = labels.shape[0]
    # per-vertex witness of the first discovery in gather order; edge -1
    # doubles as the "not discovered" marker
    witness_src = np.full(num_vertices, -1, np.int64)
    witness_edge = np.full(num_vertices, -1, np.int64)
    survivors_count = 0
    edges = 0
    nf = frontier.shape[0]
    for i in range(nf):
        v = frontier[i]
        for e in range(offsets[v], offsets[v + 1]):
            edges += 1
            nbr = cols[e]
            if labels[nbr] == invalid_label and witness_edge[nbr] < 0:
                witness_src[nbr] = v
                witness_edge[nbr] = e
                survivors_count += 1
    survivors = np.empty(survivors_count, np.int64)
    m = 0
    for u in range(num_vertices):
        if witness_edge[u] >= 0:
            survivors[m] = u
            m += 1
    return survivors, witness_src[survivors], witness_edge[survivors], edges


class CompiledKernels:
    """The live compiled layer: njit-wrapped kernel entry points."""

    backend = "numba"

    def __init__(self, njit):
        self.gather = njit(cache=True)(_gather_kernel)
        self.pull = njit(cache=True)(_pull_kernel)
        self.filter_unvisited = njit(cache=True)(_filter_unvisited_kernel)
        self.fused = njit(cache=True)(_fused_kernel)


_enabled = False
_layer: Optional[CompiledKernels] = None
_error: Optional[str] = None


def enable() -> dict:
    """Turn the compiled layer on (process-global).

    Compiles lazily on first call; with Numba absent this is a no-op for
    semantics (operators keep interpreted NumPy) and :func:`status`
    reports the fallback.  Returns :func:`status`.
    """
    global _enabled, _layer, _error
    _enabled = True
    if _layer is None and _error is None:
        try:
            from numba import njit

            _layer = CompiledKernels(njit)
        except Exception as exc:  # numba absent or broken: NumPy fallback
            _error = f"{type(exc).__name__}: {exc}"
    return status()


def disable() -> None:
    """Turn the compiled layer off (the default)."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    """Whether the compiled-kernel layer is switched on (it may still be
    inactive if Numba is unavailable — see :func:`status`)."""
    return _enabled


def active() -> Optional[CompiledKernels]:
    """The compiled layer if enabled *and* available, else None.

    Operators call this at the top of each hot path; ``None`` means
    "use the interpreted NumPy implementation" (disabled, or the
    NumPy fallback when Numba is absent).
    """
    if not _enabled:
        return None
    return _layer


def plain_arrays(*arrays) -> bool:
    """True when every argument is a plain ndarray (no ShadowArray etc.).

    The compiled kernels bypass Python-level instrumentation, so the
    sanitizer's wrapped slice arrays must take the interpreted path.
    """
    for a in arrays:
        if type(a) is not np.ndarray:
            return False
    return True


def status() -> dict:
    """Current kernel-layer state, for bench JSON and ``status`` CLI."""
    return {
        "enabled": _enabled,
        "available": HAVE_NUMBA,
        "backend": (
            "numba" if (_enabled and _layer is not None)
            else ("numpy-fallback" if _enabled else "off")
        ),
        "error": _error,
    }


if os.environ.get("REPRO_KERNELS", "").strip().lower() not in (
    "", "0", "false", "off", "no",
):
    enable()
