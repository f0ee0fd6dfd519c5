"""Compute operator and the linear-time keyed kernels beneath it.

"Computation executes an operation on all elements in the current
frontier.  This can be combined for efficiency with advance or filter."
(Section II-B.)  Primitives pass vectorized callables; the stats charge
one read-modify-write per element.

The keyed kernels (:func:`dedup`, :func:`member_mask`,
:func:`segment_reduce_min`, :func:`segment_reduce_sum`,
:func:`segment_first`) are what operators
and hooks use wherever *m* edge-length items are keyed by vertex IDs of
a subgraph with *n* vertices: one scatter into a length-*n* scratch is
O(n + m) with no comparison sort and no hash table — Gunrock's bitmask
culling rather than a sort-based filter (docs/performance.md,
"Linear-time keyed kernels").  What a scatter changed is read back
from the length-*n* array, never from the *m* items.  They charge
nothing: cost accounting stays with the operator entry points that
call them.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from ..stats import OpStats

__all__ = [
    "compute_op",
    "dedup",
    "member_mask",
    "segment_reduce_min",
    "segment_reduce_sum",
    "segment_first",
]

_BIG = np.iinfo(np.int64).max


def compute_op(
    frontier: np.ndarray,
    fn: Callable[[np.ndarray], None],
    bytes_per_element: int = 12,
    name: str = "compute",
    atomic: bool = False,
    tracer=None,
) -> Tuple[np.ndarray, OpStats]:
    """Run ``fn`` over the frontier (in-place side effects expected).

    Returns the (unchanged) frontier and the op stats.  ``atomic=True``
    charges one atomic per element (e.g. PR's rank accumulation).
    """
    _wall0 = tracer.wall() if tracer is not None else 0.0
    frontier = np.asarray(frontier, dtype=np.int64)
    fn(frontier)
    stats = OpStats(
        name=name,
        input_size=int(frontier.size),
        output_size=int(frontier.size),
        vertices_processed=int(frontier.size),
        launches=0,  # fused into the surrounding advance/filter
        random_bytes=frontier.size * bytes_per_element,
        atomic_ops=float(frontier.size) if atomic else 0.0,
    )
    if tracer is not None:
        tracer.op_wall_sample(name, tracer.wall() - _wall0)
    return frontier, stats


def dedup(ids: np.ndarray, num_vertices: int) -> np.ndarray:
    """The distinct values of ``ids``, ascending — ``np.unique(ids)`` for
    IDs in ``[0, num_vertices)``.

    Marks a boolean flag per ID and reads the set flags back in index
    order: the deterministic stand-in for the GPU filter's atomic claim.
    The flags are a fresh ``np.zeros(num_vertices, bool)``: reading them
    back scans all *n* anyway, so reusing a cleared scratch array would
    not change the order of the work.
    """
    flags = np.zeros(num_vertices, dtype=bool)
    flags[ids] = True
    return flags.nonzero()[0]


def member_mask(
    probe: np.ndarray, members: np.ndarray, num_vertices: int
) -> np.ndarray:
    """``np.isin(probe, members)`` for IDs in ``[0, num_vertices)``.

    One flag per vertex, set for the members and read back at the
    probes: O(n + m) with no sort.
    """
    flags = np.zeros(num_vertices, dtype=bool)
    flags[members] = True
    return flags[probe]


def segment_reduce_min(
    keys: np.ndarray, values: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``out[k] = min(out[k], min of values with key k)``; returns the
    distinct keys whose value dropped, ascending.

    The deterministic equivalent of the GPU's ``atomicMin`` loop (the
    paper's ``Expand_Incoming_Kernel``, Appendix A, and SSSP's
    relaxation).  Like Gunrock's, the changed set is read off the vertex
    array the atomics wrote, not off the edge list: one
    ``np.minimum.at`` over all items, then one length-*n* compare of
    ``out`` with its copy from before.  O(n + m), with no edge-length
    gather, compare or compression; ``out`` ends with exactly
    ``np.minimum.at``'s bits.
    """
    before = out.copy()
    np.minimum.at(out, keys, values)
    return (out < before).nonzero()[0]


def segment_reduce_sum(
    keys: np.ndarray, values: np.ndarray, out: np.ndarray
) -> None:
    """``out[k] += sum of values with key k`` — the atomicAdd combiner.

    Each key's values are added in input order, the serialized-atomics
    order of a GPU run re-executed for reproducibility.
    """
    np.add.at(out, keys, values)


def segment_first(
    keys: np.ndarray, ranks: np.ndarray, targets: np.ndarray,
    num_vertices: int,
) -> np.ndarray:
    """For each target key, the lowest rank among the items carrying it.

    ``keys``/``ranks`` are parallel.  Every key must be a target (the
    caller drops the other items first) and every target must occur
    among the keys, so the scatter touches the targets' slots only.  One
    min-scatter replaces a stable sort of the items: with positions as
    ranks this is "first occurrence", the deterministic stand-in for
    which thread wins the GPU's discovery race.
    """
    lowest = np.empty(num_vertices, dtype=np.int64)
    # only the targets' slots are touched, so only they are initialized
    lowest[targets] = _BIG
    np.minimum.at(lowest, keys, ranks)
    return lowest[targets]
