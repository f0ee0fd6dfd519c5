"""Frozen calibration kernel and the bracketed-block timer.

Host noise on a small shared box is slow drift (minutes-long episodes,
up to 2x) plus fast jitter, and CPU time tracks wall time, so medians
of raw seconds do not repeat.  Every timed block (one backend's pass
over the workload's queries, or one construct + cold run: at most about
a second) therefore sits between two *calibration points*, each one run
of a fixed kernel, and is reported in **calibrated seconds**::

    t_cal = t_raw * cal_ref_s / median(kernel runs around the block)

A single 40 ms kernel run jitters by +-15 % with what ran just before
it, so the divisor is the median of the ``2 * window`` runs nearest the
block, not the two adjacent ones; drift episodes last far longer than
that window.  ``cal_ref_s`` is a per-workload constant (the kernel's
median on the host that committed the baseline), so a calibrated second
reads like a second of that host whatever the current one is doing.

The kernel is a plain single-threaded NumPy level-synchronous BFS plus
a few PageRank power iterations over the workload's own CSR arrays; it
doubles as the "plain single-threaded run of the same problem"
baseline.  It must not change once a baseline is committed, and it
imports nothing from ``repro``: the arrays are passed in.

Limit: the kernel runs on one core, so it cannot see a neighbour taking
the second core that a ``processes:2`` block needs.  A two-process
kernel was tried and measured worse: a kernel bound by pipe wake-ups
jitters more than the blocks it is meant to correct (its median moved
47 % between runs on ``road_sync`` where the one-core kernel moved 4 %).
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
)

import numpy as np

__all__ = [
    "plain_bfs",
    "plain_pagerank",
    "make_kernel",
    "Sample",
    "BracketTimer",
    "quartiles",
    "spread",
    "per_key_medians",
    "sum_of_medians",
]

PAGERANK_ITERS = 3


def plain_bfs(offsets: np.ndarray, cols: np.ndarray, source: int) -> np.ndarray:
    """Level-synchronous BFS; returns levels (-1 = unreached)."""
    levels = np.full(offsets.size - 1, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # edge positions of the whole frontier, one gather
        base = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        nbrs = cols[base + np.arange(total, dtype=np.int64)]
        frontier = np.unique(nbrs[levels[nbrs] < 0])
        level += 1
        levels[frontier] = level
    return levels


def plain_pagerank(
    edge_src: np.ndarray, cols: np.ndarray, degree: np.ndarray, iters: int
) -> np.ndarray:
    """``iters`` unnormalized power iterations (damping 0.85)."""
    n = degree.size
    inv = 1.0 / np.maximum(degree, 1)
    ranks = np.ones(n)
    for _ in range(iters):
        contrib = ranks * inv
        ranks = 0.15 + 0.85 * np.bincount(
            cols, weights=contrib[edge_src], minlength=n
        )
    return ranks


def make_kernel(
    offsets: np.ndarray, cols: np.ndarray, source: int, reps: int
) -> Callable[[], float]:
    """Bind the kernel to one graph; ``reps`` sizes it to 30-80 ms.

    The returned callable does a fixed amount of work and returns a
    checksum (consumed so nothing is skipped, and asserted stable by the
    harness tests).
    """
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    degree = np.diff(offsets)
    edge_src = np.repeat(np.arange(degree.size, dtype=np.int64), degree)

    def kernel() -> float:
        check = 0.0
        for _ in range(reps):
            levels = plain_bfs(offsets, cols, source)
            ranks = plain_pagerank(edge_src, cols, degree, PAGERANK_ITERS)
            check += float(levels.max()) + float(ranks.sum())
        return check

    return kernel


# ---------------------------------------------------------------------------
# bracketed blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sample:
    """One timed call inside a block."""

    key: Hashable
    raw_s: float
    #: index of the calibration point before the block (the one after
    #: it is ``point + 1``)
    point: int


class BracketTimer:
    """Times calls inside blocks, each block between two calibration
    points.

    Back-to-back blocks share the point between them; :meth:`untimed`
    drops it when other work intervenes, so the points on either side
    of a block are always adjacent to it.
    """

    def __init__(
        self,
        kernel: Callable[[], object],
        cal_ref_s: float,
        window: int = 3,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self._kernel = kernel
        self._cal_ref_s = cal_ref_s
        self._window = window
        self._clock = clock
        self._fresh = False
        self._open = False
        self.samples: List[Sample] = []
        #: every calibration point, in order: the kernel's seconds
        self.points: List[float] = []

    def _calibrate(self) -> None:
        t0 = self._clock()
        self._kernel()
        self.points.append(self._clock() - t0)
        self._fresh = True

    @contextmanager
    def block(self) -> Iterator[None]:
        """One bracketed block; time calls inside it with :meth:`lap`."""
        if not self._fresh:
            self._calibrate()
        self._open = True
        try:
            yield
        finally:
            self._open = False
            self._calibrate()

    def lap(self, key: Hashable, fn: Callable[[], object]):
        """Time ``fn`` inside the open block; returns its result."""
        if not self._open:
            raise RuntimeError("lap() outside a block")
        point = len(self.points) - 1
        t0 = self._clock()
        result = fn()
        raw = self._clock() - t0
        self.samples.append(Sample(key, raw, point))
        return result

    def untimed(self) -> None:
        """Other work is about to run: the next block re-calibrates."""
        self._fresh = False

    def divisor(self, sample: Sample) -> float:
        """Median kernel time of the ``2 * window`` points nearest the
        sample's block."""
        lo = max(sample.point + 1 - self._window, 0)
        hi = sample.point + 1 + self._window
        return statistics.median(self.points[lo:hi])

    def cal_s(self, sample: Sample) -> float:
        """The sample in calibrated seconds."""
        return sample.raw_s * self._cal_ref_s / self.divisor(sample)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def per_key_medians(
    samples: Iterable[Sample],
    value: Callable[[Sample], float],
    key: Callable[[Sample], Hashable] = lambda s: s.key,
) -> Dict[Hashable, float]:
    """Median of ``value(sample)`` across the rounds of each key."""
    by_key: Dict[Hashable, List[float]] = {}
    for s in samples:
        by_key.setdefault(key(s), []).append(value(s))
    return {k: statistics.median(v) for k, v in by_key.items()}


def sum_of_medians(
    samples: Iterable[Sample],
    value: Callable[[Sample], float],
    key: Callable[[Sample], Hashable] = lambda s: s.key,
) -> float:
    """A metric: the sum over keys (queries) of the per-key median
    across rounds."""
    return sum(per_key_medians(samples, value, key).values())
