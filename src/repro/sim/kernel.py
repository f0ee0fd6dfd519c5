"""Kernel cost model.

Charges virtual time for GPU kernels from first principles the paper's
analysis uses: a fixed launch overhead (~3 µs, Section V-B) plus memory
traffic divided by effective bandwidth.  Graph kernels are memory-bound,
so traffic — not FLOPs — is the cost driver; the advance operator's
traffic is dominated by random gathers (neighbor lists, label lookups),
filters by streaming passes.

All byte counts passed in are *logical* (stand-in dataset sizes); the
model multiplies by the machine's workload ``scale`` (DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, List, Tuple

from .device import DeviceSpec

__all__ = ["KernelCost", "KernelModel"]


@dataclass(frozen=True)
class KernelCost:
    """Breakdown of one kernel's charged time."""

    launch: float
    traffic: float

    @property
    def total(self) -> float:
        return self.launch + self.traffic


class KernelModel:
    """Computes kernel durations for a device at a given workload scale."""

    def __init__(self, spec: DeviceSpec, scale: float = 1.0):
        self.spec = spec
        self.scale = float(scale)
        # constants of the (frozen) spec, read on every charge
        self._launch_overhead = spec.kernel_launch_overhead
        self._streaming_bw = spec.effective_bandwidth(False)
        self._random_bw = spec.effective_bandwidth(True)

    def price(self, stats: Iterable, earliest_start: float, scale: float,
              rows: List[Tuple[float, float, str]]) -> float:
        """Price a group of kernels — ``OpStats``, or anything with their
        cost fields — in list order: append a ``(duration,
        earliest_start, name)`` row per kernel to ``rows`` (what
        ``Stream.launch_many`` applies) and return the group's seconds,
        summed from 0.0.  ``scale`` is a straggler's slowdown.  The one
        place the cost formula lives: :meth:`kernel_time` reads it too.
        """
        k, launch = self.scale, self._launch_overhead
        streaming_bw, random_bw = self._streaming_bw, self._random_bw
        total = 0.0
        for s in stats:
            t = 0.0
            nbytes = s.streaming_bytes
            if nbytes > 0:
                t += (nbytes * k) / streaming_bw
            nbytes = s.random_bytes
            if nbytes > 0:
                t += (nbytes * k) / random_bw
            atomics = s.atomic_ops
            if atomics > 0:
                # model atomics as 8-byte random accesses at 1/4 efficiency
                t += (atomics * 8 * k) / (random_bw * 0.25)
            dur = (s.launches * launch + t) * scale
            rows.append((dur, earliest_start, s.name))
            total += dur
        return total

    def kernel_time(
        self,
        streaming_bytes: float = 0.0,
        random_bytes: float = 0.0,
        launches: int = 1,
        atomic_ops: float = 0.0,
    ) -> KernelCost:
        """Time for a (possibly fused) kernel.

        Parameters
        ----------
        streaming_bytes:
            Coalesced sequential traffic (frontier reads, offset scans).
        random_bytes:
            Gather/scatter traffic (neighbor lists, label arrays).
        launches:
            Number of kernel launches charged (fusion reduces this).
        atomic_ops:
            Number of global atomics; charged at 1/4 of random-access item
            bandwidth, reflecting serialization on contended lines (this is
            the cost that limits Bisson et al.'s atomic-heavy BFS,
            Section II-A).
        """
        # zero launches and no slowdown leave exactly the traffic term
        traffic = self.price((SimpleNamespace(
            name="", launches=0, streaming_bytes=streaming_bytes,
            random_bytes=random_bytes, atomic_ops=atomic_ops,
        ),), 0.0, 1.0, [])
        return KernelCost(launch=launches * self._launch_overhead,
                          traffic=traffic)

    def memcpy_time(self, nbytes: float) -> float:
        """Device-local copy (used by reallocation's malloc+copy)."""
        if nbytes <= 0:
            return self._launch_overhead
        return (
            self._launch_overhead
            + (2 * nbytes * self.scale) / self._streaming_bw
        )
