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

    def op_seconds(self, streaming_bytes: float, random_bytes: float,
                   launches: int, atomic_ops: float) -> float:
        """``kernel_time(...).total`` as a bare float: the one place the
        cost formula lives.  The enactor prices every ``OpStats`` through
        this positional form (no ``KernelCost`` per call) and
        :meth:`kernel_time` reads its traffic term from it."""
        t = 0.0
        if streaming_bytes > 0:
            t += (streaming_bytes * self.scale) / self._streaming_bw
        if random_bytes > 0:
            t += (random_bytes * self.scale) / self._random_bw
        if atomic_ops > 0:
            # model atomics as 8-byte random accesses at 1/4 efficiency
            t += (atomic_ops * 8 * self.scale) / (self._random_bw * 0.25)
        return launches * self._launch_overhead + t

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
        return KernelCost(
            launch=launches * self._launch_overhead,
            # zero launches leave exactly the traffic term (0.0 + t == t)
            traffic=self.op_seconds(streaming_bytes, random_bytes, 0, atomic_ops),
        )

    def memcpy_time(self, nbytes: float) -> float:
        """Device-local copy (used by reallocation's malloc+copy)."""
        if nbytes <= 0:
            return self._launch_overhead
        return (
            self._launch_overhead
            + (2 * nbytes * self.scale) / self._streaming_bw
        )
