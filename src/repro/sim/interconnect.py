"""Inter-GPU interconnect model.

Reproduces the communication fabric of the paper's test nodes
(Section V-A):

* GPUs on the same PCIe3 root hub can enable *peer access*:
  ~20 GB/s bandwidth, ~7.5 µs latency;
* otherwise transfers stage through host memory: ~16 GB/s, ~25 µs;
* "direct peer-to-peer inter-GPU communication is enabled in groups of 4
  GPUs" (Section VII-A) — so a 6-GPU node has peer groups {0..3} and
  {4,5}, and cross-group traffic pays the host path.

Per-iteration synchronization latency follows the measured values of the
paper's minimal-workload experiment (Section V-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Set

from ..errors import CommunicationError

__all__ = ["LinkSpec", "PCIE3_PEER", "PCIE3_HOST", "NVLINK", "Interconnect"]


@dataclass(frozen=True)
class LinkSpec:
    """One link type: bandwidth (bytes/s) and per-message latency (s)."""

    name: str
    bandwidth: float
    latency: float


#: PCIe3 with peer access enabled (paper: ~20 GB/s, ~7.5 µs).
PCIE3_PEER = LinkSpec("pcie3-peer", 20e9, 7.5e-6)

#: PCIe3 staged through the host (paper: ~16 GB/s, ~25 µs).
PCIE3_HOST = LinkSpec("pcie3-host", 16e9, 25e-6)

#: NVLink 1.0 (not used by the paper's nodes; provided for what-if
#: experiments on the communication-bound DOBFS case).
NVLINK = LinkSpec("nvlink", 80e9, 2e-6)

#: Measured per-iteration overhead l for 1..4 GPUs, seconds
#: (paper Section V-B: {66.8, 124, 142, 188} µs).  The 1-GPU value is
#: carried by DeviceSpec.iteration_overhead + kernel launches; entries here
#: are the *additional* multi-GPU synchronization cost.
_SYNC_TABLE_US = [0.0, 57.2, 75.2, 121.2]
_SYNC_SLOPE_US = 33.0  # extrapolation per GPU beyond 4


class Interconnect:
    """Pairwise link model with peer groups.

    Parameters
    ----------
    num_gpus:
        Number of devices on the node.
    peer_group_size:
        GPUs are grouped in contiguous blocks of this size; intra-block
        transfers use ``peer_link``, inter-block use ``host_link``.
    peer_link, host_link:
        The two link specs.
    scale:
        Workload scale multiplier: transferred logical bytes are charged
        as ``bytes * scale`` (see DESIGN.md "Workload scaling").
    """

    def __init__(
        self,
        num_gpus: int,
        peer_group_size: int = 4,
        peer_link: LinkSpec = PCIE3_PEER,
        host_link: LinkSpec = PCIE3_HOST,
        scale: float = 1.0,
    ):
        if num_gpus < 1:
            raise ValueError("num_gpus must be positive")
        if peer_group_size < 1:
            raise ValueError("peer_group_size must be positive")
        self.num_gpus = num_gpus
        self.peer_group_size = peer_group_size
        self.peer_link = peer_link
        self.host_link = host_link
        self.scale = float(scale)
        self.total_bytes = 0  # scaled bytes moved, for reporting
        self.total_messages = 0
        #: armed FaultInjector, or None (the common, zero-overhead case)
        self.faults = None
        #: GPUs lost permanently; transfers touching them are refused
        #: (shared with Machine.lost_gpus once a loss occurs)
        self.lost_gpus: Set[int] = set()

    def _check(self, gpu: int) -> None:
        if not 0 <= gpu < self.num_gpus:
            raise CommunicationError(
                f"GPU id {gpu} out of range [0, {self.num_gpus})",
                gpu_id=gpu, site="interconnect.link",
            )

    def link(self, src: int, dst: int) -> LinkSpec:
        """The link used between two distinct GPUs."""
        self._check(src)
        self._check(dst)
        if src == dst:
            raise CommunicationError(
                "no link from a GPU to itself",
                gpu_id=src, site="interconnect.link",
            )
        if self.lost_gpus and (src in self.lost_gpus or dst in self.lost_gpus):
            lost = src if src in self.lost_gpus else dst
            raise CommunicationError(
                f"link endpoint GPU {lost} was lost",
                gpu_id=lost, site=f"interconnect.link[{src}->{dst}]",
            )
        if src // self.peer_group_size == dst // self.peer_group_size:
            return self.peer_link
        return self.host_link

    def transfer_cost(
        self, src: int, dst: int, nbytes: int, latency_scale: float = 1.0,
        iteration: Optional[int] = None, tracer=None,
    ) -> float:
        """Time to move ``nbytes`` logical bytes from ``src`` to ``dst``.

        Pure — no counters are touched, so per-GPU superstep workers may
        call it concurrently and stage the traffic for
        :meth:`record_transfers` at the barrier.  Zero-byte messages still
        pay latency (the frontier-length exchange each iteration is such
        a message).  ``latency_scale`` supports the paper's Section V-A
        sensitivity experiment (latency inflated 10x showed "no
        appreciable difference").

        ``iteration`` is fault-injection context: when a
        :class:`~repro.sim.faults.FaultInjector` is armed, a pending
        transient fault on this link raises
        :class:`~repro.errors.CommunicationError` instead of returning a
        cost (the caller's retry loop then re-invokes at backoff cost).
        """
        if nbytes < 0:
            raise CommunicationError(
                "negative transfer size",
                gpu_id=src, iteration=iteration,
                site=f"interconnect.send[{src}->{dst}]",
            )
        if self.faults is not None:
            self.faults.check_comm(src, dst, iteration)
        lost, n = self.lost_gpus, self.num_gpus
        if (0 <= src < n and 0 <= dst < n and src != dst
                and (not lost or (src not in lost and dst not in lost))):
            # a live, in-range pair: link()'s choice, made inline
            group = self.peer_group_size
            lk = (self.peer_link if src // group == dst // group
                  else self.host_link)
        else:
            lk = self.link(src, dst)  # raises the endpoint's error
        if tracer is not None:
            # observation only: staged in the sending GPU's superstep
            tracer.instant(
                "comm.transfer", src=src, dst=dst,
                nbytes=int(nbytes), link=lk.name,
            )
        return lk.latency * latency_scale + nbytes * self.scale / lk.bandwidth

    def record_transfer(self, nbytes: int) -> None:
        """Record one message of ``nbytes`` logical bytes in the traffic
        counters (scaled, with the same per-message rounding as ever)."""
        self.total_bytes += int(nbytes * self.scale)
        self.total_messages += 1

    def record_transfers(self, sizes: Sequence[int]) -> None:
        """:meth:`record_transfer` for each of ``sizes``, in order — one
        sending GPU's superstep, recorded at the barrier."""
        scale = self.scale
        total = self.total_bytes
        for nbytes in sizes:
            total += int(nbytes * scale)
        self.total_bytes = total
        self.total_messages += len(sizes)

    def transfer_time(
        self, src: int, dst: int, nbytes: int, latency_scale: float = 1.0
    ) -> float:
        """:meth:`transfer_cost` plus immediate :meth:`record_transfer` —
        the original single-caller convenience."""
        cost = self.transfer_cost(src, dst, nbytes, latency_scale)
        self.record_transfer(nbytes)
        return cost

    def sync_latency(self, num_active_gpus: int) -> float:
        """Extra per-iteration barrier cost for ``num_active_gpus`` GPUs.

        Calibrated against the paper's measured {66.8, 124, 142, 188} µs
        per-iteration times for 1-4 GPUs (the 1-GPU part lives in the
        device model); extrapolated linearly beyond 4.
        """
        n = num_active_gpus
        if n <= 0:
            return 0.0
        if n <= len(_SYNC_TABLE_US):
            return _SYNC_TABLE_US[n - 1] * 1e-6
        extra = (n - len(_SYNC_TABLE_US)) * _SYNC_SLOPE_US
        return (_SYNC_TABLE_US[-1] + extra) * 1e-6

    def reset_counters(self) -> None:
        self.total_bytes = 0
        self.total_messages = 0
