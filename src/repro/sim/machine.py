"""The multi-GPU machine: devices + interconnect + virtual clock.

A :class:`Machine` is the substrate every experiment runs on.  Factory
helpers build the paper's three test systems:

* :func:`k40_node` — 6x Tesla K40 (the main results node);
* :func:`k80_node` — 4x Tesla K80 boards = 8 GPUs (Fig. 5 system 1);
* :func:`p100_node` — 4x Tesla P100 (Fig. 5 system 2).
"""

from __future__ import annotations

from typing import List, Optional, Set

from .clock import VirtualClock
from .device import K40, K80_HALF, P100, DeviceSpec, VirtualGPU
from .interconnect import Interconnect, LinkSpec
from .kernel import KernelModel

__all__ = ["Machine", "k40_node", "k80_node", "p100_node", "multi_node_cluster", "DEFAULT_SCALE"]

#: Default workload scale: stand-in datasets are ~2^10 smaller than the
#: paper's, so each logical byte is charged as 1024 bytes (DESIGN.md).
DEFAULT_SCALE = 1024.0


class Machine:
    """A single node with ``num_gpus`` identical GPUs.

    Parameters
    ----------
    num_gpus:
        Device count (the paper uses 1-8).
    spec:
        Per-GPU hardware constants.
    scale:
        Workload scale multiplier applied to all bandwidth-proportional
        costs and memory accounting.
    peer_group_size, peer_link, host_link:
        Interconnect configuration (defaults follow the paper's PCIe3
        node with peer access in groups of 4).
    """

    def __init__(
        self,
        num_gpus: int,
        spec: DeviceSpec = K40,
        scale: float = DEFAULT_SCALE,
        peer_group_size: int = 4,
        peer_link: Optional[LinkSpec] = None,
        host_link: Optional[LinkSpec] = None,
    ):
        if num_gpus < 1:
            raise ValueError("num_gpus must be positive")
        self.num_gpus = num_gpus
        self.spec = spec
        self.scale = float(scale)
        self.clock = VirtualClock()
        kwargs = {}
        if peer_link is not None:
            kwargs["peer_link"] = peer_link
        if host_link is not None:
            kwargs["host_link"] = host_link
        self.interconnect = Interconnect(
            num_gpus, peer_group_size=peer_group_size, scale=self.scale, **kwargs
        )
        self.gpus: List[VirtualGPU] = [
            VirtualGPU.create(i, spec, self.scale) for i in range(num_gpus)
        ]
        self.kernel_model = KernelModel(spec, self.scale)
        #: armed FaultInjector, or None (the common, zero-overhead case)
        self.faults = None
        #: permanently lost GPU ids (degraded mode); shared with the
        #: interconnect so transfers to a dead device are refused
        self.lost_gpus: Set[int] = set()

    @property
    def alive_gpus(self) -> List[int]:
        """Indices of GPUs still operating (all of them until a loss)."""
        if not self.lost_gpus:
            return list(range(self.num_gpus))
        return [i for i in range(self.num_gpus) if i not in self.lost_gpus]

    def lose_gpu(self, gpu: int) -> None:
        """Mark ``gpu`` permanently lost (degraded mode).

        The device's streams and memory are abandoned as-is; the
        interconnect starts refusing links that touch it.  Loss is not
        undone by :meth:`reset` — it models broken hardware.
        """
        if not 0 <= gpu < self.num_gpus:
            raise ValueError(f"GPU id {gpu} out of range")
        self.lost_gpus.add(gpu)
        self.interconnect.lost_gpus = self.lost_gpus

    def arm_faults(self, plan) -> "object":
        """Arm a :class:`~repro.sim.faults.FaultPlan` (or an injector).

        Returns the armed :class:`~repro.sim.faults.FaultInjector`.  The
        injector is shared with the interconnect and every GPU's memory
        pool; all their hot-path hooks stay single ``is None`` checks
        when nothing is armed.
        """
        from .faults import FaultInjector, FaultPlan

        if isinstance(plan, FaultPlan):
            injector = FaultInjector(plan, self.num_gpus)
        else:
            injector = plan
        self.faults = injector
        self.interconnect.faults = injector
        for g in self.gpus:
            g.memory.faults = injector
        return injector

    def reset(self) -> None:
        """Reset all timelines and traffic counters (memory stays).

        An armed fault plan is re-armed from scratch so that repeated
        ``enact()`` calls replay the same fault sequence deterministically.
        Lost GPUs stay lost (hardware does not heal on reset).
        """
        self.clock.reset()
        self.interconnect.reset_counters()
        for g in self.gpus:
            g.reset_time()
        if self.faults is not None:
            self.faults.reset()

    def barrier(
        self, extra_latency: bool = True, compute_only: bool = False,
        tracer=None,
    ) -> float:
        """Synchronize all GPUs: advance every stream to the global max.

        Models the end-of-iteration synchronization point of the BSP loop.
        When ``extra_latency`` is true, the inter-GPU synchronization cost
        l(n) from the paper's Section V-B measurement is added.

        With ``compute_only`` the barrier waits only for the *compute*
        streams — in-flight transfers on the communication streams keep
        draining into the next superstep, which is Gunrock's
        ``cudaStreamWaitEvent``-based compute/communication overlap
        (Section III-B "Manage GPUs"): receivers block on the specific
        arrival events they need, not on a global flush.

        In degraded mode only surviving GPUs participate: lost devices
        neither contribute to nor pay the synchronization cost.

        ``tracer`` (the enactor's, or None) records a ``barrier``
        instant.

        Returns the post-barrier time.
        """
        lost = self.lost_gpus
        gpus = (
            [g for i, g in enumerate(self.gpus) if i not in lost]
            if lost else self.gpus
        )
        # every participating stream, once: found, then raised to t
        if compute_only:
            streams = [g.streams["compute"] for g in gpus]
        else:
            streams = [s for g in gpus for s in g.streams.values()]
        t = max([s.available_at for s in streams], default=0.0)
        sync = self.interconnect.sync_latency(len(gpus)) if extra_latency else 0.0
        t += sync
        for s in streams:
            if s.available_at < t:
                s.available_at = t
        self.clock.advance_to(t)
        if tracer is not None:
            tracer.instant(
                "barrier",
                vt=t,
                gpus=len(gpus),
                sync=sync,
                compute_only=bool(compute_only),
            )
        return t

    def describe(self) -> str:
        return (
            f"{self.num_gpus}x {self.spec.name}, "
            f"peer groups of {self.interconnect.peer_group_size}, "
            f"scale={self.scale:g}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Machine({self.describe()})"


def k40_node(num_gpus: int = 6, scale: float = DEFAULT_SCALE) -> Machine:
    """The paper's main test node: up to 6 Tesla K40s on PCIe3."""
    return Machine(num_gpus, spec=K40, scale=scale)


def k80_node(num_gpus: int = 8, scale: float = DEFAULT_SCALE) -> Machine:
    """Fig. 5 system 1: 4 K80 boards = 8 GPUs; peer access per board pair."""
    return Machine(num_gpus, spec=K80_HALF, scale=scale, peer_group_size=4)


def p100_node(num_gpus: int = 4, scale: float = DEFAULT_SCALE) -> Machine:
    """Fig. 5 system 2: 4 Tesla P100 (PCIe)."""
    return Machine(num_gpus, spec=P100, scale=scale)


def multi_node_cluster(
    num_nodes: int,
    gpus_per_node: int = 4,
    spec: DeviceSpec = K40,
    scale: float = DEFAULT_SCALE,
    inter_node_link: Optional[LinkSpec] = None,
) -> Machine:
    """A scale-out configuration: the paper's Section VIII open question.

    Models ``num_nodes`` nodes of ``gpus_per_node`` GPUs each.  Intra-node
    transfers use PCIe peer links; inter-node transfers use
    ``inter_node_link`` (default: an InfiniBand-class 6 GB/s, 10 µs
    link).  Implemented as one Machine whose peer groups are the nodes —
    the framework's algorithms run unchanged, which is itself the paper's
    claim about abstraction generality.
    """
    from .interconnect import LinkSpec as _LinkSpec

    link = inter_node_link or _LinkSpec("infiniband", 6e9, 10e-6)
    return Machine(
        num_nodes * gpus_per_node,
        spec=spec,
        scale=scale,
        peer_group_size=gpus_per_node,
        host_link=link,
    )
