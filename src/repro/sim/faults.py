"""Deterministic fault injection for the virtual multi-GPU machine.

A :class:`FaultPlan` is a seeded, serializable list of :class:`FaultSpec`
entries, each naming a *kind* of fault, the GPU it strikes, and the BSP
iteration at which it becomes pending.  A :class:`FaultInjector` arms a
plan against a :class:`~repro.sim.machine.Machine`: the interconnect and
the per-GPU memory pools call back into the injector at their natural
fault sites, and the injector decides — deterministically — whether to
raise.

Determinism contract
--------------------
Fault *sites* (a particular transfer, a particular allocation) are data
dependent: whether GPU 2 sends anything at iteration 5 depends on the
graph and the primitive.  Pinning a fault to an exact site would make
plans fragile, so specs use **at-or-after** semantics: a fault becomes
*pending* once its GPU reaches ``spec.iteration`` and fires at the first
opportunity at its site — the first transfer out of that GPU, the first
allocation on it, the first superstep start (for GPU loss).  Given the
same plan and the same run, the same operation fails every time, on
every backend.

Zero overhead when disarmed: every hook in the hot path is guarded by a
single ``if faults is not None`` check on an attribute that is ``None``
unless :meth:`Machine.arm_faults` was called.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    CommunicationError,
    DeviceLostError,
    DeviceMemoryError,
    SimulationError,
)

__all__ = [
    "TRANSIENT_COMM",
    "OOM",
    "STRAGGLER",
    "GPU_LOSS",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
]

#: transient link failure: the transfer raises CommunicationError and
#: succeeds when retried (``count`` consecutive failures per spec)
TRANSIENT_COMM = "transient-comm"
#: allocation failure: the next alloc/realloc on the GPU raises
#: DeviceMemoryError once
OOM = "oom"
#: slow device: kernel launches on the GPU take ``factor``x longer for
#: ``duration`` supersteps (virtual-time only; results are unaffected)
STRAGGLER = "straggler"
#: permanent device loss: the GPU raises DeviceLostError at superstep
#: start and never comes back
GPU_LOSS = "gpu-loss"

FAULT_KINDS = (TRANSIENT_COMM, OOM, STRAGGLER, GPU_LOSS)


@dataclass
class FaultSpec:
    """One planned fault.

    ``iteration`` is the superstep at which the fault becomes pending
    (at-or-after semantics, see module docstring).  ``count`` is the
    number of consecutive failures for ``transient-comm`` (a retry loop
    must survive ``count`` raises before the transfer goes through).
    ``factor``/``duration`` parameterize stragglers.  ``dst`` optionally
    restricts a transient-comm fault to one outgoing link.
    """

    kind: str
    gpu: int
    iteration: int
    count: int = 1
    factor: float = 4.0
    duration: int = 1
    dst: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise SimulationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.gpu < 0 or self.iteration < 0:
            raise SimulationError(
                f"fault gpu/iteration must be >= 0, got "
                f"gpu={self.gpu} iteration={self.iteration}"
            )
        if self.count < 1:
            raise SimulationError(f"fault count must be >= 1, got {self.count}")

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "gpu": int(self.gpu),
            "iteration": int(self.iteration),
        }
        if self.kind == TRANSIENT_COMM:
            d["count"] = int(self.count)
            if self.dst is not None:
                d["dst"] = int(self.dst)
        if self.kind == STRAGGLER:
            d["factor"] = float(self.factor)
            d["duration"] = int(self.duration)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FaultSpec":
        return cls(
            kind=d["kind"],
            gpu=int(d["gpu"]),
            iteration=int(d["iteration"]),
            count=int(d.get("count", 1)),
            factor=float(d.get("factor", 4.0)),
            duration=int(d.get("duration", 1)),
            dst=None if d.get("dst") is None else int(d["dst"]),
        )


@dataclass
class FaultPlan:
    """A serializable, optionally seeded list of planned faults."""

    faults: List[FaultSpec] = field(default_factory=list)
    seed: Optional[int] = None

    def validate(self, num_gpus: int) -> None:
        for spec in self.faults:
            if spec.gpu >= num_gpus:
                raise SimulationError(
                    f"fault targets GPU {spec.gpu} but the machine has "
                    f"{num_gpus} GPUs", gpu_id=spec.gpu, site="faults.plan",
                )
            if spec.dst is not None and spec.dst >= num_gpus:
                raise SimulationError(
                    f"fault link dst {spec.dst} out of range for "
                    f"{num_gpus} GPUs", gpu_id=spec.gpu, site="faults.plan",
                )
        losses = [s for s in self.faults if s.kind == GPU_LOSS]
        if len({s.gpu for s in losses}) >= num_gpus:
            raise SimulationError(
                "fault plan loses every GPU; at least one must survive",
                site="faults.plan",
            )

    # -- serialization -------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "version": 1,
            "seed": self.seed,
            "faults": [s.to_dict() for s in self.faults],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        if not isinstance(payload, dict) or "faults" not in payload:
            raise SimulationError(
                "malformed fault plan JSON: expected an object with a "
                "'faults' list", site="faults.plan",
            )
        return cls(
            faults=[FaultSpec.from_dict(d) for d in payload["faults"]],
            seed=payload.get("seed"),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    # -- generation ----------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        num_gpus: int,
        num_faults: int = 3,
        max_iteration: int = 6,
        kinds: Sequence[str] = FAULT_KINDS,
    ) -> "FaultPlan":
        """A seeded random plan: same seed, same machine → same plan.

        At most one permanent GPU loss is generated so the machine always
        has survivors to recover onto.
        """
        rng = np.random.default_rng(seed)
        faults: List[FaultSpec] = []
        lost = False
        for _ in range(num_faults):
            kind = str(rng.choice(list(kinds)))
            if kind == GPU_LOSS and (lost or num_gpus < 2):
                kind = TRANSIENT_COMM
            gpu = int(rng.integers(0, num_gpus))
            iteration = int(rng.integers(0, max_iteration + 1))
            if kind == TRANSIENT_COMM:
                faults.append(FaultSpec(kind, gpu, iteration,
                                        count=int(rng.integers(1, 4))))
            elif kind == OOM:
                faults.append(FaultSpec(kind, gpu, iteration))
            elif kind == STRAGGLER:
                faults.append(FaultSpec(
                    kind, gpu, iteration,
                    factor=float(rng.uniform(2.0, 8.0)),
                    duration=int(rng.integers(1, 4)),
                ))
            else:
                faults.append(FaultSpec(kind, gpu, iteration))
                lost = True
        return cls(faults=faults, seed=seed)


class FaultInjector:
    """Arms a :class:`FaultPlan` against a machine and fires its faults.

    The injector is shared by the interconnect and every memory pool of
    one machine, and consumed by one thread: the ``processes`` backend's
    workers each hold a forked copy and ship what they consumed back to
    the parent (:meth:`consumption_delta`).
    """

    def __init__(self, plan: FaultPlan, num_gpus: int):
        plan.validate(num_gpus)
        self.plan = plan
        self.num_gpus = num_gpus
        #: how many faults of each kind actually fired
        self.injected: Dict[str, int] = {}
        self._iter: Dict[int, int] = {}
        self._comm: List[List] = []
        self._oom: List[FaultSpec] = []
        self._loss: List[FaultSpec] = []
        self._stragglers: List[FaultSpec] = []
        self.reset()

    def reset(self) -> None:
        """Re-arm the plan from scratch (called by ``Machine.reset``)."""
        self.injected = {k: 0 for k in FAULT_KINDS}
        self._iter = {}
        # mutable [spec, remaining_failures] cells for transient faults
        self._comm = [[s, s.count] for s in self.plan.faults
                      if s.kind == TRANSIENT_COMM]
        self._oom = [s for s in self.plan.faults if s.kind == OOM]
        self._loss = [s for s in self.plan.faults if s.kind == GPU_LOSS]
        self._stragglers = [s for s in self.plan.faults
                            if s.kind == STRAGGLER]

    # -- superstep bookkeeping ----------------------------------------------
    def begin_superstep(self, gpu: int, iteration: int) -> None:
        """Record that ``gpu`` is executing ``iteration``.

        Allocation sites have no iteration argument of their own; the
        injector attributes them to the superstep the owning GPU is in.
        """
        self._iter[gpu] = iteration

    def end_iteration(self) -> None:
        """Clear per-GPU iteration context at the barrier.

        Allocations made outside a superstep (setup, recovery) are never
        fault candidates.
        """
        self._iter.clear()

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    # -- fault sites ---------------------------------------------------------
    def check_gpu_loss(self, gpu: int, iteration: int) -> None:
        """Superstep-start site: raise DeviceLostError if a loss is due."""
        for spec in self._loss:
            if spec.gpu == gpu and iteration >= spec.iteration:
                self._loss.remove(spec)
                self._count(GPU_LOSS)
                raise DeviceLostError(
                    "injected permanent device loss",
                    gpu_id=gpu, iteration=iteration,
                    site=f"machine.gpu[{gpu}]",
                )

    def next_loss_at(self, first: int, gpus) -> Optional[int]:
        """The earliest superstep ``>= first`` at which a pending
        ``gpu-loss`` on one of ``gpus`` (the GPUs that run) fires, or
        None when none can.  A GPU runs every superstep and checks at
        superstep start, so a spec fires at ``max(first, its
        iteration)``."""
        return min(
            (max(first, spec.iteration) for spec in self._loss
             if spec.gpu in gpus),
            default=None,
        )

    def check_comm(self, src: int, dst: int, iteration: Optional[int]) -> None:
        """Transfer site: raise a transient CommunicationError if due."""
        if iteration is None:
            return
        for cell in self._comm:
            spec, remaining = cell
            if (spec.gpu == src and iteration >= spec.iteration
                    and (spec.dst is None or spec.dst == dst)
                    and remaining > 0):
                cell[1] = remaining - 1
                if cell[1] == 0:
                    self._comm.remove(cell)
                self._count(TRANSIENT_COMM)
                raise CommunicationError(
                    "injected transient link failure",
                    gpu_id=src, iteration=iteration,
                    site=f"interconnect.send[{src}->{dst}]",
                )

    def check_alloc(self, gpu: Optional[int], name: str) -> None:
        """Allocation site: raise DeviceMemoryError once if an OOM is due."""
        if gpu is None:
            return
        iteration = self._iter.get(gpu)
        if iteration is None:
            return
        for spec in self._oom:
            if spec.gpu == gpu and iteration >= spec.iteration:
                self._oom.remove(spec)
                self._count(OOM)
                raise DeviceMemoryError(
                    "injected allocation failure",
                    gpu_id=gpu, iteration=iteration,
                    site=f"memory.alloc[{name}]",
                )

    # -- cross-process consumption sync ---------------------------------
    # Each fault spec targets exactly one GPU, and under the processes
    # backend that GPU's worker holds its own forked injector copy — so a
    # spec is only ever consumed in one address space.  The worker
    # snapshots consumption before the superstep, diffs after, and the
    # parent replays the delta; specs are identified by their position in
    # ``plan.faults`` (stable across fork, robust to equal duplicates).

    def snapshot_consumption(self) -> dict:
        """Picklable snapshot of which faults remain armed."""
        pos = {id(s): i for i, s in enumerate(self.plan.faults)}
        return {
            "injected": dict(self.injected),
            "comm": {pos[id(s)]: rem for s, rem in self._comm},
            "oom": [pos[id(s)] for s in self._oom],
            "loss": [pos[id(s)] for s in self._loss],
        }

    def consumption_delta(self, before: dict) -> Optional[dict]:
        """What fired since ``before`` (a :meth:`snapshot_consumption`);
        None when nothing did."""
        after = self.snapshot_consumption()
        injected = {
            k: v - before["injected"].get(k, 0)
            for k, v in after["injected"].items()
            if v != before["injected"].get(k, 0)
        }
        comm_decremented = {
            p: rem for p, rem in after["comm"].items()
            if before["comm"].get(p) != rem
        }
        comm_exhausted = [p for p in before["comm"] if p not in after["comm"]]
        oom_fired = [p for p in before["oom"] if p not in after["oom"]]
        loss_fired = [p for p in before["loss"] if p not in after["loss"]]
        if not (injected or comm_decremented or comm_exhausted
                or oom_fired or loss_fired):
            return None
        return {
            "injected": injected,
            "comm_decremented": comm_decremented,
            "comm_exhausted": comm_exhausted,
            "oom_fired": oom_fired,
            "loss_fired": loss_fired,
        }

    def apply_consumption_delta(self, delta: dict) -> None:
        """Replay a worker's :meth:`consumption_delta` on this injector."""
        for kind, fired in delta["injected"].items():
            self.injected[kind] = self.injected.get(kind, 0) + fired
        spec_at = self.plan.faults
        for p, rem in delta["comm_decremented"].items():
            for cell in self._comm:
                if cell[0] is spec_at[p]:
                    cell[1] = rem
        for p in delta["comm_exhausted"]:
            self._comm = [
                c for c in self._comm if c[0] is not spec_at[p]
            ]
        for p in delta["oom_fired"]:
            self._oom = [s for s in self._oom if s is not spec_at[p]]
        for p in delta["loss_fired"]:
            self._loss = [s for s in self._loss if s is not spec_at[p]]

    def straggler_factor(self, gpu: int, iteration: int) -> float:
        """Compute-time multiplier for ``gpu`` at ``iteration`` (1.0 = none)."""
        factor = 1.0
        for spec in self._stragglers:
            if (spec.gpu == gpu
                    and spec.iteration <= iteration
                    < spec.iteration + spec.duration):
                factor *= spec.factor
                self._count(STRAGGLER)
        return factor
