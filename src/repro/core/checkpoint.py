"""Barrier checkpointing and rollback routing (docs/robustness.md).

A :class:`Checkpoint` is a host-side snapshot of everything a traversal
needs to resume from a superstep barrier:

* the globalized per-vertex slice arrays (each vertex's value taken from
  its hosting GPU — the authoritative copy at a barrier);
* the problem attributes its :class:`~repro.core.problem.RunState`
  declares (BC's phase machine, PR's convergence deltas, ...);
* per-GPU frontiers and in-flight messages, both lifted to *global*
  vertex IDs so they survive a repartition.

Everything is stored in global numbering on the host precisely so that a
rollback can re-route state onto a *different* vertex assignment than the
one it was captured under — that is what degraded-mode recovery after a
permanent GPU loss does: survivors keep their sub-frontiers, the dead
GPU's share is dealt onto its vertices' new hosts.

The virtual cost of taking/restoring a checkpoint (a host round-trip of
:attr:`Checkpoint.nbytes`) is charged by the enactor, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .comm import BROADCAST, Message

__all__ = [
    "PendingMessage",
    "Checkpoint",
    "RecoveryPolicy",
    "capture_checkpoint",
    "route_restored_state",
]

@dataclass
class PendingMessage:
    """An in-flight message lifted to global vertex numbering."""

    src_gpu: int
    dst_gpu: int
    vertices: np.ndarray  # global IDs
    vertex_associates: List[np.ndarray] = field(default_factory=list)
    value_associates: List[np.ndarray] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        total = int(self.vertices.nbytes)
        for a in self.vertex_associates:
            total += int(a.nbytes)
        for a in self.value_associates:
            total += int(a.nbytes)
        return total


@dataclass
class RecoveryPolicy:
    """Knobs of the enactor's fault handling (docs/robustness.md).

    ``comm_backoff_base``/``cap`` are virtual seconds charged to the
    sender's communication stream per retry: capped exponential backoff,
    ``min(base * 2**(attempt-1), cap)``.
    """

    max_comm_retries: int = 5
    comm_backoff_base: float = 20e-6
    comm_backoff_cap: float = 500e-6
    retry_oom: bool = True
    max_rollbacks: int = 8


@dataclass
class Checkpoint:
    """One barrier snapshot; see the module docstring for the contract."""

    iteration: int
    partition_table: np.ndarray
    arrays: Dict[str, np.ndarray]
    attrs: Dict[str, object]
    frontiers: List[np.ndarray]  # per-GPU, global IDs
    messages: List[PendingMessage]

    @property
    def num_gpus(self) -> int:
        return len(self.frontiers)

    @property
    def nbytes(self) -> int:
        """Logical snapshot size — what the host transfer is charged at."""
        total = int(self.partition_table.nbytes)
        for arr in self.arrays.values():
            total += int(arr.nbytes)
        for f in self.frontiers:
            total += int(f.nbytes)
        for m in self.messages:
            total += m.nbytes
        return total


# ----------------------------------------------------------------------
def capture_checkpoint(
    problem, iteration: int,
    frontiers: List[np.ndarray], inboxes: List[List[tuple]],
    tracer=None,
) -> Checkpoint:
    """Snapshot the run at the barrier that ended ``iteration``.

    ``frontiers`` are the enactor's per-GPU local-ID frontiers and
    ``inboxes`` its per-GPU ``(arrival, Message)`` lists; both are lifted
    to global IDs.  Arrival timestamps are dropped: after a rollback the
    clock has moved on, so the enactor re-stamps deliveries at restore
    time.  ``tracer`` (optional) gets a ``checkpoint.capture`` event with
    the wall-clock cost of building the snapshot.
    """
    _wall0 = tracer.wall() if tracer is not None else 0.0
    subs = problem.subgraphs
    global_frontiers = [
        np.asarray(subs[g].local_to_global, dtype=np.int64)[
            np.asarray(f, dtype=np.int64)
        ]
        for g, f in enumerate(frontiers)
    ]
    messages: List[PendingMessage] = []
    for dst, box in enumerate(inboxes):
        l2g = np.asarray(subs[dst].local_to_global, dtype=np.int64)
        for _arrival, msg in box:
            messages.append(
                PendingMessage(
                    src_gpu=msg.src_gpu,
                    dst_gpu=dst,
                    vertices=l2g[np.asarray(msg.vertices, dtype=np.int64)],
                    vertex_associates=[
                        np.array(a, copy=True) for a in msg.vertex_associates
                    ],
                    value_associates=[
                        np.array(a, copy=True) for a in msg.value_associates
                    ],
                )
            )
    ckpt = Checkpoint(
        iteration=iteration,
        partition_table=np.array(
            problem.partition.partition_table, copy=True
        ),
        arrays=problem.snapshot_arrays(),
        attrs=problem.snapshot_attrs(),
        frontiers=global_frontiers,
        messages=messages,
    )
    if tracer is not None:
        tracer.instant(
            "checkpoint.capture", vt=problem.machine.clock.now,
            iteration=int(iteration),
            nbytes=int(ckpt.nbytes), messages=len(messages),
            wall_dur=tracer.wall() - _wall0,
        )
    return ckpt


def _dedup_preserving_order(arr: np.ndarray) -> np.ndarray:
    """Drop repeated IDs, keeping first occurrences in place.

    A frontier is semantically a vertex *set*; merging a dead GPU's
    rerouted share into a survivor's frontier must not double entries.
    Order is preserved so runs without duplicates are byte-identical to
    the pre-merge frontier.
    """
    if arr.size < 2:
        return arr
    _, first = np.unique(arr, return_index=True)
    if first.size == arr.size:
        return arr
    return arr[np.sort(first)]


def route_restored_state(
    ckpt: Checkpoint, problem, lost, tracer=None,
) -> Tuple[List[np.ndarray], List[Message]]:
    """Map a checkpoint onto the problem's *current* vertex assignment.

    Must run after :meth:`ProblemBase.repartition`; ``lost`` is the set
    of dead GPUs.  Returns per-GPU local-ID frontiers and the re-routed
    in-flight messages (receiver-local numbering, no arrival times).

    Routing rules:

    * an alive GPU keeps its own frontier and incoming messages (its
      hosted set is unchanged by :func:`reassign_onto_survivors`);
    * a dead GPU's frontier keeps only the vertices it *hosted* at
      capture time — other entries were mirrored work whose hosts still
      handle them — and each goes to its new host;
    * selective messages addressed to a dead GPU are re-split among the
      vertices' new hosts (associate arrays sliced alongside);
    * broadcast messages addressed to a dead GPU are dropped: the same
      payload was delivered to every alive peer already.
    """
    lost = frozenset(int(g) for g in lost)
    n = ckpt.num_gpus
    new_pt = problem.partition.partition_table
    ckpt_pt = ckpt.partition_table

    routed_global: List[List[np.ndarray]] = [[] for _ in range(n)]
    for g in range(n):
        fr = np.asarray(ckpt.frontiers[g], dtype=np.int64)
        if g not in lost:
            routed_global[g].append(fr)
            continue
        owned = fr[ckpt_pt[fr] == g]
        for host in np.unique(new_pt[owned]):
            routed_global[int(host)].append(owned[new_pt[owned] == host])

    frontiers: List[np.ndarray] = []
    for g in range(n):
        parts = [p for p in routed_global[g] if p.size] or [
            np.empty(0, dtype=np.int64)
        ]
        merged = parts[0] if len(parts) == 1 else np.concatenate(parts)
        merged = _dedup_preserving_order(merged)
        frontiers.append(
            problem.global_to_local(g, merged) if g not in lost
            else np.empty(0, dtype=np.int64)
        )

    broadcast = problem.communication == BROADCAST
    messages: List[Message] = []
    for pm in ckpt.messages:
        verts = np.asarray(pm.vertices, dtype=np.int64)
        if pm.dst_gpu not in lost:
            messages.append(
                Message(
                    pm.src_gpu, pm.dst_gpu,
                    problem.global_to_local(pm.dst_gpu, verts),
                    [np.array(a, copy=True) for a in pm.vertex_associates],
                    [np.array(a, copy=True) for a in pm.value_associates],
                )
            )
            continue
        if broadcast:
            # every alive peer got its own copy of this payload
            continue
        for host in np.unique(new_pt[verts]):
            host = int(host)
            mask = new_pt[verts] == host
            messages.append(
                Message(
                    pm.src_gpu, host,
                    problem.global_to_local(host, verts[mask]),
                    [np.array(a[mask], copy=True)
                     for a in pm.vertex_associates],
                    [np.array(a[mask], copy=True)
                     for a in pm.value_associates],
                )
            )
    if tracer is not None:
        tracer.instant(
            "recovery.restore-routed",
            vt=problem.machine.clock.now,
            iteration=int(ckpt.iteration),
            frontier_items=int(sum(f.size for f in frontiers)),
            messages=len(messages),
        )
    return frontiers, messages
