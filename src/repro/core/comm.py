"""Inter-GPU communication: split, package, push, combine support.

Implements the framework side of Section III-B/III-C: at the end of each
iteration the output frontier is split into local and remote sub-frontiers;
remote sub-frontiers are packaged with the programmer-specified associated
values and pushed to peer GPUs; the receiver combines them at the start of
its next iteration.

Two strategies (Section III-C):

* **selective** — send each frontier vertex only to its hosting GPU
  (requires the split step; less traffic);
* **broadcast** — send the whole frontier to every peer (no split, more
  traffic; required when any GPU may need any update, e.g. DOBFS's
  backward direction or CC's pointer jumping).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..partition.duplication import SubGraph
from ..types import IdConfig
from .stats import OpStats

__all__ = ["Message", "split_frontier", "route_empty_frontier",
           "make_selective_messages", "make_broadcast_messages",
           "SELECTIVE", "BROADCAST"]

SELECTIVE = "selective"
BROADCAST = "broadcast"


@dataclass
class Message:
    """One packaged sub-frontier in flight between two GPUs.

    ``vertices`` are IDs in the *receiver's* numbering (for
    duplicate-1-hop the sender converts through ``host_local_id``; for
    duplicate-all IDs are global and universal).  Associates are parallel
    arrays: per-vertex IDs of ``VertexT`` (e.g. predecessors, as global
    IDs) and per-vertex values of ``ValueT`` (e.g. distances, ranks).

    ``vertices`` is always a plain int64 ndarray (packaging converts
    through the int64 ``host_local_id``; the exchange segment and the
    checkpoint restore keep the dtype), so combiners index with it as it
    is.
    """

    src_gpu: int
    dst_gpu: int
    vertices: np.ndarray
    vertex_associates: List[np.ndarray] = field(default_factory=list)
    value_associates: List[np.ndarray] = field(default_factory=list)

    @property
    def num_items(self) -> int:
        return int(self.vertices.size)

    def nbytes(self, ids: IdConfig) -> int:
        """Logical wire size: the Table V lever (64-bit IDs double this)."""
        total = self.vertices.size * ids.vertex_bytes
        for a in self.vertex_associates:
            total += a.size * ids.vertex_bytes
        for a in self.value_associates:
            total += a.size * ids.value_bytes
        return int(total)


def split_frontier(
    sub: SubGraph, frontier: np.ndarray, ids_bytes: int = 4, tracer=None
) -> Tuple[np.ndarray, Dict[int, np.ndarray], OpStats]:
    """Split an output frontier into the local part and per-peer parts.

    Returns ``(local_part, {peer: local_ids_of_their_vertices}, stats)``.
    The per-peer arrays hold *this GPU's local IDs* (so the caller can
    gather associated values); conversion to receiver numbering happens at
    packaging.  C (communication computation) is O(|frontier|): one host
    lookup and one scatter per element — here one stable counting
    partition by owner, whose key (``sub.owner_keys``, at most 16 bits)
    NumPy sorts in a radix pass.  Every part keeps the frontier's order
    and is a slice of one owner-sorted copy; peers appear in ascending
    order, as Python ints.
    """
    frontier = np.asarray(frontier)
    if frontier.dtype != np.int64:
        # enactor-fed frontiers arrive already int64; only detached
        # callers (tests) pay this copy
        frontier = frontier.astype(np.int64)
    items = frontier.size
    gpu_id = sub.gpu_id
    hosts = sub.owner_keys[frontier]
    remote: Dict[int, np.ndarray] = {}
    if np.count_nonzero(hosts == gpu_id) == items:
        # interior (or empty) frontier: nothing to route, no partition
        local = frontier
    else:
        by_owner = frontier.take(hosts.argsort(kind="stable"))
        local = by_owner[:0]
        start = 0
        for owner, count in enumerate(np.bincount(hosts).tolist()):
            if count:
                stop = start + count
                if owner == gpu_id:
                    local = by_owner[start:stop]
                else:
                    remote[owner] = by_owner[start:stop]
                start = stop
    stats = OpStats(
        name="split",
        input_size=items,
        output_size=items,
        vertices_processed=items,
        launches=1,
        streaming_bytes=2 * items * ids_bytes,
        random_bytes=items * 4,  # host table probe
    )
    if tracer is not None:
        trace_split(tracer, gpu_id, items, local, remote)
    return local, remote, stats


def trace_split(tracer, gpu_id: int, items: int, local: np.ndarray,
                remote: Dict[int, np.ndarray]) -> None:
    """The traced instant of one split — made by :func:`split_frontier`,
    and by the enactor when it replays a stored route split
    (``ProblemBase.fixed_routes``)."""
    tracer.instant(
        "comm.split", gpu=gpu_id, items=items, local=int(local.size),
        peers=len(remote),
    )


#: what splitting and packaging an empty frontier is charged: the split
#: kernel still launches, packaging does not.  Shared and never mutated —
#: the enactor only prices them.
_EMPTY_SPLIT = OpStats(name="split", launches=1)
_EMPTY_PACKAGE = OpStats(name="package", launches=0)


def route_empty_frontier(
    sub: SubGraph, num_associates: int, tracer=None
) -> List[OpStats]:
    """:func:`split_frontier` + :func:`make_selective_messages` for an
    empty frontier, without the array work: their ``[split, package]``
    stats (no local part, no messages) and, traced, their two events."""
    if tracer is not None:
        tracer.instant(
            "comm.split", gpu=sub.gpu_id, items=0, local=0, peers=0,
        )
        tracer.instant(
            "comm.package", gpu=sub.gpu_id, items=0, messages=0,
            associates=num_associates,
        )
    return [_EMPTY_SPLIT, _EMPTY_PACKAGE]


def make_selective_messages(
    sub: SubGraph,
    remote: Dict[int, np.ndarray],
    vertex_assoc_arrays: List[np.ndarray],
    value_assoc_arrays: List[np.ndarray],
    ids_bytes: int = 4,
    tracer=None,
) -> Tuple[List[Message], OpStats]:
    """Package per-peer sub-frontiers with their associated data.

    ``*_assoc_arrays`` are the per-vertex source arrays indexed by local
    ID (e.g. the preds array); packaging gathers the entries of the sent
    vertices — this is the "Package data" framework step.
    """
    messages: List[Message] = []
    packaged = 0
    for peer, local_ids in sorted(remote.items()):
        verts = sub.host_local_id[local_ids]
        va = [np.asarray(a[local_ids]) for a in vertex_assoc_arrays]
        la = [np.asarray(a[local_ids]) for a in value_assoc_arrays]
        messages.append(
            Message(sub.gpu_id, peer, verts, va, la)
        )
        packaged += local_ids.size
    n_assoc = len(vertex_assoc_arrays) + len(value_assoc_arrays)
    stats = OpStats(
        name="package",
        input_size=packaged,
        output_size=packaged,
        vertices_processed=packaged,
        launches=1 if packaged else 0,
        streaming_bytes=packaged * ids_bytes * (1 + n_assoc),
        random_bytes=packaged * ids_bytes * (1 + n_assoc),
    )
    if tracer is not None:
        tracer.instant(
            "comm.package", gpu=sub.gpu_id,
            items=int(packaged), messages=len(messages),
            associates=n_assoc,
        )
    return messages, stats


def make_broadcast_messages(
    sub: SubGraph,
    frontier: np.ndarray,
    num_gpus: int,
    vertex_assoc_arrays: List[np.ndarray],
    value_assoc_arrays: List[np.ndarray],
    ids_bytes: int = 4,
    skip=None,
    tracer=None,
) -> Tuple[List[Message], OpStats]:
    """Broadcast the whole frontier to every peer.

    Broadcasting "saves the work required to split the frontier, but
    consumes more memory and communication bandwidth" (Section III-C):
    packaging gathers once, then (n-1) copies go on the wire — H grows to
    O((n-1)|frontier|), exactly DOBFS's Table I row.  ``skip`` names GPUs
    excluded from the peer set (degraded mode after a GPU loss).
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    verts = sub.host_local_id[frontier]
    va = [np.asarray(a[frontier]) for a in vertex_assoc_arrays]
    la = [np.asarray(a[frontier]) for a in value_assoc_arrays]
    skip = skip or ()
    messages = [
        Message(sub.gpu_id, peer, verts, list(va), list(la))
        for peer in range(num_gpus)
        if peer != sub.gpu_id and peer not in skip
    ]
    n_assoc = len(vertex_assoc_arrays) + len(value_assoc_arrays)
    stats = OpStats(
        name="broadcast-package",
        input_size=int(frontier.size),
        output_size=int(frontier.size),
        vertices_processed=int(frontier.size),
        launches=1 if frontier.size else 0,
        streaming_bytes=frontier.size * ids_bytes * (1 + n_assoc),
        random_bytes=frontier.size * ids_bytes * (1 + n_assoc),
    )
    if tracer is not None:
        tracer.instant(
            "comm.package", gpu=sub.gpu_id,
            items=int(frontier.size), messages=len(messages),
            associates=n_assoc, broadcast=True,
        )
    return messages, stats
