"""Problem base: per-GPU data slices (the paper's ``ProblemBase``).

A Problem owns what persists across traversals *of one primitive*: the
per-GPU ``DataSlice`` arrays and their device-memory accounting.  The
partitioned sub-graphs it runs on are a shared, read-only
:class:`~repro.partition.partitioned.PartitionedGraph`.  Programmers
subclass it and specify (Section III-B):

* ``NUM_VERTEX_ASSOCIATES`` / ``NUM_VALUE_ASSOCIATES`` — how many
  per-vertex IDs/values accompany each communicated vertex;
* ``duplication`` — duplicate-all or duplicate-1-hop (Section III-C);
* ``communication`` — selective or broadcast;
* ``state`` — a :class:`RunState`: everything a run of the primitive
  writes, and how concurrent writes to it combine;
* :meth:`init_data_slice` — allocate the primitive's per-vertex arrays;
* :meth:`reset` — prepare a new run and return the initial frontiers.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import PartitionError
from ..graph.csr import CsrGraph
from ..partition.base import Partitioner
from ..partition.duplication import DUPLICATE_ALL, SubGraph
from ..partition.partitioned import PartitionedGraph
from ..partition.random_part import RandomPartitioner
from ..sim.machine import Machine
from .combine import Combiner
from .comm import SELECTIVE

__all__ = ["DataSlice", "ProblemBase", "RunState"]


@dataclass(frozen=True)
class RunState:
    """Everything a run of one primitive writes, declared once on its
    problem class (Section III-B: what is communicated and how
    concurrent updates combine).  Checkpoints, rollbacks, the
    ``processes`` backend's per-superstep shipping and the BSP
    sanitizer all read it; nothing else lists these names.

    ``arrays``
        slice array name -> the :class:`~repro.core.combine.Combiner`
        that merges superstep-concurrent writes to it, or None for an
        array only its hosting GPU writes.  Every array a checkpoint
        captures, globalized per vertex.
    ``static``
        slice arrays :meth:`ProblemBase.init_data_slice` derives from
        the sub-graph alone (CC's per-edge ``edge_src``): allocated,
        never checkpointed — a repartition rebuilds them.
    ``per_gpu``
        problem attributes that are sequences indexed by GPU, whose
        entry ``[gpu]`` a hook writes inside a superstep (PR's
        ``max_delta``).  Checkpointed, and shipped back from the worker
        that ran the GPU.
    ``replicated``
        problem attributes the control hooks write at the barrier
        (BC's phase machine).  Checkpointed, and sent to the workers
        whenever they change.

    :meth:`DataSlice.allocate` refuses a name outside ``arrays`` and
    ``static``.
    """

    arrays: Mapping[str, Optional[Combiner]] = field(default_factory=dict)
    static: Tuple[str, ...] = ()
    per_gpu: Tuple[str, ...] = ()
    replicated: Tuple[str, ...] = ()
    #: the checkpointed problem attributes, ``replicated + per_gpu``: a
    #: field, not a property, because every ``processes`` grant reads it
    attrs: Tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "attrs", self.replicated + self.per_gpu)


class DataSlice:
    """Per-GPU named arrays, registered with the device memory pool.
    ``state`` is the owning problem's :class:`RunState`: only the
    arrays it declares may be allocated."""

    def __init__(self, gpu_id: int, pool, state: RunState,
                 prefix: str = "slice") -> None:
        self.gpu_id = gpu_id
        self.pool = pool
        self.state = state
        self.prefix = prefix
        self.arrays: Dict[str, np.ndarray] = {}

    def allocate(self, name: str, shape, dtype, fill: Any = None) -> np.ndarray:
        """Allocate a named device array (charged to the pool)."""
        if name not in self.state.arrays and name not in self.state.static:
            raise KeyError(
                f"slice array {name!r} is not declared in the problem's "
                "RunState (arrays or static)"
            )
        arr = np.empty(shape, dtype=dtype)
        if fill is not None:
            arr.fill(fill)
        self.arrays[name] = arr
        if self.pool is not None:
            self.pool.alloc(f"{self.prefix}.{name}", arr.nbytes)
        return arr

    def release(self) -> None:
        """Free every array registered with the pool."""
        if self.pool is not None:
            for name in self.arrays:
                if self.pool.size_of(f"{self.prefix}.{name}") is not None:
                    self.pool.free(f"{self.prefix}.{name}")
        self.arrays.clear()

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        if name not in self.arrays:
            raise KeyError(
                f"array {name!r} was never allocated on GPU {self.gpu_id}"
            )
        self.arrays[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self.arrays


class ProblemBase:
    """Partition the graph and hold per-GPU state for one primitive.

    Parameters
    ----------
    graph:
        The full input graph.
    machine:
        The virtual node to run on; its GPU count is the partition count.
    partitioner:
        Vertex-assignment strategy (paper default: random, Section V-C).
    duplication / communication:
        Override the primitive's class-level strategy choices.
    charge_memory:
        When False, skip device-memory accounting (used by analysis code
        that replays partitions without simulating a device).
    """

    name: str = "problem"
    NUM_VERTEX_ASSOCIATES: int = 0
    NUM_VALUE_ASSOCIATES: int = 0
    duplication: str = DUPLICATE_ALL
    communication: str = SELECTIVE
    #: the primitive's declared run state (see :class:`RunState`)
    state: RunState = RunState()
    #: whether the primitive materializes an advance-output (intermediate)
    #: frontier; in-place primitives (PR's accumulate, CC's hook+jump)
    #: never need the O(|E|) buffer regardless of the allocation scheme
    uses_intermediate: bool = True
    #: per GPU ``(frontier, local, remote, split stats)``: an output
    #: frontier that is the same array every superstep, with what
    #: :func:`~repro.core.comm.split_frontier` returns for it, computed
    #: once (PR, at the GPU's first superstep: the paper's Section VI
    #: point that its frontier and traffic are known beforehand).  The
    #: enactor uses the stored split whenever a GPU's core returns that
    #: very array, and splits anything else as usual.  Everything in it
    #: is read-only.
    fixed_routes: Optional[Sequence[tuple]] = None

    def __init__(
        self,
        graph: CsrGraph,
        machine: Machine,
        partitioner: Optional[Partitioner] = None,
        duplication: Optional[str] = None,
        communication: Optional[str] = None,
        charge_memory: bool = True,
    ):
        self.graph = graph
        self.machine = machine
        self.num_gpus = machine.num_gpus
        if duplication is not None:
            self.duplication = duplication
        if communication is not None:
            self.communication = communication
        # Broadcast sends one message to every peer, so the vertex IDs in
        # it must mean the same thing on every receiver — only
        # duplicate-all's global numbering guarantees that.  With
        # duplicate-1-hop each GPU has its own renumbering and a broadcast
        # would be silently misinterpreted (Section III-C pairs the
        # strategies for exactly this reason).
        from ..partition.duplication import DUPLICATE_1HOP
        from .comm import BROADCAST

        if (
            self.communication == BROADCAST
            and self.duplication == DUPLICATE_1HOP
        ):
            raise PartitionError(
                "broadcast communication requires duplicate-all: "
                "duplicate-1-hop renumbers vertices per GPU, so a single "
                "broadcast payload cannot be valid on every receiver"
            )
        self.charge_memory = charge_memory
        self._bind(PartitionedGraph.of(
            graph, partitioner or RandomPartitioner(), self.num_gpus,
            self.duplication,
        ))
        # unique allocation prefix so several problems can share a machine
        seq = getattr(machine, "_problem_seq", 0)
        machine._problem_seq = seq + 1
        self.alloc_prefix = f"{self.name}#{seq}"
        self._build_data_slices(dead=frozenset())

    def _bind(self, partitioned: PartitionedGraph) -> None:
        """Run on ``partitioned`` from now on.  Its fields are bound as
        plain attributes: hooks read them every superstep."""
        self.partitioned = partitioned
        self.partition = partitioned.partition
        self.subgraphs: Tuple[SubGraph, ...] = partitioned.subgraphs
        self.hosted_frontiers = partitioned.hosted_frontiers

    def _build_data_slices(self, dead: frozenset) -> None:
        """(Re)create per-GPU data slices for the current subgraphs.

        ``dead`` GPUs get a slice without device-memory accounting (their
        hardware is gone; the host-side arrays exist only so indexing
        stays uniform — with an empty hosted set they carry no results).
        """
        self.data_slices = []
        for gpu in range(self.num_gpus):
            charge = self.charge_memory and gpu not in dead
            pool = self.machine.gpus[gpu].memory if charge else None
            if pool is not None:
                pool.alloc(
                    f"{self.alloc_prefix}.subgraph",
                    self.subgraphs[gpu].memory_bytes(),
                )
            ds = DataSlice(gpu, pool, self.state, prefix=self.alloc_prefix)
            self.init_data_slice(ds, self.subgraphs[gpu])
            self.data_slices.append(ds)

    # -- programmer-specified hooks ---------------------------------------
    def init_data_slice(self, ds: DataSlice, sub: SubGraph) -> None:
        """Allocate the primitive's per-vertex arrays; override me."""

    def reset(self, **kwargs) -> List[np.ndarray]:
        """Prepare for a new run; return the initial frontier per GPU.

        Frontier vertices are in each GPU's local numbering.
        """
        raise NotImplementedError

    # -- framework helpers --------------------------------------------------
    def locate(self, global_vertex: int) -> tuple:
        """(host GPU, local ID) of a global vertex — how ``Reset`` places
        the source vertex (paper Appendix A: ``partition_tables`` then
        ``conversion_tables``)."""
        gpu = int(self.partition.partition_table[global_vertex])
        if self.duplication == DUPLICATE_ALL:
            return gpu, int(global_vertex)
        return gpu, int(self.partition.conversion_table[global_vertex])

    def extract(self, name: str, dtype=None) -> np.ndarray:
        """Gather a per-vertex result array back to global numbering.

        Each vertex's value is taken from its *hosting* GPU's slice (proxy
        copies are ignored), undoing the renumbering the partitioner did.
        """
        first = self.data_slices[0][name]
        out = np.empty(self.graph.num_vertices, dtype=dtype or first.dtype)
        for gpu in range(self.num_gpus):
            sub = self.subgraphs[gpu]
            arr = self.data_slices[gpu][name]
            hosted_local = self.hosted_frontiers[gpu]
            hosted_global = sub.local_to_global[hosted_local]
            out[hosted_global] = arr[hosted_local]
        return out

    def release(self) -> None:
        """Free all device memory held by this problem."""
        for gpu, ds in enumerate(self.data_slices):
            pool = ds.pool
            ds.release()
            if pool is not None and pool.size_of(
                f"{self.alloc_prefix}.subgraph"
            ) is not None:
                pool.free(f"{self.alloc_prefix}.subgraph")

    # -- checkpoint / recovery API (docs/robustness.md) ---------------------
    def snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """Globalized copies of the allocated ``state.arrays``, in
        allocation order."""
        declared = self.state.arrays
        return {name: self.extract(name)
                for name in self.data_slices[0].arrays if name in declared}

    def restore_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Scatter globalized arrays back into every GPU's slice.

        Proxy (non-hosted) entries receive the hosting GPU's value —
        the authoritative one at the checkpointed barrier.
        """
        for name, global_arr in arrays.items():
            for gpu in range(self.num_gpus):
                sub = self.subgraphs[gpu]
                if name not in self.data_slices[gpu]:
                    continue
                self.data_slices[gpu][name][:] = (
                    global_arr[sub.local_to_global]
                )

    def snapshot_attrs(self) -> Dict[str, Any]:
        """Deep-copied values of ``state.attrs``."""
        return {name: copy.deepcopy(getattr(self, name))
                for name in self.state.attrs}

    def restore_attrs(self, attrs: Dict[str, Any]) -> None:
        for name, value in attrs.items():
            setattr(self, name, copy.deepcopy(value))

    def global_to_local(self, gpu: int, global_ids: np.ndarray) -> np.ndarray:
        """Map global vertex IDs into ``gpu``'s local numbering.

        Every requested vertex must exist in the subgraph (hosted or
        1-hop proxy); a miss means the caller routed state to the wrong
        GPU and raises :class:`~repro.errors.PartitionError`.
        """
        return self.partitioned.global_to_local(gpu, global_ids)

    def repartition(self, assignment: np.ndarray, dead=frozenset()) -> None:
        """Rebind to a fresh partition of a new vertex assignment and
        rebuild the slices.  The partition in use until now, which other
        problems may share, is left as it is.

        Used by degraded-mode recovery: after a permanent GPU loss the
        enactor reassigns the dead GPU's vertices onto survivors and
        calls this, then restores array *contents* from the checkpoint
        (``init_data_slice`` reinitializes them here).  The machine keeps
        its GPU count — dead GPUs get empty-hosted subgraphs so existing
        indexing stays valid.
        """
        dead = frozenset(int(g) for g in dead)
        assignment = np.asarray(assignment)
        if assignment.shape != (self.graph.num_vertices,):
            raise PartitionError(
                f"assignment has shape {assignment.shape}, expected "
                f"({self.graph.num_vertices},)", site="problem.repartition",
            )
        if dead and np.isin(assignment, list(dead)).any():
            raise PartitionError(
                "new assignment routes vertices to a lost GPU",
                site="problem.repartition",
            )
        self.release()
        self._bind(PartitionedGraph.from_assignment(
            self.graph, assignment, self.num_gpus, self.duplication
        ))
        self._build_data_slices(dead=dead)

    def on_repartition(self, dead=frozenset()) -> None:
        """Hook run after repartition + state restore completes.

        Primitives with partition-derived caches (PR's border frontiers,
        push plans and routes) or per-GPU convergence state drop or
        recompute them here.
        """
