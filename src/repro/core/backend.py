"""Execution backends: how the enactor dispatches per-GPU supersteps.

The paper's whole premise (Fig. 1, Section III-B) is that the n GPUs'
per-iteration work runs *concurrently* between BSP barriers.  The
simulation charges virtual time as if it did, but the enactor used to
execute the n virtual GPUs strictly serially in a Python loop, so real
wall-clock grew linearly with GPU count.  This module makes dispatch a
pluggable policy:

* :class:`SerialBackend` — run the supersteps in GPU-index order on the
  calling thread (the original behaviour; zero overhead, easiest to
  debug);
* :class:`ProcessesBackend` — a forked worker pool, one worker per
  virtual GPU by default, that lives as long as its enactor.  The
  read-only graph structure (the problem's ``PartitionedGraph``) is
  read through the fork's copy-on-write pages; the slice arrays a
  worker writes live in shared-memory segments
  (:mod:`repro.core.shm`), so those writes are immediately visible to
  the parent.  What a
  superstep *produces* — the next frontier and the outgoing messages'
  arrays — is written to the GPU's exchange segment where another
  process reads it and crosses the pipe as descriptors (as sizes
  otherwise: "Run protocol" below); the rest of its
  :class:`GpuStepEffects` — the observers' stages
  included — travels as a flat tuple with a small sidecar (stream
  horizons, memory accounting when it changed, fault consumption,
  declared per-GPU attribute mutations) that the parent replays at the
  barrier.  No GIL: true per-core scaling of
  the superstep work.

**Determinism contract.**  A backend only chooses *where* each superstep
runs; it must return the results in GPU-index order.  The enactor keeps
every backend bit-identical by construction: each per-GPU superstep
touches only its own GPU's state (streams, memory pool, data slice) and
*stages* every cross-GPU effect — outgoing messages, metrics-record
entries, interconnect traffic — in a :class:`GpuStepEffects`, which the
enactor merges in GPU-index order at the barrier.  Serial and forked
runs execute the same superstep code and the same merge, so results,
:class:`~repro.sim.metrics.RunMetrics`, virtual times, and sanitizer
reports are identical bit for bit (asserted in
``tests/core/test_backend_determinism.py``).

**Worker affinity and lifetime.**  The processes backend pins each GPU
to one worker for the pool's lifetime, so per-GPU private mutable state
(streams, pools, operator caches) evolves in exactly one address space
between barriers.  The pool is forked at an enactor's
first multi-GPU dispatch — which is also when the shared-memory
manifest and the exchange segments are built — and serves every later
``enact()``: :meth:`~ProcessesBackend.begin_run` sends each worker one
acknowledged ``begin_run`` message that re-establishes what a fresh
fork used to inherit from the just-reset parent (reset machine and
re-armed fault plan, a fresh iteration object, the parent's memory-pool
accounting and frontier capacities).
Warm workers keep their page tables, heap arenas and mappings — a fresh
fork paid for all three again in its first supersteps.  A GPU loss does
not end that: at the rollback :meth:`~ProcessesBackend.rehome` drops
the lost GPUs from their workers' buckets, reaps a worker left with
none (its control-block slot is retired) and has every other worker
rebuild its replica in place with the code the parent runs
(:meth:`Enactor.rebuild_partition`), overlapped with the parent's own
rebuild.  Workers are re-forked only where that is required: after a
worker error or a failed handshake, and when :func:`_fork_token` shows
that something a worker captured at fork time and no message re-ships
— fault plan, observers, recovery policy — differs from what the
parent now holds.  A worker that dies or wedges ends the run in a
:class:`~repro.errors.SimulationError` and the pool is reaped; every
wait on a worker is bounded (:mod:`repro.core.supervise`).

**Run protocol.**  The parent does not lead every superstep: it grants
each worker an *epoch*, ``("run", first, horizon, generations, attrs,
jobs)``, and gets one reply per epoch, ``(status, error, blobs)`` with
one pickled sidecar list per superstep run.  A job is ``(gpu, stream
horizons, frontier descriptor, inbox)`` with every array given as an
:data:`~repro.core.shm.Descriptor`; ``generations`` tells the worker
which generation of each exchange half to read; ``attrs`` is the pickled
snapshot of the problem's checkpointed attributes — its
:class:`~repro.core.problem.RunState` ``per_gpu`` and ``replicated`` —
or None when the worker already holds it.
Superstep ``first`` takes its inputs from ``jobs``.  Each superstep
``k < horizon`` the workers close among themselves: a worker posts its
sidecars to its mailbox half ``k % 2`` in the pool's
:class:`~repro.core.shm.ControlBlock`, arrives, waits for its peers
(:func:`~repro.core.supervise.wait_for_peers`), reads their mailboxes,
applies their stream horizons and per-GPU attributes to its own copy of
the machine and problem, and runs ``Enactor.barrier`` — the function the
parent's loop runs, in the same GPU-index order — on its own GPUs'
effects as they came out of the superstep and its peers' as decoded from
the mail, for its GPUs' next inboxes and the stop decision.  The epoch
ends at ``horizon``, or earlier when ``should_stop`` says so, a worker
raises (it sets the abort word, which releases its peers) or a peer
never arrives.  The parent then *follows*: ``run_iteration(k)`` serves
superstep ``k`` from the log, the enactor replays it through its usual
merge, and the run fails if the parent's own stop decision differs from
the workers'.

An array goes into an exchange half only where another process reads
its contents.  Below the horizon that is a message to a GPU of another
worker; a GPU's next frontier and a message between two GPUs of one
worker stay in that worker and travel as their sizes.  In the horizon
superstep — the one the parent checkpoints at or dispatches from —
every frontier and every message is written.  So the parent's replay of
a superstep below the horizon, and a worker's view of a peer's frontier,
get :class:`_SizeOnly` stand-ins: they carry a size and raise, naming
the rule, if anything reads their contents.

The horizon is the next superstep a checkpoint is due at, or
``max_iterations()`` — or, with a fault plan armed, the superstep a
pending GPU loss fires in
(:meth:`~repro.sim.faults.FaultInjector.next_loss_at`) if that comes
first: only a loss ends a superstep in a ``DeviceLostError``, which
the worker ships as that GPU's result — as every backend returns it —
and the rollback it starts is the parent's.  The other modelled faults
are absorbed inside the superstep.  An attached observer changes
nothing here: its stages ride the :class:`GpuStepEffects` of every
superstep the log holds.

Superstep ``k`` reads exchange half ``(k - 1) % 2`` and writes half
``k % 2``, so a replayed superstep finds its inputs intact; a worker
starts superstep ``k + 1`` only past barrier ``k``, which every reader
of the half it is about to rewrite has reached.  Sidecars cross the
mailbox and the pipe as plain tuples (they pickle several times faster
than the :class:`_Sidecar` NamedTuple a reader rebuilds).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from collections import deque
from dataclasses import astuple, dataclass, field, fields
from typing import (
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..errors import (
    DeviceLostError,
    SimulationError,
    WorkerCrashError,
    WorkerHangError,
)
from .comm import Message
from .shm import ControlBlock, ExchangeSegment, SliceManifest, _rewrap_like
from .supervise import reap_worker, wait_for_peers, wait_for_reply, worker_recv

__all__ = [
    "GpuStepEffects",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessesBackend",
    "make_backend",
    "BACKENDS",
]

BACKENDS = ("serial", "processes")


@dataclass
class GpuStepEffects:
    """One GPU's staged cross-GPU effects for one superstep.

    Everything a superstep produces that any *other* GPU (or the shared
    metrics record / interconnect) consumes lives here, so workers never
    race on shared structures.  The enactor applies these in GPU-index
    order at the barrier, reproducing exactly the mutation order of the
    serial loop — including dict key-insertion order, which JSON traces
    observe.  The processes backend ships it across the worker pipe as
    the flat tuple of its fields, with every array (the frontier, the
    messages' vertex and associate arrays) replaced by a descriptor
    into the GPU's exchange segment, or by its size where no other
    process reads it (:func:`_pack_effects`).
    """

    gpu: int
    #: the GPU's next local input frontier
    frontier: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    compute_seconds: float = 0.0
    comm_seconds: float = 0.0
    #: merged input frontier size (summed into the record)
    frontier_size: int = 0
    direction: str = ""
    edges_visited: int = 0
    vertices_processed: int = 0
    #: combined incoming items; None when no messages arrived (the
    #: serial loop only creates the record key when mail was processed)
    comm_compute_items: Optional[int] = None
    items_sent: int = 0
    bytes_sent: int = 0
    #: outgoing messages: (dst_gpu, arrival_timestamp, Message)
    sends: List[Tuple[int, float, object]] = field(default_factory=list)
    #: logical byte size of each sent message, replayed onto the
    #: interconnect's traffic counters at merge time
    transfer_nbytes: List[int] = field(default_factory=list)
    #: transient communication faults survived via retry this superstep
    comm_retries: int = 0
    #: virtual seconds this GPU spent in retry backoff
    retry_seconds: float = 0.0
    #: allocation failures survived by exact-fit regrown allocation
    oom_recoveries: int = 0
    #: each observer's stage of this superstep, in the enactor's
    #: observer order (``Observer.on_superstep_end``), handed back at the
    #: merge (``Observer.on_effects``); empty when nothing observes
    stages: tuple = ()


class ExecutionBackend:
    """Dispatch policy for one iteration's per-GPU supersteps."""

    name = "base"

    def bind(self, enactor) -> None:
        """Called once by the owning enactor after construction."""

    def begin_run(self, enactor) -> None:
        """Called at the start of every ``enact()`` (after problem,
        machine and observer reset): backends with per-run worker state
        refresh it here."""

    def end_run(self, iteration: int) -> None:
        """Called when ``should_stop`` ended the run after superstep
        ``iteration``: a backend whose workers run ahead checks that
        they stopped there too."""

    def rehome(self, enactor, lost, assignment, attrs) -> None:
        """Called at a GPU-loss rollback, before the enactor rebuilds
        its partition for ``assignment`` without the ``lost`` GPUs
        (:meth:`Enactor.rebuild_partition`): a backend with replicas of
        the problem starts rebuilding them here."""

    def finish_rehome(self, enactor) -> None:
        """Called once the rollback has rebuilt and restored the
        enactor's own state: replicas adopt the new slice arrays."""

    def run_iteration(
        self,
        enactor,
        iteration: int,
        iteration_obj,
        frontiers: List[np.ndarray],
        inboxes: List[list],
        gpu_indices: Sequence[int],
    ) -> List[object]:
        """Run one iteration's supersteps for ``gpu_indices``; return
        their :class:`GpuStepEffects` in that order.

        A GPU lost in its superstep has the :class:`DeviceLostError` as
        its result value, so every superstep of the iteration still runs
        (the enactor recovers at the barrier).  This default runs the
        supersteps one after another on the calling thread, in
        ``gpu_indices`` order — the serial backend; the processes
        backend overrides it with its worker protocol.
        """
        results: List[object] = []
        for i in gpu_indices:
            try:
                eff = enactor._gpu_superstep(
                    i, iteration, iteration_obj, frontiers[i], inboxes[i]
                )
            except DeviceLostError as exc:
                # a value now, as one unpickled from a worker: without
                # its traceback, whose frames would hold this list (and
                # through it the whole run) in a reference cycle
                eff = exc.with_traceback(None)
            results.append(eff)
        return results

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """GPU-index-order execution on the calling thread."""

    name = "serial"


# ---------------------------------------------------------------------------
# processes backend
# ---------------------------------------------------------------------------

_EFF_FIELDS = tuple(f.name for f in fields(GpuStepEffects))
_EFF_FRONTIER = _EFF_FIELDS.index("frontier")
_EFF_SENDS = _EFF_FIELDS.index("sends")


def _fork_token(enactor) -> tuple:
    """What a forked worker captures that no protocol message re-ships.

    A worker keeps the fault plan, the observers and the policies it
    was forked with for as long as it lives; ``begin_run`` compares this
    token with the one taken at the fork and re-forks on any difference
    (a plan armed or edited, an observer attached or detached, or the
    recovery policy changed between two ``enact()``).
    """
    inj = enactor.machine.faults
    return (
        inj, None if inj is None else inj.plan.to_json(),
        enactor._observers,
        astuple(enactor.recovery),
    )


def _accounting(enactor, gpu_index: int) -> tuple:
    """One GPU's memory-pool state and frontier capacities: the part of
    a superstep's outcome that rarely changes, shipped only when it
    did."""
    fin = enactor.frontiers_in[gpu_index]
    fout = enactor.frontiers_out[gpu_index]
    return (
        enactor.machine.gpus[gpu_index].memory.export_state(),
        fin.capacity, fin.grow_events, fout.capacity, fout.grow_events,
    )


def _apply_accounting(enactor, gpu_index: int, acct: tuple) -> None:
    pool, fin_cap, fin_grow, fout_cap, fout_grow = acct
    enactor.machine.gpus[gpu_index].memory.apply_state(pool)
    fin = enactor.frontiers_in[gpu_index]
    fout = enactor.frontiers_out[gpu_index]
    fin.capacity, fin.grow_events = fin_cap, fin_grow
    fout.capacity, fout.grow_events = fout_cap, fout_grow


def _attach_slices(problem, manifest) -> None:
    """Rebind the problem's slice arrays to the manifest's segments,
    attached by *name* (shadow wrappers preserved)."""
    for gpu, name, arr in manifest.attach_slices():
        old = problem.data_slices[gpu].arrays.get(name)
        if old is not None and old.shape == arr.shape:
            problem.data_slices[gpu].arrays[name] = _rewrap_like(old, arr)


def _worker_loop(conn, enactor, iteration_obj, gpu_ids, manifest, exchange,
                 barrier):
    """Body of one forked worker: serve requests until "stop".

    The worker owns ``gpu_ids`` for the pool's lifetime (GPU affinity:
    per-GPU mutable state — streams, pools, operator caches — evolves
    only here between barriers), across every
    ``enact()`` of its enactor and every GPU loss it survives (a lost
    GPU just leaves its bucket).  Slice arrays are re-attached through
    the shared-memory registry by *name*, proving the manifest layer;
    exchange and control segments are reached through the inherited
    fork mappings, which alias the same physical pages, and the
    sub-graph structure through the fork's copy-on-write heap.

    Three requests: ``begin_run`` re-establishes the per-run private
    state a fresh fork would have inherited from the just-reset parent;
    ``rehome`` rebuilds the worker's replica after a GPU loss
    (:meth:`ProcessesBackend.rehome`); ``run`` runs an epoch of
    supersteps for the owned GPUs (module docs, "Run protocol").  All
    are answered ``(status, error, blobs)``; a worker that raised sets
    the abort word first, which releases any peer waiting for it at a
    barrier.  ``barrier`` is ``(control block, this worker's slot,
    whether to spin, parent pid)``.
    """
    problem = enactor.problem
    control, parent_pid = barrier[0], barrier[3]
    _attach_slices(problem, manifest)
    #: gpu -> the accounting the parent is known to hold
    shipped: Dict[int, tuple] = {}
    while True:
        try:
            msg = worker_recv(conn, parent_pid)
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        #: one pickled sidecar list per superstep completed
        blobs: List[bytes] = []
        try:
            if msg[0] == "begin_run":
                iteration_obj = _worker_begin_run(enactor, msg[1], shipped)
            elif msg[0] == "rehome":
                manifest, iteration_obj = _worker_rehome(
                    enactor, conn, parent_pid, msg, manifest, shipped
                )
            else:
                _worker_run(enactor, iteration_obj, exchange, barrier, msg,
                            shipped, blobs)
            reply = ("ok", None, blobs)
        except EOFError:  # stopped mid-rehome, or the parent is gone
            break
        except BaseException as exc:  # ships to the parent to re-raise
            control.abort()
            reply = ("error", exc, blobs)
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            break
        except Exception as send_err:  # an exception that does not pickle
            conn.send(("error", SimulationError(
                f"{type(reply[1]).__name__}: {reply[1]} "
                f"(original not picklable: {send_err})"
            ), blobs))
    manifest.detach()
    conn.close()


def _worker_begin_run(enactor, accounts, shipped):
    """Start a new run on a live worker: what ``enact()`` did to the
    parent between two runs, repeated here.  Returns the run's fresh
    iteration object (the checkpointed attributes arrive with the first
    step, the slice arrays were refilled in place by ``problem.reset()``)."""
    machine = enactor.machine
    machine.reset()  # clock, streams, and the fault plan re-armed
    for gpu_index, acct in accounts:
        _apply_accounting(enactor, gpu_index, acct)
        machine.gpus[gpu_index].memory.reset_peak()
        shipped[gpu_index] = _accounting(enactor, gpu_index)
    return enactor.iteration_cls(enactor.problem)


def _worker_rehome(enactor, conn, parent_pid, msg, manifest, shipped):
    """Rebuild this worker's replica after a GPU loss with the code the
    parent runs on its own (:meth:`Enactor.rebuild_partition`), from
    the assignment and checkpoint state in ``msg``.  The slices come
    last, in a second message once the parent has migrated its rebuilt
    ones: the old attachments are dropped and the new segments attached
    by name, with the parent's pool accounting.  Returns the new
    manifest and the run's fresh iteration object."""
    _, lost, assignment, attrs = msg
    new_manifest = accounts = None

    def adopt_slices():
        nonlocal new_manifest, accounts
        reply = worker_recv(conn, parent_pid)
        if reply[0] != "slices":  # the parent gave up on the pool
            raise EOFError("stopped while rehoming")
        manifest.detach()
        new_manifest = SliceManifest.from_spec(reply[1])
        accounts = reply[2]
        _attach_slices(enactor.problem, new_manifest)

    iteration_obj = enactor.iteration_cls(enactor.problem)
    enactor.rebuild_partition(
        lost, assignment, iteration_obj, attrs, adopt_slices
    )
    for gpu_index, acct in accounts:
        _apply_accounting(enactor, gpu_index, acct)
        shipped[gpu_index] = _accounting(enactor, gpu_index)
    return new_manifest, iteration_obj


def _worker_run(enactor, iteration_obj, exchange, barrier, msg, shipped,
                blobs) -> None:
    """Serve one ``run`` request (module docs, "Run protocol"):
    supersteps ``first`` … ``horizon`` for this worker's GPUs.  Each
    superstep's pickled sidecars are appended to ``blobs`` as it
    completes, so a failure leaves the supersteps before it in the
    reply.  A DeviceLostError is a GPU's result value; any other
    exception ends the run.  The worker's own GPUs' effects
    reach its barrier as ``_gpu_superstep`` returned them — their
    frontiers and the messages among them never enter the exchange
    below the horizon."""
    _, iteration, horizon, generations, attrs, jobs = msg
    control, slot, spin, parent_pid = barrier
    problem = enactor.problem
    machine = enactor.machine
    if attrs is not None:
        problem.restore_attrs(pickle.loads(attrs))
    for seg, gens in zip(exchange, generations):
        if seg is not None:
            seg.sync(0, gens[0])
            seg.sync(1, gens[1])

    def view(desc):
        return exchange[desc[0]].view(desc)

    if spin and horizon > iteration:
        # spinning presumes a core per worker, but the sync wake-up that
        # starts an epoch tends to leave every worker on the parent's
        # core, and two workers trading one core at barrier rate stay
        # "cache-hot" to the load balancer for seconds.  Step onto this
        # worker's own core once; the full mask is back at once, so the
        # scheduler stays free to move it
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[(parent_pid + slot) % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    n = machine.num_gpus
    frontiers: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    inboxes: List[list] = [[] for _ in range(n)]
    for g, stream_times, frontier, inbox in jobs:
        for stream, t in zip(machine.gpus[g].streams.values(), stream_times):
            stream.available_at = t
        frontiers[g] = view(frontier)
        inboxes[g] = [(arrival, _unpack_message(packed, view))
                      for arrival, packed in inbox]
    mine = [job[0] for job in jobs]
    kept = frozenset(mine)
    peers = control.peers(slot)
    inj = machine.faults
    while True:
        write = iteration % 2
        at_horizon = iteration == horizon
        effects: Dict[int, object] = {}
        sidecars = []
        for g in mine:
            seg = exchange[g]
            seg.begin(write)
            fault_snap = inj.snapshot_consumption() if inj is not None else None
            try:
                eff = enactor._gpu_superstep(
                    g, iteration, iteration_obj, frontiers[g], inboxes[g]
                )
            except DeviceLostError as exc:
                eff = exc
            effects[g] = eff
            sidecars.append(tuple(_build_sidecar(
                enactor, g, eff, fault_snap, seg, write, shipped,
                frozenset() if at_horizon else kept,
            )))
        blob = pickle.dumps(sidecars, pickle.HIGHEST_PROTOCOL)
        blobs.append(blob)
        if inj is not None:
            inj.end_iteration()  # as the parent does after each superstep
        if at_horizon:
            return
        # close the superstep with the peers, not through the parent
        arrived = control.post(slot, write, blob)
        if not wait_for_peers(control, slot, arrived, parent_pid, spin):
            return  # a peer aborted the epoch; its reply says why
        for peer in peers:
            for side in map(_Sidecar._make,
                            pickle.loads(control.read(peer, write))):
                _apply_horizons(enactor, side)
                # a regrown half has a new name
                exchange[side.gpu].sync(write, side.generation)
                effects[side.gpu] = _unpack_effects(
                    side.eff, exchange, readers=kept
                )
        inboxes, stop = enactor.barrier(
            iteration, iteration_obj,
            [effects[g] for g in sorted(effects)], frontiers,
        )
        if stop:
            return
        iteration += 1


def _pack_message(msg, describe) -> tuple:
    return (
        msg.src_gpu, msg.dst_gpu, describe(msg.vertices),
        [describe(a) for a in msg.vertex_associates],
        [describe(a) for a in msg.value_associates],
    )


def _unpack_message(packed, view) -> Message:
    src, dst, vertices, vertex_assoc, value_assoc = packed
    return Message(
        src, dst, view(vertices),
        [view(a) for a in vertex_assoc], [view(a) for a in value_assoc],
    )


class _SizeOnly:
    """Stand-in for a frontier or a message whose contents stayed in
    the worker that made it (module docs, "Run protocol"): ``size`` and
    ``len()`` give its item count, anything else raises.

    This is what makes "between epoch barriers only sizes are read" a
    checked rule: the parent's merge and ``Enactor.barrier`` replaying a
    superstep below the horizon, and a worker's barrier on its peers'
    effects, get stand-ins, so a control hook or framework step that
    reads contents there fails instead of reading stale bytes.
    """

    __slots__ = ("size",)

    def __init__(self, size: int):
        self.size = size

    def __len__(self) -> int:
        return self.size

    def _refuse(self, what: str):
        raise SimulationError(
            f"processes backend: read {what} of a frontier or message "
            "that stayed in its worker — below an epoch's horizon the "
            "replay, the merge and the control hooks read sizes only "
            "(docs/performance.md, \"Peer-to-peer supersteps\")",
            site="backend.processes",
        )

    def __getattr__(self, name):
        # also what np.asarray meets first: it probes __array_struct__
        self._refuse(f"attribute {name!r}")

    def __getitem__(self, key):
        self._refuse("an item")

    def __iter__(self):
        self._refuse("the items")


def _pack_effects(eff: GpuStepEffects, seg, parity: int,
                  kept=frozenset()) -> tuple:
    """Flatten one GPU's effects with every array another process
    reads written to its exchange segment and replaced by a descriptor.
    Below an epoch's horizon ``kept`` names the writing worker's GPUs:
    an array only they read — the GPU's next frontier, a message to one
    of them — stays with the worker and is replaced by its size.  A
    broadcast's n-1 messages share their arrays, which are written
    once."""
    written: Dict[int, tuple] = {}

    def describe(arr):
        desc = written.get(id(arr))
        if desc is None:
            desc = written[id(arr)] = seg.put(parity, arr)
        return desc

    fields = [getattr(eff, name) for name in _EFF_FIELDS]
    fields[_EFF_FRONTIER] = (
        eff.frontier.size if eff.gpu in kept else describe(eff.frontier)
    )
    fields[_EFF_SENDS] = [
        (dst, arrival,
         msg.num_items if dst in kept else _pack_message(msg, describe))
        for dst, arrival, msg in eff.sends
    ]
    return tuple(fields)


def _unpack_effects(packed: tuple, exchange, described=None,
                    readers=None) -> GpuStepEffects:
    """Rebuild packed effects: zero-copy views for arrays, and a
    :class:`_SizeOnly` for a frontier or message that travelled as its
    size or — with ``readers`` — for a message to a GPU not in it,
    which nobody here reads.  The parent passes ``described`` to
    remember each view's descriptor for the next dispatch."""

    def view(desc):
        return exchange[desc[0]].view(desc)

    fields = list(packed)
    frontier = packed[_EFF_FRONTIER]
    if isinstance(frontier, int):
        fields[_EFF_FRONTIER] = _SizeOnly(frontier)
    else:
        arr = fields[_EFF_FRONTIER] = view(frontier)
        if described is not None:
            described[id(arr)] = (arr, frontier)
    sends = fields[_EFF_SENDS] = []
    for dst, arrival, packed_msg in packed[_EFF_SENDS]:
        if isinstance(packed_msg, int):
            msg = _SizeOnly(packed_msg)
        elif readers is not None and dst not in readers:
            msg = _SizeOnly(packed_msg[2][4])  # the vertices' length
        else:
            msg = _unpack_message(packed_msg, view)
            if described is not None:
                described[id(msg)] = (msg, packed_msg)
        sends.append((dst, arrival, msg))
    return GpuStepEffects(*fields)


class _Sidecar(NamedTuple):
    """Everything beyond slice-array writes that one GPU's superstep
    changed in its worker and the parent must replay.  It crosses the
    mailbox and the pipe as a plain tuple; readers rebuild it with
    ``_Sidecar._make``."""

    gpu: int
    #: the packed :class:`GpuStepEffects` (:func:`_pack_effects`), or
    #: the DeviceLostError the superstep ended in
    eff: object
    #: ``available_at`` of each of the GPU's streams
    streams: tuple
    #: generation and fill mark of the exchange half the step wrote
    generation: int
    used: int
    #: :func:`_accounting`, or None when unchanged since last shipped
    acct: Optional[tuple]
    faults: Optional[dict]
    #: entry ``[gpu]`` of each ``RunState.per_gpu`` attribute
    attrs: Optional[dict]


def _build_sidecar(enactor, gpu_index, eff, fault_snap, seg, parity,
                   shipped, kept=frozenset()) -> _Sidecar:
    """Collect one finished superstep's :class:`_Sidecar` in its
    worker, writing the effects' arrays that other processes read to
    the exchange segment (``kept``: :func:`_pack_effects`)."""
    machine = enactor.machine
    gpu = machine.gpus[gpu_index]
    problem = enactor.problem
    if isinstance(eff, GpuStepEffects):
        eff = _pack_effects(eff, seg, parity, kept)
    acct = _accounting(enactor, gpu_index)
    if shipped.get(gpu_index) == acct:
        acct = None
    else:
        shipped[gpu_index] = acct
    mutable = problem.state.per_gpu
    return _Sidecar(
        gpu=gpu_index,
        eff=eff,
        streams=tuple(s.available_at for s in gpu.streams.values()),
        generation=seg.generations()[parity],
        used=seg.used(parity),
        acct=acct,
        faults=(
            machine.faults.consumption_delta(fault_snap)
            if fault_snap is not None else None
        ),
        attrs=(
            {name: getattr(problem, name)[gpu_index] for name in mutable}
            if mutable else None
        ),
    )


def _apply_horizons(enactor, side: _Sidecar) -> None:
    """The part of a sidecar every replica of the machine and problem
    needs at a barrier: the GPU's stream horizons and its entries of
    the declared per-GPU attributes."""
    gpu = enactor.machine.gpus[side.gpu]
    for stream, t in zip(gpu.streams.values(), side.streams):
        stream.available_at = t
    if side.attrs is not None:
        for name, value in side.attrs.items():
            getattr(enactor.problem, name)[side.gpu] = value


class ProcessesBackend(ExecutionBackend):
    """Forked worker pool with shared-memory slices (see module docs).

    ``max_workers`` caps the pool; by default there is one worker per
    virtual GPU.  With fewer workers than GPUs, each worker owns a fixed
    subset (``gpu % workers``) and runs its supersteps in GPU order, so
    affinity — and therefore determinism — is preserved.

    Single-GPU dispatch short-circuits to inline execution: there is
    nothing to overlap, and the parent's state stays authoritative
    without any shared-memory machinery.
    """

    name = "processes"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers
        self._workers: Optional[List[Optional[tuple]]] = None
        self._owner: Dict[int, int] = {}
        self._manifest: Optional[SliceManifest] = None
        #: per GPU, its exchange segment (None for a GPU lost before the
        #: pool was built); lives and dies with the manifest
        self._exchange: Optional[List[Optional[ExchangeSegment]]] = None
        #: closed exchange segments with a mapping some array still views
        self._unmapped: List[ExchangeSegment] = []
        self._buckets: List[List[int]] = []
        #: :func:`_fork_token` at the time the pool was forked
        self._token: Optional[tuple] = None
        #: id(array or Message) -> (the object, its descriptor form) for
        #: what the last horizon superstep handed the enactor: the next
        #: dispatch sends these back as descriptors.  Holding the object
        #: keeps its id from being reused.
        self._described: Dict[int, tuple] = {}
        #: whether this run's first dispatch has emptied the read halves
        self._primed = False
        #: per worker, the pickled checkpointed attributes it last received
        self._sent_attrs: List[Optional[bytes]] = []
        #: the pool's barrier words and mailboxes; lives and dies with it
        self._control: Optional[ControlBlock] = None
        #: supersteps received and not yet served, oldest first: the
        #: workers' sidecar blobs of each
        self._log: deque = deque()
        #: last superstep of the epoch being served (-1: none open)
        self._horizon = -1
        #: what ended the epoch early, raised once the log is served
        self._failure: Optional[BaseException] = None

    # -- lifecycle -------------------------------------------------------
    def begin_run(self, enactor) -> None:
        """Keep the pool; tell each worker a new run starts.

        One ``begin_run`` message per worker carries the parent's pool
        accounting and frontier capacities; the worker resets its
        machine, builds a fresh iteration object and acknowledges
        before the first step is sent.  The pool is re-forked (lazily,
        at the next dispatch) only when it cannot be trusted to match
        the parent: a worker that still owns GPUs was reaped, the fork
        token changed, or a worker fails to acknowledge.
        """
        self._described.clear()
        self._primed = False
        self._forget_epoch()
        if self._workers is None:
            return
        if (any(entry is None and bucket
                for entry, bucket in zip(self._workers, self._buckets))
                or _fork_token(enactor) != self._token):
            self._teardown_workers()
            return
        if self._handshake({
            w: ("begin_run", [(g, _accounting(enactor, g)) for g in bucket])
            for w, bucket in self._live_buckets()
        }):
            self._sent_attrs = [None] * len(self._workers)

    def rehome(self, enactor, lost, assignment, attrs) -> None:
        """Keep the workers whose GPUs survive a loss; each rebuilds its
        replica while the parent rebuilds its own.

        The lost GPUs leave their buckets; a worker left with none is
        reaped and its control-block slot retired.  Every other worker
        gets the assignment and the checkpoint's attributes now, so its
        rebuild overlaps the parent's;
        :meth:`finish_rehome` sends the slices.  With one GPU left the
        pool goes instead: that run is inline.
        """
        self._described.clear()
        self._primed = False
        if self._workers is None:
            return
        if len(enactor.machine.alive_gpus) - len(lost) <= 1:
            self._teardown_workers()
            return
        for w, bucket in enumerate(self._buckets):
            self._buckets[w] = [g for g in bucket if g not in lost]
            if not self._buckets[w]:
                self._reap_slot(w)
                self._control.retire(w)
        self._owner = {g: w for w, bucket in self._live_buckets() for g in bucket}
        for w, _ in self._live_buckets():
            self._send(w, ("rehome", lost, assignment, attrs))

    def finish_rehome(self, enactor) -> None:
        """Move the parent's rebuilt slices into a new manifest and send
        its names, with the parent's pool accounting, to the survivors;
        each acknowledges once its replica is whole.  The old segments
        are unlinked without a copy back: no slice uses them any more.
        A survivor that fails to acknowledge takes the pool with it, and
        the next dispatch forks a new one."""
        if self._manifest is not None:
            self._manifest.unlink()
            self._manifest = None
        if self._workers is None:
            return
        self._manifest = SliceManifest()
        self._manifest.migrate(enactor.problem)
        spec = self._manifest.spec()
        if self._handshake({
            w: ("slices", spec, [(g, _accounting(enactor, g)) for g in bucket])
            for w, bucket in self._live_buckets()
        }):
            # the checkpointed attributes and the re-routed heap inputs
            # travel with the next grant
            self._sent_attrs = [None] * len(self._workers)

    def _live_buckets(self):
        """``(slot, GPUs)`` of every worker that is alive."""
        return [(w, bucket) for w, bucket in enumerate(self._buckets)
                if self._workers[w] is not None]

    def _handshake(self, messages: Dict[int, tuple]) -> bool:
        """Send one message to each worker in ``messages`` and wait for
        every acknowledgement.  A worker that dies, wedges or fails in
        between leaves nothing in flight: the pool is torn down (the
        next dispatch forks a new one) and False returned."""
        for w, msg in messages.items():
            self._send(w, msg)
        for w in messages:
            try:
                reply = self._wait(w)
            except (WorkerCrashError, WorkerHangError) as exc:
                reply = ("error", exc)
            if reply[0] != "ok":
                self._teardown_workers()
                return False
        return True

    def _forget_epoch(self) -> None:
        self._log.clear()
        self._horizon = -1
        self._failure = None

    def _diverged(self, iteration, here, there) -> SimulationError:
        """The parent's replay and the workers' log stop in different
        supersteps: nothing either side holds is a result."""
        self._forget_epoch()
        self._teardown_workers()
        return SimulationError(
            f"processes backend: should_stop ended the epoch in {here} "
            f"but not in {there} — control hooks must decide from "
            "the state their RunState declares alone",
            iteration=iteration, site="backend.processes",
        )

    def end_run(self, iteration: int) -> None:
        if self._log or self._failure is not None:
            raise self._diverged(iteration, "the parent", "the workers")

    def close(self) -> None:
        self._teardown_workers()
        self._described.clear()
        self._close_exchange()
        if self._manifest is not None:
            self._manifest.release()
            self._manifest = None

    def _close_exchange(self) -> None:
        """Destroy the exchange segments.  A mapping that an array the
        caller still holds views is closed on a later call, once the
        view is dead."""
        closing = self._unmapped + [
            seg for seg in self._exchange or () if seg is not None
        ]
        self._unmapped = [seg for seg in closing if not seg.close()]
        self._exchange = None

    def _reap_timeout(self) -> float:
        """Budget of each bounded join when reaping a worker, seconds."""
        return 10.0

    def _teardown_workers(self) -> None:
        """Reap the whole pool with bounded, escalating waits.

        Safe under a half-dead pool: already-crashed or SIGSTOPped
        workers are resumed/killed rather than joined forever, and
        retired slots (None) are skipped.  Idempotent.
        """
        if self._control is not None:
            self._control.abort()  # nobody keeps waiting at a barrier
        for entry in self._workers or ():
            if entry is not None:
                reap_worker(entry[0], entry[1], timeout=self._reap_timeout())
        if self._control is not None:
            self._control.close()
            self._control = None
        self._workers = None
        self._owner = {}

    def _spawn(self, enactor, iteration_obj, gpu_indices) -> None:
        problem = enactor.problem
        if self._manifest is None:
            self._manifest = SliceManifest()
            self._manifest.migrate(problem)
        if self._exchange is None:
            # sized from the bounded vertex domain: a frontier and the
            # packaged remote part each hold at most every local vertex
            # once, so regrowth is left to duplicate-carrying frontiers
            # and to messages re-routed after a rollback
            columns = (2 + problem.NUM_VERTEX_ASSOCIATES
                       + problem.NUM_VALUE_ASSOCIATES)
            self._exchange = [
                ExchangeSegment(
                    g, 8 * columns * problem.subgraphs[g].num_vertices + 4096
                ) if g in gpu_indices else None
                for g in range(enactor.machine.num_gpus)
            ]
        n = len(gpu_indices)
        width = max(1, min(self.max_workers or n, n))
        buckets: List[List[int]] = [[] for _ in range(width)]
        self._owner = {}
        for k, g in enumerate(gpu_indices):
            buckets[k % width].append(g)
            self._owner[g] = k % width
        self._buckets = buckets
        self._workers = []
        self._sent_attrs = [None] * width
        self._token = _fork_token(enactor)
        self._described.clear()
        self._primed = False
        self._forget_epoch()
        self._control = ControlBlock(width)
        for w in range(width):
            self._workers.append(None)
            self._fork_worker(w, enactor, iteration_obj)

    def _fork_worker(self, w: int, enactor, iteration_obj) -> None:
        """Fork worker slot ``w`` for its fixed GPU bucket.

        The fork inherits the parent's state, the run's iteration
        object and the exchange mappings, and re-attaches the
        shared-memory slices by name.
        """
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_loop,
            # spinning at a barrier pays only where no worker has to
            # share its core with the one it is waiting for
            args=(child_conn, enactor, iteration_obj, self._buckets[w],
                  self._manifest, self._exchange,
                  (self._control, w,
                   len(self._buckets) <= len(os.sched_getaffinity(0)),
                   os.getpid())),
            daemon=True,
            name=f"repro-gpu-proc-{w}",
        )
        proc.start()
        child_conn.close()
        self._workers[w] = (proc, parent_conn)
        # the fork knows the parent's checkpointed attributes as of now;
        # the next step re-sends them regardless
        self._sent_attrs[w] = None

    def _reap_slot(self, w: int) -> None:
        """Reap worker slot ``w`` with bounded waits; idempotent."""
        entry = self._workers[w]
        if entry is not None:
            reap_worker(entry[0], entry[1], timeout=self._reap_timeout())
            self._workers[w] = None

    # -- dispatch --------------------------------------------------------
    def _describe(self, gpu_index: int, parity: int, arr) -> tuple:
        """Descriptor of one input array: the one it came back with at
        the last barrier, or — for a heap array (initial frontiers,
        state re-routed by a rollback) — where it now sits after being
        appended to the consuming GPU's read half."""
        known = self._described.get(id(arr))
        if known is not None:
            return known[1]
        return self._exchange[gpu_index].put(parity, arr)

    def _describe_inbox(self, gpu_index: int, parity: int, inbox) -> list:
        out = []
        for arrival, msg in inbox:
            known = self._described.get(id(msg))
            packed = known[1] if known is not None else _pack_message(
                msg, lambda arr: self._describe(gpu_index, parity, arr)
            )
            out.append((arrival, packed))
        return out

    def run_iteration(self, enactor, iteration, iteration_obj,
                      frontiers, inboxes, gpu_indices):
        gpu_indices = list(gpu_indices)
        if len(gpu_indices) <= 1:
            # nothing to overlap; the inline path keeps parent state
            # authoritative and needs no pool or shared memory
            return super().run_iteration(
                enactor, iteration, iteration_obj,
                frontiers, inboxes, gpu_indices,
            )
        if not self._log and self._failure is None:
            if iteration <= self._horizon:
                raise self._diverged(iteration, "the workers", "the parent")
            self._dispatch(enactor, iteration, iteration_obj,
                           frontiers, inboxes, gpu_indices)
        if not self._log:
            try:  # no local: a frame in the traceback would hold it
                raise self._failure
            finally:
                self._forget_epoch()
        return self._serve(enactor, iteration, gpu_indices)

    def _dispatch(self, enactor, iteration, iteration_obj,
                  frontiers, inboxes, gpu_indices) -> None:
        """Grant the workers an epoch starting at ``iteration`` and log
        what they send back (module docs, "Run protocol")."""
        if self._workers is None or any(
            g not in self._owner for g in gpu_indices
        ):
            self._teardown_workers()
            self._spawn(enactor, iteration_obj, gpu_indices)
        machine = enactor.machine
        problem = enactor.problem
        exchange = self._exchange
        # superstep k reads half (k - 1) % 2 and writes half k % 2
        read = (iteration + 1) % 2
        if not self._primed:
            # a run's first inputs are heap arrays: nothing live is in
            # the read halves, start them empty
            for g in gpu_indices:
                exchange[g].begin(read)
            self._primed = True
        jobs: List[List[tuple]] = [[] for _ in self._workers]
        for g in gpu_indices:
            jobs[self._owner[g]].append((
                g,
                tuple(s.available_at
                      for s in machine.gpus[g].streams.values()),
                self._describe(g, read, frontiers[g]),
                self._describe_inbox(g, read, inboxes[g]),
            ))
        generations = tuple(
            seg.generations() if seg is not None else None
            for seg in exchange
        )
        attrs = None
        if problem.state.attrs:
            attrs = pickle.dumps(
                problem.snapshot_attrs(), pickle.HIGHEST_PROTOCOL
            )
        # the workers run ahead to the next superstep a checkpoint is
        # due at or a GPU can be lost at
        horizon = iteration_obj.max_iterations()
        every = enactor.checkpoint_every
        if every is not None:
            horizon = min(horizon, iteration - iteration % every + every - 1)
        if machine.faults is not None:
            loss = machine.faults.next_loss_at(iteration, gpu_indices)
            if loss is not None:
                horizon = min(horizon, loss)
        enactor.emit(
            "backend.dispatch", backend=self.name,
            supersteps=len(gpu_indices), workers=len(self._workers),
        )
        payloads: Dict[int, tuple] = {}
        for w in range(len(self._workers)):
            if jobs[w]:
                # the checkpointed attributes travel only when they differ
                # from what this worker last received — or last computed
                # itself, running ahead
                changed = attrs != self._sent_attrs[w]
                self._sent_attrs[w] = attrs if horizon == iteration else None
                payloads[w] = (
                    "run", iteration, horizon, generations,
                    attrs if changed else None, jobs[w],
                )
        for w, payload in payloads.items():
            self._send(w, payload)
        blobs: List[List[bytes]] = []
        for w in payloads:
            msg = self._collect(iteration, w)
            blobs.append(msg[2])
            if msg[0] == "error" and self._failure is None:
                self._failure = msg[1]
        if self._failure is not None:
            self._teardown_workers()
        # an epoch is logged as far as every worker got
        for j in range(min(map(len, blobs))):
            self._log.append([b[j] for b in blobs])
        self._horizon = horizon

    def _serve(self, enactor, iteration, gpu_indices):
        """The logged superstep ``iteration`` as the enactor's merge
        input: sidecars applied, effects with views for arrays — or,
        below the epoch's horizon, with :class:`_SizeOnly` stand-ins
        (module docs, "Run protocol")."""
        blobs = self._log.popleft()
        at_horizon = iteration >= self._horizon
        if at_horizon:
            self._horizon = -1
        exchange = self._exchange
        write = iteration % 2
        replies: Dict[int, _Sidecar] = {
            side.gpu: side
            for blob in blobs for side in map(_Sidecar._make, pickle.loads(blob))
        }
        for g, side in replies.items():
            # map what the worker wrote (a regrown half has a new name)
            exchange[g].sync(write, side.generation, side.used)
        # only the horizon superstep is known by descriptor: the next
        # dispatch starts from it
        self._described.clear()
        described, readers = (
            (self._described, None) if at_horizon else (None, ())
        )
        results = []
        for g in gpu_indices:
            side = replies[g]
            self._apply_sidecar(enactor, g, side)
            eff = side.eff
            if isinstance(eff, tuple):
                eff = _unpack_effects(eff, exchange, described, readers)
            results.append(eff)
        return results

    def _send(self, w: int, payload: tuple) -> None:
        """Ship one request; a broken pipe (the worker is already
        dead) is left for the bounded receive to detect and classify."""
        entry = self._workers[w]
        if entry is None:  # pragma: no cover - defensive
            return
        try:
            entry[1].send(payload)
        except (BrokenPipeError, OSError):
            pass

    def _wait(self, w: int):
        """One bounded receive from worker ``w``: liveness bounds it — a
        dead worker raises WorkerCrashError instead of deadlocking — and
        an aborted epoch adds a deadline (:func:`wait_for_reply`)."""
        proc, conn = self._workers[w]
        return wait_for_reply(conn, proc, timeout=None,
                              poll_interval=0.05, aborted=self._aborted)

    def _aborted(self) -> bool:
        """Polled while the parent waits on a silent worker.  A peer
        that died will never arrive at the barrier: set the abort word
        for it, so whoever waits there answers instead of sitting out
        its deadline."""
        control = self._control
        if not control.aborted and any(
            entry is not None and entry[0].exitcode is not None
            for entry in self._workers
        ):
            control.abort()
        return control.aborted

    def _collect(self, iteration, w):
        """Worker ``w``'s reply to an epoch grant.  A dead worker, or
        one that outstays an aborted epoch, tears the pool down and
        raises SimulationError instead of deadlocking."""
        try:
            return self._wait(w)
        except (WorkerCrashError, WorkerHangError) as exc:
            self._teardown_workers()
            raise SimulationError(
                f"processes backend: worker {w} lost mid-superstep "
                f"({type(exc).__name__}: {exc})",
                iteration=iteration, site="backend.processes",
            ) from exc

    def _apply_sidecar(self, enactor, g, side) -> None:
        machine = enactor.machine
        _apply_horizons(enactor, side)
        if side.acct is not None:
            _apply_accounting(enactor, g, side.acct)
        if side.faults is not None and machine.faults is not None:
            machine.faults.apply_consumption_delta(side.faults)


def make_backend(
    spec: Union[str, ExecutionBackend, None], num_gpus: int = 0
) -> ExecutionBackend:
    """Resolve a backend spec: an instance, ``"serial"``, or
    ``"processes"`` / ``"processes:N"`` (explicit worker count).  Any
    other spec raises ValueError naming the valid ones."""
    if spec is None:
        return SerialBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    name, _, arg = str(spec).partition(":")
    if name == "serial" and not arg:
        return SerialBackend()
    if name == "processes" and (arg.isdigit() or not arg):
        workers = int(arg) if arg else (num_gpus or None)
        return ProcessesBackend(max_workers=workers)
    raise ValueError(
        f"unknown execution backend {spec!r}; valid specs: serial, "
        "processes, processes:N"
    )
