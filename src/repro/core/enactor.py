"""The enactor: Gunrock's multi-GPU BSP execution engine.

Runs the loop of Fig. 1: every iteration, each GPU

1. **combines** messages received at the end of the previous iteration
   with local data (the primitive's ``Expand_Incoming``) and merges the
   accepted vertices into its input frontier;
2. runs the **unmodified single-GPU core** (``FullQueue_Core``);
3. **splits** the output frontier into local/remote parts (selective) or
   prepares a broadcast, **packages** remote parts with the
   programmer-specified associated values, and **pushes** them to peers
   on the communication stream;
4. synchronizes at the global **barrier** (with the measured multi-GPU
   latency ``l(n)`` from Section V-B).

Correctness work happens on real arrays; virtual time is charged through
the device kernel model and the interconnect, per the BSP decomposition
``W + H*g + S*l`` the paper analyzes.

The constructor takes an allocation scheme (Fig. 3): it sizes frontier,
intermediate, and communication buffers on each device's memory pool,
grows them (charging reallocation time) when just-enough demands it, and
reports peak memory in the run metrics.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, List, Optional, Sequence, Type, Union

import numpy as np

from ..errors import (
    CommunicationError,
    ConvergenceError,
    DeviceLostError,
    DeviceMemoryError,
    ReproError,
    SimulationError,
)
from ..obs.tracer import COMM_TRACK
from ..partition.base import reassign_onto_survivors
from ..sim.machine import Machine
from ..sim.memory import AllocationScheme, PreallocFusion
from ..sim.metrics import IterationRecord, RunMetrics
from .backend import ExecutionBackend, GpuStepEffects, make_backend
from .checkpoint import (
    RecoveryPolicy,
    capture_checkpoint,
    route_restored_state,
)
from .comm import (
    BROADCAST,
    make_broadcast_messages,
    make_selective_messages,
    route_empty_frontier,
    split_frontier,
    trace_split,
)
from .frontier import Frontier
from .iteration import GpuContext, IterationBase
from .problem import ProblemBase
from .stats import OpStats

if TYPE_CHECKING:
    from ..obs.recorder import FlightRecorder
    from ..obs.tracer import Tracer

__all__ = ["Enactor"]

#: what a superstep's effects hold until it sets their frontier
_NO_FRONTIER = np.empty(0, dtype=np.int64)


def _observed(fn):
    """The observer plumbing of ``enact`` (docs/observability.md,
    "Observers"): collect the run's observers into ``_observers`` in
    hook order — tracer, sanitizer, recorder — and hand a
    framework error escaping the run to their ``on_error`` (the flight
    recorder dumps a crash report) before it propagates.

    A decorator, so ``enact``'s body stays the superstep loop alone and
    an observer can never alter control flow — the exception is always
    re-raised as-is.  The tuple is rebuilt at every run (an observer
    attached between runs takes part in the next) by a plain loop,
    which makes no Python call.  Forked workers inherit it, and the
    processes backend re-forks them when it changes.
    """

    @functools.wraps(fn)
    def wrapper(self, **reset_kwargs):
        observers = ()
        for obs in (self.tracer, self.sanitizer, self.recorder):
            if obs is not None:
                observers += (obs,)
        self._observers = observers
        try:
            return fn(self, **reset_kwargs)
        except ReproError as exc:
            self.report_error("enact-error", error=exc,
                              faults=self.machine.faults)
            raise

    return wrapper


class _ChargeLedger:
    """One GPU-superstep's charges to its compute stream.

    A charge is priced when it is made (``compute_seconds`` adds up in
    program order) and reaches the stream at :meth:`flush`: one
    ``Stream.launch_many`` over the ledger, in the order the charges
    were made, leaving the horizon where a launch per charge would
    have.  The superstep flushes once, before timing its sends; whatever
    reads the horizon earlier flushes first.  A traced span needs its
    op's start time, so with a tracer every charge is applied as it is
    made — a traced ledger is empty between calls.  A GPU keeps one
    ledger with its buffers; a superstep clears it and sets its tracer.
    """

    __slots__ = ("gpu_index", "stream", "price", "tracer", "pending")

    def __init__(self, gpu_index: int, stream, kernel_model, tracer):
        self.gpu_index = gpu_index
        self.stream = stream
        self.price = kernel_model.price
        self.tracer = tracer
        self.pending: List[tuple] = []  # (duration, earliest_start, label)

    def add(self, duration: float, label: str, **span_args) -> float:
        """Charge framework work (bookkeeping, reallocation)."""
        self.pending.append((duration, 0.0, label))
        if self.tracer is not None:
            end = self.flush()[-1]
            self.tracer.span(
                "op", label, end - duration, duration,
                track=self.gpu_index, **span_args,
            )
        return duration

    def charge(self, stats: Sequence[OpStats], earliest_start: float = 0.0,
               scale: float = 1.0) -> float:
        """Charge operator stats; return their seconds.  ``scale`` is an
        injected-straggler slowdown (1.0 with no fault plan armed)."""
        pending = self.pending
        total = self.price(stats, earliest_start, scale, pending)
        if self.tracer is not None:
            for s, op, end in zip(stats, pending, self.flush()):
                self.tracer.op_span(self.gpu_index, s, end - op[0], op[0])
        return total

    def flush(self) -> List[float]:
        """Apply the pending charges; return their completion times."""
        pending = self.pending
        if not pending:
            return pending
        self.pending = []
        return self.stream.launch_many(pending)

    def trace_oom_regrow(self, buffer: str) -> None:
        """The traced instant of an exact-fit regrowth, at the horizon."""
        if self.tracer is not None:
            self.flush()  # the instant reads the horizon
            self.tracer.instant(
                "recovery.oom-regrow", vt=self.stream.available_at,
                gpu=self.gpu_index, buffer=buffer,
            )


class Enactor:
    """Drives a problem + iteration pair to convergence on a machine.

    Parameters
    ----------
    problem:
        The primitive's partitioned state.
    iteration_cls:
        The primitive's :class:`IterationBase` subclass.
    scheme:
        Memory allocation scheme (default: the paper's choice for
        traversal primitives, preallocation + kernel fusion).
    comm_volume_scale:
        Artificially inflate communicated bytes (Section V-A's H
        sensitivity experiment).  Semantics are unaffected.
    comm_latency_scale:
        Artificially inflate per-message latency (Section V-A).
    overlap_communication:
        Overlap in-flight transfers with the next superstep's computation
        (Gunrock's multi-stream + ``cudaStreamWaitEvent`` design,
        Section III-B): the barrier waits only for compute streams, and
        each receiver blocks on the specific arrival event of the data it
        combines.  Results are unchanged; communication-bound primitives
        (DOBFS) get faster.
    sanitize:
        Attach the BSP race sanitizer (``repro.check.sanitizer``), an
        observer: docs/observability.md, "Observers".
    backend:
        Execution backend dispatching the per-GPU supersteps
        (``repro.core.backend``): ``"serial"`` (default) runs them in
        GPU-index order on the calling thread; ``"processes"`` /
        ``"processes:N"`` on a pool of forked workers.  Results,
        metrics, virtual times, and sanitizer reports are bit-identical
        across backends — every cross-GPU effect is staged per GPU and
        merged in GPU-index order at the barrier.
    checkpoint_every:
        Take a barrier checkpoint every N supersteps (docs/robustness.md).
        ``None`` disables periodic checkpoints; a baseline checkpoint is
        still taken when a fault plan is armed on the machine, so
        permanent-loss recovery always has something to roll back to.
    recovery:
        :class:`~repro.core.checkpoint.RecoveryPolicy` knobs for retry /
        backoff / rollback limits (default: the documented defaults).
    tracer:
        An optional :class:`~repro.obs.tracer.Tracer`, an observer:
        docs/observability.md, "Observers".
    flight_recorder:
        An optional :class:`~repro.obs.recorder.FlightRecorder`, an
        observer: docs/observability.md, "Observers".
    """

    def __init__(
        self,
        problem: ProblemBase,
        iteration_cls: Type[IterationBase],
        scheme: Optional[AllocationScheme] = None,
        comm_volume_scale: float = 1.0,
        comm_latency_scale: float = 1.0,
        overlap_communication: bool = False,
        sanitize: bool = False,
        backend: Union[str, ExecutionBackend, None] = "serial",
        checkpoint_every: Optional[int] = None,
        recovery: Optional[RecoveryPolicy] = None,
        tracer: Optional[Tracer] = None,
        flight_recorder: Optional[FlightRecorder] = None,
    ):
        self._closed = False
        self.problem = problem
        self.machine: Machine = problem.machine
        self.tracer = tracer
        self.recorder = flight_recorder
        #: this run's observers, in hook order (:func:`_observed`)
        self._observers: tuple = ()
        self._alloc_prefix = getattr(problem, "alloc_prefix", problem.name)
        self.iteration_cls = iteration_cls
        self.scheme = scheme or PreallocFusion()
        self.comm_volume_scale = comm_volume_scale
        self.comm_latency_scale = comm_latency_scale
        self.overlap_communication = overlap_communication
        if checkpoint_every is not None and checkpoint_every < 1:
            raise SimulationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}",
                site="enactor.init",
            )
        self.checkpoint_every = checkpoint_every
        self.recovery = recovery or RecoveryPolicy()
        self._last_checkpoint = None
        self.sanitizer = None
        if sanitize:
            from ..check.sanitizer import BspSanitizer

            self.sanitizer = BspSanitizer(problem)

        n = self.machine.num_gpus
        self.backend = make_backend(backend, num_gpus=n)
        self._setup_buffers()
        self.backend.bind(self)

    def _setup_buffers(self) -> None:
        """Size frontier/intermediate/comm buffers on every device pool.

        Called at construction and again after a degraded-mode
        repartition; lost GPUs get detached (``pool=None``) frontiers so
        indexing stays uniform without touching dead hardware.
        """
        problem = self.problem
        n = self.machine.num_gpus
        lost = self.machine.lost_gpus
        #: the GPUs this partition runs on: every superstep's dispatch
        self._alive: List[int] = [i for i in range(n) if i not in lost]
        self.frontiers_in: List[Frontier] = []
        self.frontiers_out: List[Frontier] = []
        self._intermediate_names: List[str] = []
        #: what GPU i's hooks see: all but the superstep number and the
        #: tracer (set per superstep) changes only with the subgraphs
        self._contexts: List[GpuContext] = [
            GpuContext(
                gpu=self.machine.gpus[i],
                sub=problem.subgraphs[i],
                slice=problem.data_slices[i],
                kernel_model=self.machine.kernel_model,
                fused=self.scheme.fused,
                iteration=0,
                num_gpus=n,
            )
            for i in range(n)
        ]
        self._ledgers: List[_ChargeLedger] = [_ChargeLedger(
            i, ctx.gpu.compute, ctx.kernel_model, None
        ) for i, ctx in enumerate(self._contexts)]
        #: associate arrays per message, as declared (not hooks' lists)
        self._num_associates = (problem.NUM_VERTEX_ASSOCIATES
                                + problem.NUM_VALUE_ASSOCIATES)
        prefix = self._alloc_prefix
        for i in range(n):
            sub = problem.subgraphs[i]
            pool = None if i in lost else self.machine.gpus[i].memory
            vb = sub.csr.ids.vertex_bytes
            cap = self.scheme.frontier_capacity(sub.num_vertices, sub.num_edges)
            self.frontiers_in.append(Frontier(f"{prefix}.fin", pool, vb, cap))
            self.frontiers_out.append(Frontier(f"{prefix}.fout", pool, vb, cap))
            icap = (
                self.scheme.intermediate_capacity(sub.num_vertices, sub.num_edges)
                if getattr(problem, "uses_intermediate", True)
                else 0
            )
            iname = f"{prefix}.intermediate"
            if icap > 0 and pool is not None:
                pool.alloc(iname, icap * vb)
                self._intermediate_names.append(iname)
            else:
                self._intermediate_names.append("")
            # communication staging buffers (send + receive), O(frontier)
            if n > 1 and pool is not None:
                assoc = 1 + self._num_associates
                pool.alloc(f"{prefix}.comm", 2 * cap * vb * assoc)

    # ------------------------------------------------------------------
    def _charge_frontier_growth(
        self, ledger: _ChargeLedger, grown_items: int, item_bytes: int
    ) -> float:
        """Reallocation cost of ``grown_items`` (> 0) new slots:
        cudaMalloc + copy (just-enough's price)."""
        km = self.machine.kernel_model
        t = km.memcpy_time(grown_items * item_bytes) + 50e-6  # cudaMalloc sync
        return ledger.add(t, "realloc", items=int(grown_items))

    def _ensure_intermediate(
        self, ledger: _ChargeLedger, stats: Sequence[OpStats],
        eff: GpuStepEffects,
    ) -> None:
        """Size the unfused advance-output buffer of a GPU that has one
        (just-enough growth; non-growing schemes keep it as a guard —
        Section VI-B: "to prevent illegal memory access, although this
        only happens rarely")."""
        gpu_index = ledger.gpu_index
        name = self._intermediate_names[gpu_index]
        needed = max(
            (s.output_size for s in stats if s.name.startswith("advance")),
            default=0,
        )
        pool = self.machine.gpus[gpu_index].memory
        sub = self.problem.subgraphs[gpu_index]
        vb = sub.csr.ids.vertex_bytes
        current = pool.size_of(name) or 0
        if needed * vb > current:
            try:
                pool.realloc(name, int(needed * vb * 1.1), preserve=False)
            except DeviceMemoryError:
                if not self._retries_oom():
                    raise
                # transient allocation failure: retry at exact fit
                pool.realloc(name, max(needed * vb, 1), preserve=False)
                eff.oom_recoveries += 1
                ledger.trace_oom_regrow(name)
            self._charge_frontier_growth(ledger, needed, vb)

    def _retries_oom(self) -> bool:
        """Whether an allocation failure is recovered rather than
        raised: only an injected one (a fault plan is armed), and only
        under ``recovery.retry_oom``."""
        return self.machine.faults is not None and self.recovery.retry_oom

    def _regrow_frontier(
        self, ledger: _ChargeLedger, frontier_obj: Frontier,
        data: np.ndarray, eff: GpuStepEffects,
    ) -> int:
        """Recover a :meth:`Frontier.set` whose growth failed.

        The transient allocation failure was consumed by the first
        raise; the recovery regrows the buffer at exact fit (no slack —
        the conservative choice under memory pressure) and re-applies
        the set.  Returns grown slots for cost charging.
        """
        needed = max(int(data.size), 1)
        grown = max(needed - frontier_obj.capacity, 0)
        if frontier_obj.pool is not None:
            frontier_obj.pool.realloc(
                frontier_obj.name,
                needed * frontier_obj.item_bytes,
                preserve=False,
            )
        frontier_obj.capacity = max(frontier_obj.capacity, needed)
        frontier_obj.grow_events += 1
        frontier_obj.set(data)
        eff.oom_recoveries += 1
        ledger.trace_oom_regrow(frontier_obj.name)
        return grown

    # ------------------------------------------------------------------
    def _gpu_superstep(
        self,
        i: int,
        iteration: int,
        iteration_obj: IterationBase,
        frontier_in: np.ndarray,
        inbox: List[tuple],
    ) -> GpuStepEffects:
        """One GPU's full superstep: combine → core → split/package/push.

        Touches only GPU ``i``'s private state — its streams, memory
        pool, data slice and frontier buffers — and *stages* every
        cross-GPU effect (outgoing messages, record entries, interconnect
        traffic) in the returned :class:`GpuStepEffects`.  That is what
        lets a ``processes`` worker run it for the GPUs it owns; the
        enactor merges the effects in GPU-index order at the barrier, so
        any placement yields the serial result.
        """
        machine = self.machine
        problem = self.problem
        n = machine.num_gpus
        tracer = self.tracer
        ctx = self._contexts[i]
        ctx.iteration = iteration
        ctx.tracer = tracer
        gpu = ctx.gpu
        sub = ctx.sub
        compute = gpu.compute
        inj = machine.faults
        straggle = 1.0
        if inj is not None:
            # a lost GPU raises before any observer opens its turn
            inj.check_gpu_loss(i, iteration)
            inj.begin_superstep(i, iteration)
            straggle = inj.straggler_factor(i, iteration)
        eff = GpuStepEffects(i, _NO_FRONTIER)
        for obs in self._observers:
            obs.on_superstep_start(i, iteration, compute.available_at,
                                   frontier_in)
        ledger = self._ledgers[i]
        ledger.pending = []
        ledger.tracer = tracer
        # per-iteration framework overhead (bookkeeping kernels,
        # driver API calls) — the 1-GPU part of Section V-B's l
        compute_seconds = ledger.add(
            gpu.spec.iteration_overhead * straggle, "framework"
        )

        # --- 1. combine incoming messages ----------------------
        extra_parts: List[np.ndarray] = []
        combined_items = 0
        for arrival, msg in inbox:
            verts, stats = iteration_obj.expand_incoming(ctx, msg)
            if stats:
                compute_seconds += ledger.charge(stats, arrival, straggle)
            combined_items += msg.num_items
            if tracer is not None:
                tracer.instant(
                    "comm.combine", vt=arrival, gpu=i, src=msg.src_gpu,
                    items=int(msg.num_items),
                    accepted=int(verts.size),
                )
            if verts.size:
                extra_parts.append(verts)
        if inbox:
            eff.comm_compute_items = combined_items
        if not extra_parts:
            frontier = frontier_in
        elif frontier_in.size == 0 and len(extra_parts) == 1:
            # nothing to merge with: adopt the combined part, no copy
            frontier = extra_parts[0]
        else:
            frontier = np.concatenate([frontier_in] + extra_parts)
        eff.frontier_size = int(frontier.size)
        fin = self.frontiers_in[i]
        try:
            grown = fin.set(frontier)
        except DeviceMemoryError:
            if not self._retries_oom():
                raise
            grown = self._regrow_frontier(ledger, fin, frontier, eff)
        if grown > 0:
            compute_seconds += self._charge_frontier_growth(
                ledger, grown, fin.item_bytes
            )

        # --- 2. single-GPU core --------------------------------
        out, core_stats = iteration_obj.full_queue_core(ctx, frontier)
        if core_stats:
            compute_seconds += ledger.charge(core_stats, 0.0, straggle)
            if self._intermediate_names[i]:
                self._ensure_intermediate(ledger, core_stats, eff)
            edges = vertices = 0
            for s in core_stats:
                edges += s.edges_visited
                vertices += s.vertices_processed
            eff.edges_visited = edges
            eff.vertices_processed = vertices
        fout = self.frontiers_out[i]
        try:
            grown = fout.set(out)
        except DeviceMemoryError:
            if not self._retries_oom():
                raise
            grown = self._regrow_frontier(ledger, fout, out, eff)
        if grown > 0:
            compute_seconds += self._charge_frontier_growth(
                ledger, grown, fout.item_bytes
            )
        eff.direction = iteration_obj.direction_of(i)

        # --- 3. split / package / push -------------------------
        msgs: Sequence = ()
        local_part = out
        if n > 1 and iteration_obj.communicates_this_iteration(iteration):
            ids_bytes = ctx.ids_bytes
            if out.size or problem.communication == BROADCAST:
                # an empty selective route calls no associate hook
                va = iteration_obj.vertex_associate_arrays(ctx)
                la = iteration_obj.value_associate_arrays(ctx)
            if problem.communication == BROADCAST:
                msgs, pstats = make_broadcast_messages(
                    sub, out, n, va, la, ids_bytes=ids_bytes,
                    skip=machine.lost_gpus, tracer=tracer,
                )
                route_stats = [pstats]
            elif out.size:
                fixed = problem.fixed_routes
                if fixed is not None and fixed[i][0] is out:
                    # the very frontier whose split was made before the
                    # run: same parts, same charge, same traced instant
                    _, local_part, remote, sstats = fixed[i]
                    if tracer is not None:
                        trace_split(tracer, i, out.size, local_part, remote)
                else:
                    local_part, remote, sstats = split_frontier(
                        sub, out, ids_bytes=ids_bytes, tracer=tracer
                    )
                msgs, pstats = make_selective_messages(
                    sub, remote, va, la, ids_bytes=ids_bytes, tracer=tracer,
                )
                route_stats = [sstats, pstats]
            else:
                route_stats = route_empty_frontier(
                    sub, self._num_associates, tracer
                )
            compute_seconds += ledger.charge(route_stats, 0.0, straggle)
        # the superstep's compute-stream charges, applied in the order
        # they were made; sends start when the stream has drained
        ledger.flush()
        send_ready = compute.available_at
        comm_seconds = 0.0
        if msgs:
            # empty sub-frontiers send no payload; the
            # frontier-length handshake is part of the barrier's
            # synchronization latency, not a tracked message
            lost = machine.lost_gpus
            msgs = [
                m for m in msgs
                if m.vertices.size > 0 and m.dst_gpu not in lost
            ]
            ids = problem.graph.ids
            comm = gpu.comm
            for msg in msgs:
                nbytes = int(msg.nbytes(ids) * self.comm_volume_scale)
                start_at = send_ready
                attempt = 0
                while True:
                    try:
                        dur = machine.interconnect.transfer_cost(
                            i,
                            msg.dst_gpu,
                            nbytes,
                            latency_scale=self.comm_latency_scale,
                            iteration=iteration, tracer=tracer,
                        )
                        break
                    except CommunicationError:
                        # transient link failure (only an armed fault
                        # plan makes one): back off, charged on the comm
                        # stream, and retry up to the policy's cap
                        attempt += 1
                        if attempt > self.recovery.max_comm_retries:
                            raise
                        backoff = min(
                            self.recovery.comm_backoff_base
                            * (2 ** (attempt - 1)),
                            self.recovery.comm_backoff_cap,
                        )
                        bev = comm.launch(
                            backoff,
                            earliest_start=start_at,
                            label=f"retry->{msg.dst_gpu}",
                        )
                        start_at = bev.timestamp
                        comm_seconds += backoff
                        eff.comm_retries += 1
                        eff.retry_seconds += backoff
                        if tracer is not None:
                            tracer.instant(
                                "recovery.retry", vt=bev.timestamp,
                                gpu=i, dst=msg.dst_gpu,
                                attempt=attempt, backoff=backoff,
                            )
                ev = comm.launch(
                    dur,
                    earliest_start=start_at,
                    label=f"send->{msg.dst_gpu}",
                )
                comm_seconds += dur
                if tracer is not None:
                    tracer.span(
                        "comm", "send", ev.timestamp - dur, dur,
                        track=COMM_TRACK, src=i, dst=msg.dst_gpu,
                        items=int(msg.num_items), nbytes=nbytes,
                    )
                eff.sends.append((msg.dst_gpu, ev.timestamp, msg))
                eff.transfer_nbytes.append(nbytes)
                eff.items_sent += msg.num_items
                eff.bytes_sent += nbytes
        eff.frontier = local_part

        eff.compute_seconds = compute_seconds
        eff.comm_seconds = comm_seconds
        for obs in self._observers:
            eff.stages += (obs.on_superstep_end(compute.available_at, eff),)
        return eff

    # ------------------------------------------------------------------
    def _take_checkpoint(
        self,
        iteration: int,
        frontiers: List[np.ndarray],
        inboxes: List[List[tuple]],
        metrics: RunMetrics,
    ) -> None:
        """Snapshot the run at the current barrier and charge its cost.

        The snapshot crosses the host link from every surviving GPU in
        parallel (each pushes its share), then a full barrier makes the
        checkpoint a globally consistent point on the virtual clock.
        """
        ckpt = capture_checkpoint(
            self.problem, iteration, frontiers, inboxes,
            tracer=self.tracer,
        )
        self._last_checkpoint = ckpt
        dur = self._host_round_trip(ckpt.nbytes, "checkpoint")
        metrics.checkpoints_taken += 1
        metrics.checkpoint_bytes += ckpt.nbytes
        metrics.checkpoint_seconds += dur
        self.emit(
            "checkpoint", vt=self.machine.clock.now, iteration=iteration,
            nbytes=int(ckpt.nbytes), seconds=dur,
        )

    def _host_round_trip(self, nbytes: int, label: str) -> float:
        """Move a snapshot of ``nbytes`` across the host link — every
        surviving GPU its share, in parallel on its comm stream — then
        synchronize everyone in a full barrier.  Returns one share's
        duration."""
        machine = self.machine
        alive = self._alive
        host = machine.interconnect.host_link
        share = nbytes / max(len(alive), 1)
        dur = host.latency + share * machine.interconnect.scale / host.bandwidth
        for g in alive:
            machine.gpus[g].comm.launch(dur, label=label)
        machine.barrier(tracer=self.tracer)
        return dur

    def emit(self, type_: str, vt: Optional[float] = None,
             **fields) -> None:
        """Send one instant event to every observer (the tracer and
        the flight recorder record it).  The rollback, the checkpoint,
        the sanitizer's hazards and the processes backend's dispatch
        report through it."""
        for obs in self._observers:
            obs.instant(type_, vt=vt, **fields)

    def report_error(self, reason: str, **fields) -> None:
        """Send one failure to every observer's ``on_error`` (the
        flight recorder dumps a crash report): an error escaping
        ``enact()``."""
        for obs in self._observers:
            obs.on_error(reason, **fields)

    def _recover_gpu_loss(
        self,
        losses: List[DeviceLostError],
        iteration_obj: IterationBase,
        metrics: RunMetrics,
    ):
        """Roll back to the last checkpoint minus the lost GPUs.

        Marks the GPUs dead, deals their checkpointed vertices onto the
        survivors, rebuilds subgraphs/slices/buffers and restores array
        and scalar state from the checkpoint (:meth:`rebuild_partition`,
        which the backend's replicas run alongside), and re-routes the
        checkpointed frontiers and in-flight messages onto the new
        assignment.
        Returns ``(resume_iteration, frontiers, inboxes)``.
        """
        machine = self.machine
        problem = self.problem
        n = machine.num_gpus
        ckpt = self._last_checkpoint
        if ckpt is None:
            # cannot happen through enact() (a baseline checkpoint is
            # taken whenever faults are armed) but guard direct callers
            raise losses[0]
        metrics.rollbacks += 1
        if metrics.rollbacks > self.recovery.max_rollbacks:
            raise SimulationError(
                f"aborting after rollback {metrics.rollbacks}: the machine "
                f"keeps losing GPUs (recovery.max_rollbacks="
                f"{self.recovery.max_rollbacks})",
                gpu_id=losses[0].gpu_id,
                iteration=losses[0].iteration,
                site="enactor.recover",
            ) from losses[0]
        for exc in losses:
            self.emit(
                "recovery.gpu-loss", vt=machine.clock.now,
                gpu=exc.gpu_id, iteration=exc.iteration,
            )
        lost = [exc.gpu_id for exc in losses]
        dead = machine.lost_gpus.union(lost)
        metrics.degraded_gpus = sorted(dead)
        t0 = machine.clock.now
        new_assignment = reassign_onto_survivors(ckpt.partition_table, dead, n)
        # replicas of the problem (surviving workers) rebuild meanwhile
        self.backend.rehome(self, lost, new_assignment, ckpt.attrs)
        self.rebuild_partition(
            lost, new_assignment, iteration_obj, ckpt.attrs,
            lambda: problem.restore_arrays(ckpt.arrays),
        )
        frontiers, messages = route_restored_state(
            ckpt, problem, machine.lost_gpus, tracer=self.tracer
        )
        # survivors re-read the snapshot over the host link; the barrier
        # then resumes everyone at a common post-restore time (the clock
        # never rewinds — rollback costs time, it does not undo it)
        self._host_round_trip(ckpt.nbytes, "restore")
        now = machine.clock.now
        inboxes: List[List[tuple]] = [[] for _ in range(n)]
        for msg in messages:
            inboxes[msg.dst_gpu].append((now, msg))
        metrics.restore_seconds += now - t0
        self.emit(
            "recovery.rollback", vt=now,
            to_iteration=int(ckpt.iteration),
            lost=sorted(machine.lost_gpus),
            restore_seconds=now - t0,
        )
        frontiers = [np.asarray(f, dtype=np.int64) for f in frontiers]
        self.backend.finish_rehome(self)
        return ckpt.iteration + 1, frontiers, inboxes

    def rebuild_partition(self, lost, assignment, iteration_obj, attrs,
                          restore_arrays) -> None:
        """The structural half of a GPU-loss rollback, on this enactor's
        machine and problem: mark the ``lost`` GPUs dead, rebuild
        sub-graphs, slices and buffers for ``assignment``, put the
        checkpointed state back — slice arrays by ``restore_arrays()``,
        then ``attrs`` — drop ``iteration_obj``'s caches
        (``on_restore``) and run the primitive's ``on_repartition``.
        The parent runs it in :meth:`_recover_gpu_loss`, and every
        surviving ``processes`` worker on its replica
        (:meth:`~repro.core.backend.ProcessesBackend.rehome`), where the
        arrays arrive in shared memory."""
        machine = self.machine
        problem = self.problem
        for gpu in lost:
            machine.lose_gpu(gpu)
        self._release_buffers()
        problem.repartition(assignment, dead=machine.lost_gpus)
        self._setup_buffers()
        restore_arrays()
        problem.restore_attrs(attrs)
        iteration_obj.on_restore()
        problem.on_repartition(dead=machine.lost_gpus)

    # ------------------------------------------------------------------
    def barrier(self, iteration: int, iteration_obj: IterationBase,
                results: Sequence[GpuStepEffects],
                frontiers: List[np.ndarray], tracer=None):
        """Close superstep ``iteration``: everything that decides the
        next superstep's inputs, in the one order every executor of the
        loop must follow.

        ``results`` (GPU-index order) are routed — each GPU's next
        frontier into ``frontiers``, its sends into the receivers' next
        inboxes in sender order — the machine synchronizes, and the
        control hooks run.  ``enact()`` calls this once per superstep;
        so does every ``processes`` worker that runs ahead of the
        parent (:mod:`repro.core.backend`, "Run protocol"), on its own
        copy of the machine and problem — which is why the hooks may
        read frontier and message *sizes* only: there, a frontier or
        message whose contents stayed in another process is a stand-in
        that raises on any other read.  ``enact()`` passes its
        ``tracer``; a worker passes none, since the machine's
        ``barrier`` instant is the parent's to record.  Returns
        ``(next inboxes, should_stop)``.
        """
        inboxes: List[List[tuple]] = [[] for _ in frontiers]
        for eff in results:
            for dst, arrival, msg in eff.sends:
                inboxes[dst].append((arrival, msg))
            frontiers[eff.gpu] = eff.frontier
        self.machine.barrier(
            compute_only=self.overlap_communication, tracer=tracer
        )
        iteration_obj.on_iteration_end(iteration)
        return inboxes, iteration_obj.should_stop(
            iteration, [f.size for f in frontiers], sum(map(len, inboxes))
        )

    # ------------------------------------------------------------------
    @_observed
    def enact(self, **reset_kwargs) -> RunMetrics:
        """Run the primitive to convergence; returns the run's metrics."""
        problem = self.problem
        machine = self.machine
        n = machine.num_gpus
        iteration_obj = self.iteration_cls(problem)
        observers = self._observers
        protected = (
            machine.faults is not None or self.checkpoint_every is not None
        )
        if self.sanitizer is not None and protected:
            raise SimulationError(
                "sanitize=True cannot be combined with fault injection or "
                "checkpointing: shadow-memory wrappers do not survive a "
                "rollback/repartition", site="enactor.enact",
            )
        init_frontiers = problem.reset(**reset_kwargs)
        machine.reset()
        metrics = RunMetrics(
            num_gpus=n,
            primitive=problem.name,
            scale=machine.scale,
        )
        for obs in observers:
            obs.begin_run(self, metrics)
        for g in machine.gpus:
            g.memory.reset_peak()
        # last: a backend with live workers ships them the per-run
        # state as it stands after every reset above
        self.backend.begin_run(self)

        frontiers: List[np.ndarray] = [
            np.asarray(f, dtype=np.int64) for f in init_frontiers
        ]
        inboxes: List[List[tuple]] = [[] for _ in range(n)]
        self._last_checkpoint = None
        if protected:
            # baseline checkpoint at "iteration -1": the post-reset state,
            # so even an iteration-0 GPU loss has a rollback target
            self._take_checkpoint(-1, frontiers, inboxes, metrics)

        iteration = 0
        while True:
            if iteration > iteration_obj.max_iterations():
                raise ConvergenceError(
                    f"{problem.name} did not converge within "
                    f"{iteration_obj.max_iterations()} iterations",
                    iteration=iteration, site="enactor.enact",
                )
            rec = IterationRecord(iteration)
            iter_start = machine.clock.now

            # every superstep runs to completion on every backend; a
            # device loss is the GPU's result value, so one superstep's
            # losses are handled in a single rollback.  The scan for one
            # makes no Python call
            results = self.backend.run_iteration(
                self, iteration, iteration_obj, frontiers, inboxes,
                self._alive,
            )
            if machine.faults is not None:
                machine.faults.end_iteration()
            if DeviceLostError in map(type, results):
                iteration, frontiers, inboxes = self._recover_gpu_loss(
                    [r for r in results if isinstance(r, DeviceLostError)],
                    iteration_obj, metrics,
                )
                continue

            # merge staged cross-GPU effects in GPU-index order — the
            # exact mutation order of the old serial loop, so records,
            # inbox ordering, traffic counters and the observers' stages
            # (the tracer's spans and events are committed here, before
            # the barrier instant) are bit-identical no matter where the
            # supersteps ran
            for eff in results:
                i = eff.gpu
                if eff.comm_compute_items is not None:
                    rec.comm_compute_items[i] = eff.comm_compute_items
                rec.frontier_size += eff.frontier_size
                rec.edges_visited[i] = eff.edges_visited
                rec.vertices_processed[i] = eff.vertices_processed
                rec.direction = eff.direction or rec.direction
                for obs, stage in zip(observers, eff.stages):
                    obs.on_effects(eff, stage)
                if eff.sends:
                    rec.items_sent[i] = eff.items_sent
                    rec.bytes_sent[i] = eff.bytes_sent
                for nbytes in eff.transfer_nbytes:
                    machine.interconnect.record_transfer(nbytes)
                rec.compute_time[i] = eff.compute_seconds
                rec.comm_time[i] = eff.comm_seconds
                metrics.comm_retries += eff.comm_retries
                metrics.retry_seconds += eff.retry_seconds
                metrics.oom_recoveries += eff.oom_recoveries

            inboxes, stop = self.barrier(
                iteration, iteration_obj, results, frontiers, self.tracer
            )
            rec.duration = machine.clock.now - iter_start
            metrics.iterations.append(rec)
            for obs in observers:
                obs.on_barrier(self, iteration, rec)
            if stop:
                self.backend.end_run(iteration)
                break
            # the snapshot must include should_stop's effects (BC's phase
            # transitions happen there), so checkpoint after it — but only
            # on iterations the run continues past
            if (
                self.checkpoint_every is not None
                and (iteration + 1) % self.checkpoint_every == 0
            ):
                self._take_checkpoint(iteration, frontiers, inboxes, metrics)
            iteration += 1

        metrics.elapsed = machine.clock.now
        for i in self._alive:
            metrics.peak_memory[i] = machine.gpus[i].memory.peak
            metrics.num_reallocs += machine.gpus[i].memory.num_reallocs
        for obs in observers:
            obs.end_run(metrics)
        return metrics

    def _release_buffers(self) -> None:
        """Free frontier/intermediate/comm allocations on every pool."""
        n = self.machine.num_gpus
        cname = f"{self._alloc_prefix}.comm"
        for i in range(n):
            pool = self.machine.gpus[i].memory
            self.frontiers_in[i].release()
            self.frontiers_out[i].release()
            name = self._intermediate_names[i]
            if name and pool.size_of(name) is not None:
                pool.free(name)
            if pool.size_of(cname) is not None:
                pool.free(cname)

    def release(self) -> None:
        """Free the enactor's device buffers (frontiers, comm staging)."""
        self.backend.close()
        self._release_buffers()

    def close(self) -> None:
        """Tear down the execution backend (worker pools, shared-memory
        segments) and free device buffers.  Idempotent; after closing,
        results remain readable via ``problem.extract()`` but further
        ``enact()`` calls need a new enactor."""
        if self._closed:
            return
        self._closed = True
        self.release()

    def __enter__(self) -> "Enactor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
