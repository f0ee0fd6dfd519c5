"""Building, running and checking queries through the public API.

Everything here goes through what a user of the library would call:
``make_partitioner``, the ``<Prim>Problem`` classes, ``Enactor(...)``
with the construction choices of the ``run_*`` one-shots (which return
no enactor to ``close()``, hence built here), ``Machine.arm_faults``
and ``repro.analysis.validate``.  Only the ``serial`` and
``processes:2`` backends are used.
"""

from __future__ import annotations

import os
import resource
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np
from repro import primitives
from repro.analysis import validate
from repro.core.enactor import Enactor
from repro.core.shm import SHM_PREFIX
from repro.partition import make_partitioner
from repro.sim import (
    GPU_LOSS,
    TRANSIENT_COMM,
    FaultPlan,
    FaultSpec,
    FixedPrealloc,
    Machine,
)

from calibrate import BracketTimer
from workloads import (
    GPU_LOSS_AT,
    NUM_GPUS,
    PR_MAX_ITER,
    PROCESSES_BACKEND,
    Inputs,
    Query,
)

BACKENDS = ("serial", PROCESSES_BACKEND)


@dataclass(frozen=True)
class Kind:
    """How one primitive is built, read and checked."""

    problem: type
    iteration: type
    result: str  # Problem method returning the global result array
    exact: bool  # integer-valued results compare with array_equal
    problem_kwargs: Tuple[Tuple[str, object], ...] = ()
    overlap: bool = False
    fixed_prealloc: bool = False


# the scheme / overlap choices are those of the run_* one-shots
KINDS: Dict[str, Kind] = {
    "bfs": Kind(primitives.BFSProblem, primitives.BFSIteration,
                "labels", True),
    "dobfs": Kind(primitives.DOBFSProblem, primitives.DOBFSIteration,
                  "labels", True, overlap=True),
    "sssp": Kind(primitives.SSSPProblem, primitives.SSSPIteration,
                 "distances", True),
    "cc": Kind(primitives.CCProblem, primitives.CCIteration,
               "components", True, fixed_prealloc=True),
    "bc": Kind(primitives.BCProblem, primitives.BCIteration,
               "bc_values", False),
    "pr": Kind(primitives.PRProblem, primitives.PRIteration,
               "ranks", False,
               problem_kwargs=(("max_iter", PR_MAX_ITER),),
               fixed_prealloc=True),
}


def build(inputs: Inputs, kind: str, backend: str, num_gpus: int = NUM_GPUS,
          machine=None, **enactor_kwargs):
    """Construct ``(problem, enactor)`` for one query kind."""
    spec = KINDS[kind]
    if machine is None:
        machine = Machine(num_gpus)
    problem = spec.problem(
        inputs.graph_for(kind), machine,
        partitioner=make_partitioner(
            inputs.workload.partitioner, seed=inputs.partition_seed
        ),
        **dict(spec.problem_kwargs),
    )
    if spec.overlap:
        enactor_kwargs.setdefault("overlap_communication", True)
    if spec.fixed_prealloc:
        enactor_kwargs.setdefault(
            "scheme", FixedPrealloc(frontier_factor=1.05)
        )
    enactor = Enactor(problem, spec.iteration, backend=backend,
                      **enactor_kwargs)
    return problem, enactor


def result_of(kind: str, problem) -> np.ndarray:
    return getattr(problem, KINDS[kind].result)()


def fault_plan(kind: str):
    """``rmat_recovery``'s plan: two consecutive link failures out of
    GPU 0 at superstep 1, and GPU 3 lost for good mid-run."""
    return FaultPlan([
        FaultSpec(TRANSIENT_COMM, gpu=0, iteration=1, count=2),
        FaultSpec(GPU_LOSS, gpu=NUM_GPUS - 1, iteration=GPU_LOSS_AT[kind]),
    ])


def build_faulted(inputs: Inputs, kind: str, backend: str, **enactor_kwargs):
    """A fresh machine with the fault plan armed, checkpointing on."""
    machine = Machine(NUM_GPUS)
    machine.arm_faults(fault_plan(kind))
    return build(inputs, kind, backend, machine=machine,
                 checkpoint_every=2, **enactor_kwargs)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _same(kind: str, got: np.ndarray, want: np.ndarray) -> bool:
    if KINDS[kind].exact:
        return bool(np.array_equal(got, want))
    return bool(np.allclose(got, want))


def validate_result(inputs: Inputs, q: Query, result: np.ndarray) -> List[str]:
    """Property validators where the output has a local-consistency
    characterisation (BFS/DOBFS levels, SSSP, CC; PR is cut at
    ``PR_MAX_ITER`` iterations, short of its fixpoint, so it is held to
    the 1-GPU reference like BC)."""
    graph = inputs.graph_for(q.kind)
    if q.kind in ("bfs", "dobfs"):
        return validate.validate_bfs(graph, q.kwargs["src"], result)
    if q.kind == "sssp":
        return validate.validate_sssp(graph, q.kwargs["src"], result)
    if q.kind == "cc":
        return validate.validate_cc(graph, result)
    return []


class Gate:
    """Counts query executions and the ones that failed a check.

    The first fault-free 4-GPU serial execution of a query becomes its
    reference once it passes the property validator and equals a 1-GPU
    run; every later execution, on either backend, must reproduce the
    reference result and ``RunMetrics.to_dict()`` exactly.
    """

    def __init__(self, inputs: Inputs, log: Callable[[str], None]):
        self.inputs = inputs
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.ref_result: Dict[str, np.ndarray] = {}
        self.ref_metrics: Dict[str, dict] = {}
        #: the faulted serial run every other faulted run must equal
        self.ref_faulted: Dict[str, dict] = {}
        self.one_gpu_virtual_s: Dict[str, float] = {}
        #: wall seconds spent building references (validators, 1-GPU runs)
        self.reference_wall_s = 0.0

    def fail(self, q: Query, backend: str, why: str) -> None:
        self.failed += 1
        self.log(f"FAILED {q.id} [{backend}]: {why}")

    def _make_reference(self, q: Query, metrics, result) -> List[str]:
        t0 = perf_counter()
        problems = validate_result(self.inputs, q, result)
        problem, enactor = build(self.inputs, q.kind, "serial", num_gpus=1)
        try:
            one = enactor.enact(**q.kwargs)
            if not _same(q.kind, result, result_of(q.kind, problem)):
                problems.append("differs from the 1-GPU reference")
        finally:
            enactor.close()
        self.one_gpu_virtual_s[q.id] = one.elapsed
        self.ref_result[q.id] = result
        self.ref_metrics[q.id] = metrics.to_dict()
        self.reference_wall_s += perf_counter() - t0
        return problems

    def check(self, q: Query, backend: str, metrics, result) -> None:
        """One fault-free execution."""
        self.attempted += 1
        if q.id not in self.ref_result:
            problems = self._make_reference(q, metrics, result)
        else:
            problems = []
            if not np.array_equal(result, self.ref_result[q.id]):
                problems.append("result differs from the reference run")
            if metrics.to_dict() != self.ref_metrics[q.id]:
                problems.append("RunMetrics differ from the reference run")
        for why in problems:
            self.fail(q, backend, why)

    def check_recovered(self, q: Query, backend: str, metrics, result) -> None:
        """One execution under the fault plan."""
        self.attempted += 1
        problems = []
        if not _same(q.kind, result, self.ref_result[q.id]):
            problems.append("recovered result differs from the fault-free run")
        if metrics.rollbacks != 1:
            problems.append(f"{metrics.rollbacks} rollbacks, expected 1")
        as_dict = metrics.to_dict()
        if as_dict != self.ref_faulted.setdefault(q.id, as_dict):
            problems.append("RunMetrics differ from the first faulted run")
        for why in problems:
            self.fail(q, backend, why)


# ---------------------------------------------------------------------------
# the workload as timed steps
# ---------------------------------------------------------------------------

#: ``lap(step, fn)`` runs ``fn`` and returns its result; callers pass
#: one that times, traces or profiles the step
Lap = Callable[[str, Callable[[], object]], object]


def _plain(_step: str, fn: Callable[[], object]):
    return fn()


class Session:
    """Owns every enactor the benchmark builds, and closes each one."""

    def __init__(self, inputs: Inputs, gate: Gate):
        self.inputs = inputs
        self.gate = gate
        self.recovery = inputs.workload.recovery
        self.kinds = [k for k, _ in inputs.workload.queries]
        #: (kind, backend) -> (problem, enactor), kept warm between rounds
        self.warm: Dict[Tuple[str, str], tuple] = {}
        self.first_query = {}
        for q in inputs.queries:
            self.first_query.setdefault(q.kind, q)
        if self.recovery and len(self.first_query) != len(inputs.queries):
            raise ValueError("a recovery workload has one query per kind")

    def setup(self, kind: str, backend: str, lap: Lap = _plain,
              keep: bool = False) -> bool:
        """Graph in memory -> enactor constructed (step ``build``) and
        run once cold (step ``cold``).

        The first set-up's enactors are kept for the warm rounds (a
        recovery workload keeps none: its queries build their own);
        later set-ups only measure, and close what they built.  Returns
        whether the check had to build the query's reference, which is
        untimed work a timer should know about.
        """
        q = self.first_query[kind]
        problem, enactor = lap(
            "build", lambda: build(self.inputs, kind, backend)
        )
        try:
            metrics = lap("cold", lambda: enactor.enact(**q.kwargs))
            is_new = q.id not in self.gate.ref_result
            self.gate.check(q, backend, metrics, result_of(kind, problem))
        except BaseException:
            enactor.close()
            raise
        if keep and not self.recovery:
            self.warm[(kind, backend)] = (problem, enactor)
        else:
            enactor.close()
        return is_new

    def prepare(self, q: Query, backend: str, **enactor_kwargs):
        """What a query runs on: the warm enactor, or for a recovery
        workload a fresh machine with the fault plan armed."""
        if not self.recovery:
            return self.warm[(q.kind, backend)]
        return build_faulted(self.inputs, q.kind, backend, **enactor_kwargs)

    def run(self, q: Query, backend: str, lap: Lap = _plain,
            **enactor_kwargs):
        """One query: steps ``prepare`` and ``enact``, then the untimed
        part (read the result, check it, release).  Returns the metrics."""
        problem, enactor = lap(
            "prepare", lambda: self.prepare(q, backend, **enactor_kwargs)
        )
        try:
            metrics = lap("enact", lambda: enactor.enact(**q.kwargs))
            result = result_of(q.kind, problem)
        finally:
            if self.recovery:
                enactor.close()
        if self.recovery:
            self.gate.check_recovered(q, backend, metrics, result)
        else:
            self.gate.check(q, backend, metrics, result)
        return metrics

    def close(self) -> None:
        for _problem, enactor in self.warm.values():
            enactor.close()
        self.warm.clear()


# ---------------------------------------------------------------------------
# timed set-ups and rounds
# ---------------------------------------------------------------------------

def timed_setup(session: Session, timer: BracketTimer, keep: bool) -> None:
    """One full set-up, a bracketed block per (kind, backend)."""
    for kind in session.kinds:
        for backend in BACKENDS:
            with timer.block():
                built_reference = session.setup(
                    kind, backend, keep=keep,
                    lap=lambda step, fn: timer.lap(
                        ("setup", kind, backend, step), fn
                    ),
                )
            if built_reference:
                timer.untimed()


def timed_round(session: Session, timer: BracketTimer, index: int) -> None:
    """Every query once per backend: one bracketed block per backend,
    back to back, the order alternating between rounds."""
    order = BACKENDS if index % 2 == 0 else BACKENDS[::-1]
    for backend in order:
        with timer.block():
            for q in session.inputs.queries:
                session.run(
                    q, backend,
                    lap=lambda step, fn: timer.lap(
                        ("round", q.id, backend, index, step), fn
                    ),
                )


# ---------------------------------------------------------------------------
# host-side counters
# ---------------------------------------------------------------------------

def count_py_calls(fn: Callable[[], object]) -> int:
    """Python ``call`` + ``c_call`` events while ``fn`` runs: the
    host-side instruction count, exact for a warm deterministic pass."""
    count = 0

    def profiler(_frame, event, _arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def shm_segments() -> List[str]:
    """Live shared-memory segments created by this process (the name
    of a ``repro`` segment carries its creator's pid)."""
    mine = f"{SHM_PREFIX}-{os.getpid()}-"
    try:
        return [n for n in os.listdir("/dev/shm") if n.startswith(mine)]
    except FileNotFoundError:
        return []


def shm_mbytes(names: List[str]) -> float:
    total = 0
    for name in names:
        try:
            total += os.stat(os.path.join("/dev/shm", name)).st_size
        except FileNotFoundError:
            pass
    return total / 2**20


def peak_rss_mb() -> float:
    """Max RSS of this process and of its reaped children, MiB."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def pass_virtual_s(gate: Gate, faulted: bool) -> Tuple[float, float]:
    """(virtual seconds of one pass at 4 GPUs, the same at 1 GPU)."""
    per_query = gate.ref_faulted if faulted else gate.ref_metrics
    four = sum(m["elapsed_seconds"] for m in per_query.values())
    return four, sum(gate.one_gpu_virtual_s.values())
