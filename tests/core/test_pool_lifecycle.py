"""The processes backend's worker pool outlives ``enact()``.

Workers are forked at an enactor's first multi-GPU dispatch and serve
every later run; each run starts with a ``begin_run`` handshake instead
of a re-fork, and a GPU loss is survived with a ``rehome`` handshake
(the surviving workers rebuild their partition in place).  A re-fork
happens only where it has to: for a supervised respawn, and when
something the workers captured at fork time — fault plan, observers,
policies — differs from what the parent now holds.  In every case the
results, ``RunMetrics`` and event streams equal the serial backend's.
"""

import glob
import json
import multiprocessing

import numpy as np
import pytest

from repro import primitives as P
from repro.core.enactor import Enactor
from repro.core.shm import SHM_PREFIX
from repro.core.supervise import SupervisionConfig
from repro.obs import Tracer
from repro.sim.faults import (
    GPU_LOSS,
    STRAGGLER,
    TRANSIENT_COMM,
    WORKER_CRASH,
    FaultPlan,
    FaultSpec,
)
from repro.sim.machine import Machine
from repro.sim.memory import FixedPrealloc

from .test_supervision import FAST

#: primitive -> (problem class, iteration class, result reader, takes src)
KINDS = {
    "bfs": (P.BFSProblem, P.BFSIteration, "labels", True),
    "dobfs": (P.DOBFSProblem, P.DOBFSIteration, "labels", True),
    "sssp": (P.SSSPProblem, P.SSSPIteration, "distances", True),
    "cc": (P.CCProblem, P.CCIteration, "components", False),
    "bc": (P.BCProblem, P.BCIteration, "bc_values", True),
    "pr": (P.PRProblem, P.PRIteration, "ranks", False),
}

RUNNERS = {
    "bfs": (P.run_bfs, {"src": 0}),
    "dobfs": (P.run_dobfs, {"src": 0}),
    "sssp": (P.run_sssp, {"src": 0}),
    "cc": (P.run_cc, {}),
    "bc": (P.run_bc, {"src": 0}),
    "pr": (P.run_pagerank, {"max_iter": 10}),
}

def _shm_leaks():
    return glob.glob(f"/dev/shm/{SHM_PREFIX}-*")


def _build(kind, graph, backend, num_gpus=4, machine=None, **kwargs):
    problem_cls, iteration_cls, _, _ = KINDS[kind]
    pkw = {"max_iter": 10} if kind == "pr" else {}
    problem = problem_cls(graph, machine or Machine(num_gpus), **pkw)
    if kind in ("cc", "pr"):
        kwargs.setdefault("scheme", FixedPrealloc(frontier_factor=1.05))
    return problem, Enactor(problem, iteration_cls, backend=backend, **kwargs)


def _enact(kind, problem, enactor, src):
    kwargs = {"src": src} if KINDS[kind][3] else {}
    metrics = enactor.enact(**kwargs)
    return np.array(getattr(problem, KINDS[kind][2])()), metrics


def _pids(enactor):
    return [
        entry[0].pid if entry is not None else None
        for entry in enactor.backend._workers
    ]


def _graph_for(kind, small_rmat, weighted_rmat):
    return weighted_rmat if kind == "sssp" else small_rmat


@pytest.mark.parametrize("backend", ["processes", "processes:2"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_pool_survives_enact(kind, backend, small_rmat, weighted_rmat):
    """Three runs from different sources: the same worker processes
    serve all of them, and each run equals the serial backend's."""
    graph = _graph_for(kind, small_rmat, weighted_rmat)
    s_problem, s_enactor = _build(kind, graph, "serial")
    p_problem, p_enactor = _build(kind, graph, backend)
    pids = []
    try:
        for src in (0, 5, 11):
            want, want_m = _enact(kind, s_problem, s_enactor, src)
            got, got_m = _enact(kind, p_problem, p_enactor, src)
            np.testing.assert_array_equal(want, got)
            assert json.dumps(want_m.to_dict()) == json.dumps(got_m.to_dict())
            pids.append(_pids(p_enactor))
    finally:
        s_enactor.close()
        p_enactor.close()
    assert len(pids[0]) == (2 if backend.endswith(":2") else 4)
    assert pids[0] == pids[1] == pids[2]
    assert multiprocessing.active_children() == []
    assert _shm_leaks() == []


@pytest.mark.parametrize("backend", ["processes", "processes:2"])
def test_rollback_keeps_surviving_workers(backend, small_rmat, monkeypatch):
    """A GPU loss rolls back and repartitions in place: every worker
    that still owns a GPU rebuilds its replica and keeps serving, into
    the next ``enact()``; the one whose GPUs all died is reaped.  No
    worker is forked after the loss, and both runs equal serial."""
    from repro.core.backend import ProcessesBackend

    plan = FaultPlan([FaultSpec(GPU_LOSS, gpu=3, iteration=2)])
    outcomes = {}
    for name in ("serial", backend):
        machine = Machine(4)
        machine.arm_faults(plan)
        problem, enactor = _build(
            "bfs", small_rmat, name, machine=machine, checkpoint_every=2
        )
        seen, forks = [], []
        if name != "serial":
            run_iteration = enactor.backend.run_iteration
            fork = ProcessesBackend._fork_worker

            def spy(*args, **kwargs):
                out = run_iteration(*args, **kwargs)
                seen.append(_pids(enactor))
                return out

            def counted_fork(self, w, *args):
                forks.append((w, bool(machine.lost_gpus)))
                return fork(self, w, *args)

            enactor.backend.run_iteration = spy
            monkeypatch.setattr(ProcessesBackend, "_fork_worker", counted_fork)
        try:
            runs = [_enact("bfs", problem, enactor, 0) for _ in range(2)]
        finally:
            enactor.close()
        outcomes[name] = (runs, seen, forks)
    runs, seen, forks = outcomes[backend]
    assert runs[0][1].rollbacks == 1 and runs[0][1].degraded_gpus == [3]
    for (want, want_m), (got, got_m) in zip(outcomes["serial"][0], runs):
        np.testing.assert_array_equal(want, got)
        assert json.dumps(want_m.to_dict()) == json.dumps(got_m.to_dict())
    width = 2 if backend.endswith(":2") else 4
    assert forks == [(w, False) for w in range(width)]
    before = seen[0]
    assert len(before) == width and None not in before
    # GPU 3 was worker 3's alone; on two workers it shared worker 1
    # with GPU 1, which survives
    after = before[:3] + [None] if width == 4 else before
    assert seen[-1] == after
    assert all(pids in (before, after) for pids in seen)
    assert multiprocessing.active_children() == []
    assert _shm_leaks() == []


def _plan():
    return FaultPlan([
        FaultSpec(TRANSIENT_COMM, gpu=0, iteration=1, count=2),
        FaultSpec(STRAGGLER, gpu=1, iteration=1, factor=3.0, duration=2),
    ])


@pytest.mark.parametrize("backend", ["processes", "processes:2"])
def test_plan_armed_between_runs_reaches_the_workers(backend, small_rmat):
    """The stale-fork case: a plan armed after the pool was forked.
    The workers hold the injector they were forked with, so the fork
    token must force a re-fork — the second run then sees the faults
    exactly as a serial enactor put through the same sequence does."""
    outcomes = {}
    for name in ("serial", backend):
        machine = Machine(4)
        problem, enactor = _build("bfs", small_rmat, name, machine=machine)
        try:
            first = _enact("bfs", problem, enactor, 0)
            pids = _pids(enactor) if name != "serial" else None
            machine.arm_faults(_plan())
            second = _enact("bfs", problem, enactor, 0)
            if name != "serial":
                assert not set(pids) & set(_pids(enactor))
        finally:
            enactor.close()
        outcomes[name] = (first, second)
    for (want, want_m), (got, got_m) in zip(
        outcomes["serial"], outcomes[backend]
    ):
        np.testing.assert_array_equal(want, got)
        assert json.dumps(want_m.to_dict()) == json.dumps(got_m.to_dict())
    faulted = outcomes[backend][1][1]
    assert faulted.comm_retries == 2
    assert faulted.elapsed > outcomes[backend][0][1].elapsed
    # and a fresh enactor with the plan armed from the start agrees
    machine = Machine(4)
    machine.arm_faults(_plan())
    problem, enactor = _build("bfs", small_rmat, backend, machine=machine)
    try:
        fresh, fresh_m = _enact("bfs", problem, enactor, 0)
    finally:
        enactor.close()
    np.testing.assert_array_equal(fresh, outcomes[backend][1][0])
    assert json.dumps(fresh_m.to_dict()) == json.dumps(faulted.to_dict())
    assert _shm_leaks() == []


def _attach(enactor, tracer):
    enactor.tracer = tracer
    enactor.machine.attach_tracer(tracer)
    enactor.backend.tracer = tracer


def _stream(tracer):
    drop = {"wall_dur", "workers", "backend"}
    events = [
        {k: v for k, v in e.items() if k not in drop}
        for e in tracer.events
        if e.get("type") != "backend.dispatch"
    ]
    return [s.key() for s in tracer.spans], events


@pytest.mark.parametrize("backend", ["processes", "processes:2"])
def test_tracer_attached_between_runs_reaches_the_workers(
    backend, small_rmat
):
    """Workers forked without a tracer stage nothing; attaching one
    between two runs must re-fork so the second run's span and event
    streams equal a serial enactor's — and a fresh traced enactor's."""
    streams = {}
    for name in ("serial", backend):
        problem, enactor = _build("bfs", small_rmat, name)
        tracer = Tracer()
        try:
            plain, plain_m = _enact("bfs", problem, enactor, 0)
            _attach(enactor, tracer)
            traced, traced_m = _enact("bfs", problem, enactor, 0)
        finally:
            enactor.close()
        np.testing.assert_array_equal(plain, traced)
        assert json.dumps(plain_m.to_dict()) == json.dumps(traced_m.to_dict())
        streams[name] = _stream(tracer)
    assert streams[backend][0], "the workers' spans never arrived"
    assert streams["serial"] == streams[backend]
    fresh = Tracer()
    problem, enactor = _build("bfs", small_rmat, backend, tracer=fresh)
    try:
        _enact("bfs", problem, enactor, 0)
    finally:
        enactor.close()
    assert _stream(fresh) == streams[backend]
    assert _shm_leaks() == []


def test_crash_in_second_run_of_a_pool_is_replayed(small_rmat):
    """Supervision keeps its workers across runs too.  The plan re-arms
    at every ``enact()``, so the crash strikes a pool that has already
    served (and been repaired in) an earlier run: the victim slot is
    respawned, the other worker is the one forked at the start, and
    both runs equal the fault-free result."""
    ref, ref_m, _ = P.run_bfs(small_rmat, Machine(2), src=0)
    machine = Machine(2)
    machine.arm_faults(FaultPlan([FaultSpec(WORKER_CRASH, gpu=1, iteration=1)]))
    problem, enactor = _build(
        "bfs", small_rmat, "processes", machine=machine,
        supervise=True, supervision=SupervisionConfig(**FAST),
    )
    try:
        first, first_m = _enact("bfs", problem, enactor, 0)
        pids_1 = _pids(enactor)
        second, second_m = _enact("bfs", problem, enactor, 0)
        pids_2 = _pids(enactor)
    finally:
        enactor.close()
    for got, metrics in ((first, first_m), (second, second_m)):
        np.testing.assert_array_equal(ref, got)
        assert metrics.worker_respawns == 1
        assert metrics.supersteps_replayed == 1
        assert metrics.rollbacks == 0
        assert metrics.supersteps == ref_m.supersteps
    assert first_m.elapsed == second_m.elapsed
    assert pids_1[0] == pids_2[0], "the healthy worker was re-forked"
    assert pids_1[1] != pids_2[1], "the crashed worker was not replaced"
    assert multiprocessing.active_children() == []
    assert _shm_leaks() == []


@pytest.mark.parametrize("backend", ["serial", "processes"])
@pytest.mark.parametrize("kind", sorted(RUNNERS))
def test_one_shots_release_their_backend(
    kind, backend, small_rmat, weighted_rmat
):
    """``run_*`` build an enactor the caller never sees, so they close
    it: no worker process and no shared-memory segment is left behind,
    and the results stay readable through the returned problem."""
    graph = _graph_for(kind, small_rmat, weighted_rmat)
    runner, kwargs = RUNNERS[kind]
    result, _, problem = runner(graph, Machine(2), backend=backend, **kwargs)
    assert multiprocessing.active_children() == []
    assert _shm_leaks() == []
    again = getattr(problem, KINDS[kind][2])()
    np.testing.assert_array_equal(np.asarray(result), np.asarray(again))


@pytest.mark.parametrize("backend", ["serial", "processes"])
def test_batch_one_shots_release_their_backend(backend, small_rmat):
    from repro.primitives.bc import run_full_bc
    from repro.primitives.bfs import run_bfs_batch

    labels, metrics, _ = run_bfs_batch(
        small_rmat, Machine(2), [0, 3, 7], backend=backend
    )
    assert len(labels) == len(metrics) == 3
    assert multiprocessing.active_children() == []
    assert _shm_leaks() == []
    bc, _, _ = run_full_bc(small_rmat, Machine(2), sources=[0, 3],
                           backend=backend)
    assert bc.shape == (small_rmat.num_vertices,)
    assert multiprocessing.active_children() == []
    assert _shm_leaks() == []
