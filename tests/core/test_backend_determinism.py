"""Tentpole: the execution backends are bit-identical by construction.

Serial and forked-process dispatch run the same per-GPU superstep and
the same GPU-index-order merge of staged effects, so *everything* the
simulation reports — result arrays, the full RunMetrics dict (virtual
times, per-GPU records, traffic counters), sanitizer hazard reports,
and tracer span streams — must match bit for bit across backends, for
every primitive, GPU count, and communication mode (BFS/SSSP/BC are
selective, DOBFS/CC/PR broadcast).

The processes backend additionally must not leak: every test that forks
workers asserts ``/dev/shm`` holds none of our segments afterwards.
"""

import glob
import json

import numpy as np
import pytest

from repro.core.backend import (
    BACKENDS,
    ProcessesBackend,
    SerialBackend,
    make_backend,
)
from repro.core.shm import SHM_PREFIX, SliceManifest
from repro.primitives import (
    run_bc,
    run_bfs,
    run_cc,
    run_dobfs,
    run_pagerank,
    run_sssp,
)
from repro.sim.machine import Machine

RUNNERS = {
    "bfs": (run_bfs, {"src": 0}),
    "dobfs": (run_dobfs, {"src": 0}),
    "sssp": (run_sssp, {"src": 0}),
    "cc": (run_cc, {}),
    "bc": (run_bc, {"src": 0}),
    "pr": (run_pagerank, {"max_iter": 30}),
    # run to its threshold (76 supersteps on small_rmat, under the
    # default max_iter): the stop decision needs every GPU's max_delta
    # in every process
    "pr-converged": (run_pagerank, {}),
}


def _run(name, graph, num_gpus, **kwargs):
    runner, rkwargs = RUNNERS[name]
    machine = Machine(num_gpus)
    result, metrics, _ = runner(graph, machine, **rkwargs, **kwargs)
    return np.asarray(result), metrics


def _graph_for(name, small_rmat, weighted_rmat):
    return weighted_rmat if name == "sssp" else small_rmat


def _shm_leaks():
    return glob.glob(f"/dev/shm/{SHM_PREFIX}-*")


@pytest.mark.parametrize("primitive", sorted(RUNNERS))
@pytest.mark.parametrize("num_gpus", [1, 2, 4])
def test_processes_bit_identical_to_serial(
    primitive, num_gpus, small_rmat, weighted_rmat
):
    """Tentpole acceptance: forked shared-memory workers change nothing
    observable — results, virtual times, the whole metrics tree."""
    graph = _graph_for(primitive, small_rmat, weighted_rmat)
    r_ser, m_ser = _run(primitive, graph, num_gpus, backend="serial")
    r_prc, m_prc = _run(primitive, graph, num_gpus, backend="processes")
    np.testing.assert_array_equal(r_ser, r_prc)
    assert json.dumps(m_ser.to_dict()) == json.dumps(m_prc.to_dict())
    assert _shm_leaks() == []


@pytest.mark.parametrize("backend", ["processes"])
@pytest.mark.parametrize("num_gpus", [2, 4])
def test_sanitizer_reports_identical_across_backends(
    backend, num_gpus, small_rmat
):
    _, m_ser = _run("bfs", small_rmat, num_gpus, backend="serial",
                    sanitize=True)
    _, m_par = _run("bfs", small_rmat, num_gpus, backend=backend,
                    sanitize=True)
    assert m_ser.sanitizer_hazards is not None
    assert m_ser.sanitizer_hazards == m_par.sanitizer_hazards
    assert _shm_leaks() == []


@pytest.mark.parametrize("primitive", sorted(RUNNERS))
def test_sanitizer_reports_identical_on_two_workers(
    primitive, small_rmat, weighted_rmat
):
    """Four GPUs on two workers: each worker's sanitizer stages ship to
    the parent and merge into the serial run's report, for every
    primitive."""
    graph = _graph_for(primitive, small_rmat, weighted_rmat)
    _, m_ser = _run(primitive, graph, 4, backend="serial", sanitize=True)
    _, m_prc = _run(primitive, graph, 4, backend="processes:2",
                    sanitize=True)
    assert m_ser.sanitizer_hazards is not None
    assert m_ser.sanitizer_hazards == m_prc.sanitizer_hazards
    assert _shm_leaks() == []


def _strip_wall(events):
    """Event records minus the backend-dependent data a trace may
    contain: wall-clock fields, the backend name, and the parallel
    backends' own ``backend.dispatch`` diagnostics."""
    drop = {"wall", "wall_dur", "backend"}
    return [
        {k: v for k, v in e.items() if k not in drop}
        for e in events
        if not str(e.get("type", "")).startswith("backend.")
    ]


def test_tracer_streams_identical_serial_vs_processes(small_rmat):
    from repro.obs import Tracer

    streams = {}
    for backend in ("serial", "processes"):
        tracer = Tracer()
        _run("bfs", small_rmat, 2, backend=backend, tracer=tracer)
        streams[backend] = (
            [s.key() for s in tracer.spans],
            _strip_wall(tracer.events),
        )
    ser_spans, ser_events = streams["serial"]
    prc_spans, prc_events = streams["processes"]
    assert ser_spans and ser_spans == prc_spans
    assert ser_events == prc_events
    assert _shm_leaks() == []


@pytest.mark.parametrize("backend", ["processes:2"])
def test_explicit_worker_count_identical(backend, small_rmat):
    r_ser, m_ser = _run("bfs", small_rmat, 4, backend="serial")
    r_par, m_par = _run("bfs", small_rmat, 4, backend=backend)
    np.testing.assert_array_equal(r_ser, r_par)
    assert json.dumps(m_ser.to_dict()) == json.dumps(m_par.to_dict())


def test_make_backend_specs():
    assert isinstance(make_backend(None), SerialBackend)
    assert isinstance(make_backend("serial"), SerialBackend)
    prc = make_backend("processes", num_gpus=3)
    assert isinstance(prc, ProcessesBackend) and prc.max_workers == 3
    prc2 = make_backend("processes:2")
    assert prc2.max_workers == 2
    inst = SerialBackend()
    assert make_backend(inst) is inst
    with pytest.raises(ValueError):
        make_backend("cuda")


def test_removed_backend_specs_are_rejected():
    """Two backends remain; a removed or malformed spec fails at the
    boundary with one line naming the valid specs."""
    assert BACKENDS == ("serial", "processes")
    for spec in ("threads", "threads:2", "serial:2", "processes:x"):
        with pytest.raises(ValueError) as err:
            make_backend(spec)
        assert str(err.value) == (
            f"unknown execution backend {spec!r}; valid specs: serial, "
            "processes, processes:N"
        )


class TestSliceManifest:
    """The shm registry layer in isolation: segments round-trip by name."""

    def test_manifest_round_trip(self, small_rmat):
        from repro.primitives import BFSProblem
        from repro.sim.machine import Machine as M

        problem = BFSProblem(small_rmat, M(2))
        before = {
            (gpu, name): arr.copy()
            for gpu, ds in enumerate(problem.data_slices)
            for name, arr in ds.arrays.items()
        }
        manifest = SliceManifest()
        manifest.migrate(problem)
        assert len(manifest) > 0
        assert all(n.startswith(SHM_PREFIX) for n in manifest.segment_names())
        # a second manifest attaches every slice segment by *name alone*
        # (the picklable spec is all a spawn-style worker would get) and
        # sees the parent's writes — zero-copy, not a snapshot
        reader = SliceManifest()
        reader._specs = manifest.spec()
        attached = {(gpu, name): arr
                    for gpu, name, arr in reader.attach_slices()}
        for key, ref in before.items():
            np.testing.assert_array_equal(attached[key], ref)
        probe_key = next(iter(attached))
        gpu, name = probe_key
        problem.data_slices[gpu].arrays[name][...] = 7
        assert np.all(np.asarray(attached[probe_key]) == 7)
        reader.detach()
        manifest.release()
        assert _shm_leaks() == []
        # after release the problem owns ordinary writable heap arrays
        heap = problem.data_slices[gpu].arrays[name]
        assert np.all(np.asarray(heap) == 7)
        heap[...] = 9

    def test_release_is_idempotent(self, small_rmat):
        from repro.primitives import BFSProblem
        from repro.sim.machine import Machine as M

        manifest = SliceManifest()
        manifest.migrate(BFSProblem(small_rmat, M(2)))
        manifest.release()
        manifest.release()
        manifest.unlink()
        assert _shm_leaks() == []


class TestEnactorLifecycle:
    """Satellite: close() / context manager tear down pools and shm."""

    def _enactor(self, graph, num_gpus=2, **kwargs):
        from repro.core.enactor import Enactor
        from repro.primitives import BFSIteration, BFSProblem
        from repro.sim.machine import Machine as M

        problem = BFSProblem(graph, M(num_gpus))
        return Enactor(problem, BFSIteration, **kwargs)

    def test_close_unlinks_shm_and_pool(self, small_rmat):
        enactor = self._enactor(small_rmat, backend="processes")
        enactor.enact(src=0)
        enactor.close()
        assert _shm_leaks() == []
        backend = enactor.backend
        assert backend._workers is None and backend._manifest is None

    def test_close_is_idempotent(self, small_rmat):
        enactor = self._enactor(small_rmat, backend="processes")
        enactor.enact(src=0)
        enactor.close()
        enactor.close()
        assert _shm_leaks() == []

    def test_context_manager(self, small_rmat):
        r_ser, _ = _run("bfs", small_rmat, 2, backend="serial")
        with self._enactor(small_rmat, backend="processes") as enactor:
            enactor.enact(src=0)
            labels = enactor.problem.extract("labels")
        np.testing.assert_array_equal(r_ser, np.asarray(labels))
        assert _shm_leaks() == []

    def test_repeated_enacts_reuse_manifest(self, small_rmat):
        enactor = self._enactor(small_rmat, backend="processes")
        m1 = enactor.enact(src=0)
        manifest = enactor.backend._manifest
        exchange = enactor.backend._exchange
        workers = list(enactor.backend._workers)
        m2 = enactor.enact(src=1)
        m3 = enactor.enact(src=0)
        assert enactor.backend._manifest is manifest
        # ... and the pool: same exchange segments, same live processes
        assert enactor.backend._exchange is exchange
        assert enactor.backend._workers == workers
        assert all(proc.is_alive() for proc, _conn in workers)
        assert json.dumps(m1.to_dict()) == json.dumps(m3.to_dict())
        assert m1.supersteps == m3.supersteps
        assert m2.supersteps  # ran to completion from the other source
        enactor.close()
        assert _shm_leaks() == []


# -- peer-to-peer supersteps --------------------------------------------------
#
# Unguarded and unobserved, the workers run whole epochs among themselves
# (backend.py, "Run protocol") and the parent replays their log.  The
# cases above already run that way at one worker per GPU; these pin the
# rest: fewer workers than GPUs, the barrier variants, epochs cut by
# checkpoints, and regrowth in the middle of an epoch.  (A warm pool's
# later runs against serial: test_pool_lifecycle.test_pool_survives_enact.)

_SERIAL = {}


def _serial(name, graph, **kwargs):
    """The 4-GPU serial run of a primitive, computed once."""
    key = (name, tuple(sorted(kwargs.items())))
    if key not in _SERIAL:
        result, metrics = _run(name, graph, 4, backend="serial", **kwargs)
        _SERIAL[key] = (result, json.dumps(metrics.to_dict()))
    return _SERIAL[key]


def _count_dispatches(monkeypatch):
    """Record ``(first superstep, log length)`` of every grant."""
    grants = []
    dispatch = ProcessesBackend._dispatch

    def counted(self, enactor, iteration, *args):
        dispatch(self, enactor, iteration, *args)
        grants.append((iteration, len(self._log)))

    monkeypatch.setattr(ProcessesBackend, "_dispatch", counted)
    return grants


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("primitive", sorted(RUNNERS))
def test_epochs_bit_identical_to_serial(
    primitive, workers, small_rmat, weighted_rmat, monkeypatch
):
    """Four GPUs on two and three workers (four: the case above), one
    grant per run.  BC changes phase — and selective to broadcast —
    inside the replicated ``should_stop``; PR's needs every GPU's
    ``max_delta`` in every worker."""
    graph = _graph_for(primitive, small_rmat, weighted_rmat)
    want, want_m = _serial(primitive, graph)
    grants = _count_dispatches(monkeypatch)
    got, got_m = _run(primitive, graph, 4, backend=f"processes:{workers}")
    np.testing.assert_array_equal(want, got)
    assert want_m == json.dumps(got_m.to_dict())
    assert grants == [(0, got_m.supersteps)]
    assert _shm_leaks() == []


@pytest.mark.parametrize("primitive", ["dobfs", "pr"])
def test_epochs_with_compute_only_barrier(primitive, small_rmat, monkeypatch):
    """``overlap_communication``: the workers' barrier leaves the comm
    streams draining, as the parent's does (on this graph that moves
    PR's clock and not DOBFS's)."""
    want, want_m = _serial(primitive, small_rmat, overlap_communication=True)
    grants = _count_dispatches(monkeypatch)
    got, got_m = _run(primitive, small_rmat, 4, backend="processes:2",
                      overlap_communication=True)
    np.testing.assert_array_equal(want, got)
    assert want_m == json.dumps(got_m.to_dict())
    assert len(grants) == 1
    if primitive == "pr":
        assert want_m != _serial(primitive, small_rmat)[1]


def _checkpointed_problem(primitive, small_rmat, weighted_rmat):
    """(problem, iteration class, enact kwargs, result accessor)."""
    from repro.primitives import (
        BFSIteration,
        BFSProblem,
        PRIteration,
        PRProblem,
        SSSPIteration,
        SSSPProblem,
    )

    if primitive == "bfs":
        problem = BFSProblem(small_rmat, Machine(4))
        return problem, BFSIteration, {"src": 0}, problem.labels
    if primitive == "sssp":
        problem = SSSPProblem(weighted_rmat, Machine(4))
        return problem, SSSPIteration, {"src": 0}, problem.distances
    problem = PRProblem(small_rmat, Machine(4), max_iter=30)
    return problem, PRIteration, {}, problem.ranks


@pytest.mark.parametrize("primitive", ["bfs", "sssp", "pr"])
def test_epochs_end_where_a_checkpoint_is_due(
    primitive, small_rmat, weighted_rmat, monkeypatch
):
    """``checkpoint_every=3``: each grant ends on a due superstep, whose
    frontiers and messages — vertices and associates — the checkpoint
    finds intact.  They are the only arrays an epoch ships to the
    parent."""
    from repro.core.enactor import Enactor

    taken = {}
    take = Enactor._take_checkpoint

    def spy(self, iteration, frontiers, inboxes, metrics):
        take(self, iteration, frontiers, inboxes, metrics)
        ckpt = self._last_checkpoint
        taken.setdefault(self.backend.name, []).append((
            iteration,
            [f.tolist() for f in ckpt.frontiers],
            [(m.src_gpu, m.dst_gpu, m.vertices.tolist(),
              [a.tolist() for a in m.vertex_associates],
              [a.tolist() for a in m.value_associates])
             for m in ckpt.messages],
            {k: v.tolist() for k, v in ckpt.arrays.items()},
        ))

    monkeypatch.setattr(Enactor, "_take_checkpoint", spy)
    grants = _count_dispatches(monkeypatch)
    out = {}
    for backend in ("serial", "processes:2"):
        problem, iteration_cls, kwargs, result = _checkpointed_problem(
            primitive, small_rmat, weighted_rmat
        )
        with Enactor(problem, iteration_cls, backend=backend,
                     checkpoint_every=3) as enactor:
            metrics = enactor.enact(**kwargs)
            out[backend] = (result().copy(), metrics)
    np.testing.assert_array_equal(out["serial"][0], out["processes:2"][0])
    assert any(messages for _, _, messages, _ in taken["serial"])
    metrics = out["processes:2"][1]
    assert json.dumps(out["serial"][1].to_dict()) == json.dumps(metrics.to_dict())
    assert metrics.checkpoints_taken == len(taken["serial"]) > 1
    assert taken["serial"] == taken["processes"]
    # epochs: supersteps 0-2, 3-5, ... — never past a due superstep
    assert [first for first, _ in grants] == list(range(0, metrics.supersteps, 3))
    assert all(length <= 3 for _, length in grants)
    assert _shm_leaks() == []


#: (checkpoint_every, superstep GPU 3 is lost at) per primitive: a loss
#: that falls inside what would otherwise be one epoch
_MID_EPOCH_LOSS = {"bfs": (None, 2), "sssp": (None, 3), "pr": (8, 11)}


@pytest.mark.parametrize("primitive", sorted(_MID_EPOCH_LOSS))
def test_gpu_loss_mid_epoch_bit_identical_to_serial(
    primitive, small_rmat, weighted_rmat, monkeypatch
):
    """A fault-armed, unsupervised run still runs epochs; a pending GPU
    loss cuts the grant short at the superstep it fires in.  The
    survivors rebuild in place, the run resumes from the checkpoint in
    a new grant, and everything equals serial."""
    from repro.core.enactor import Enactor
    from repro.sim.faults import GPU_LOSS, FaultPlan, FaultSpec

    every, lost_at = _MID_EPOCH_LOSS[primitive]
    grants = _count_dispatches(monkeypatch)
    out = {}
    for backend in ("serial", "processes:2"):
        problem, iteration_cls, kwargs, result = _checkpointed_problem(
            primitive, small_rmat, weighted_rmat
        )
        problem.machine.arm_faults(
            FaultPlan([FaultSpec(GPU_LOSS, gpu=3, iteration=lost_at)])
        )
        with Enactor(problem, iteration_cls, backend=backend,
                     checkpoint_every=every) as enactor:
            metrics = enactor.enact(**kwargs)
            out[backend] = (result().copy(), json.dumps(metrics.to_dict()))
    np.testing.assert_array_equal(out["serial"][0], out["processes:2"][0])
    assert out["serial"][1] == out["processes:2"][1]
    assert metrics.rollbacks == 1 and metrics.degraded_gpus == [3]
    # the grant the loss falls in ends there; the rerun starts one past
    # the checkpoint (the baseline, without checkpoint_every) in a new one
    first = 0 if every is None else lost_at - lost_at % every
    assert (first, lost_at - first + 1) in grants
    after = grants[grants.index((first, lost_at - first + 1)) + 1:]
    assert after[0][0] == first and len(after) < metrics.supersteps
    assert _shm_leaks() == []


def test_exchange_and_mailbox_regrow_mid_epoch(small_rmat, monkeypatch):
    """Halves that start far too small regrow while the parent is not
    looking: peers and parent follow the generations the sidecars and
    the control block publish.  The warm second run then finds every
    half already large enough."""
    from repro.core import backend as backend_mod
    from repro.core import shm
    from repro.core.enactor import Enactor
    from repro.primitives import BFSIteration, BFSProblem

    monkeypatch.setattr(
        backend_mod, "ExchangeSegment",
        lambda key, capacity: shm.ExchangeSegment(key, 64),
    )
    monkeypatch.setattr(shm, "_MAILBOX_BYTES", 64)
    want, want_m = _serial("bfs", small_rmat)
    grants = _count_dispatches(monkeypatch)
    problem = BFSProblem(small_rmat, Machine(4))
    with Enactor(problem, BFSIteration, backend="processes:2") as enactor:
        for _ in range(2):
            metrics = enactor.enact(src=0)
            np.testing.assert_array_equal(want, problem.labels())
            assert want_m == json.dumps(metrics.to_dict())
        generations = [seg.generations() for seg in enactor.backend._exchange]
        control = enactor.backend._control
        mail = [control._words[8 * (w + 1) + 1] for w in range(2)]
    assert len(grants) == 2
    assert all(max(gens) > 0 for gens in generations)
    assert all(generation > 0 for generation in mail)
    assert _shm_leaks() == []


# -- one partition, several problems ----------------------------------------
#
# Problems on one graph with equal-keyed partitioners run on the same
# read-only PartitionedGraph (tests/partition/test_partitioned_graph.py);
# the sub-graph structure reaches forked workers through copy-on-write
# pages and is never put in shared memory.

def _structure_bytes(partitioned):
    return [
        arr.tobytes()
        for sub in partitioned.subgraphs
        for arr in (sub.csr.starts64, sub.csr.ends64, sub.csr.cols64,
                    sub.local_to_global, sub.host_of_local)
    ] + [partitioned.partition.partition_table.tobytes()]


@pytest.mark.parametrize("backend", ["serial", "processes:2"])
def test_gpu_loss_in_one_enactor_spares_a_problem_sharing_its_partition(
    backend, small_rmat
):
    """A rollback repartitions the faulted problem onto a private
    partition; a second problem, open on the shared one throughout — its
    pool forked before the loss — keeps its sub-graphs and its answers."""
    from repro.core.enactor import Enactor
    from repro.primitives import (
        BFSIteration,
        BFSProblem,
        PRIteration,
        PRProblem,
    )
    from repro.sim.faults import GPU_LOSS, FaultPlan, FaultSpec

    want_bfs, _ = _run("bfs", small_rmat, 4, backend="serial")
    # the bystander's two runs on a serial enactor nobody disturbs
    reference = PRProblem(small_rmat, Machine(4), max_iter=30)
    with Enactor(reference, PRIteration) as ref_enactor:
        want_m = [json.dumps(ref_enactor.enact().to_dict()) for _ in range(2)]
    want_pr = reference.ranks()
    faulted_machine = Machine(4)
    faulted_machine.arm_faults(
        FaultPlan([FaultSpec(GPU_LOSS, gpu=3, iteration=2)])
    )
    faulted = BFSProblem(small_rmat, faulted_machine)
    bystander = PRProblem(small_rmat, Machine(4), max_iter=30)
    shared = bystander.partitioned
    assert faulted.partitioned is shared
    before = _structure_bytes(shared)
    with Enactor(bystander, PRIteration, backend=backend) as by_enactor, \
            Enactor(faulted, BFSIteration, backend=backend,
                    checkpoint_every=2) as enactor:
        first = by_enactor.enact()
        np.testing.assert_array_equal(want_pr, bystander.ranks())
        metrics = enactor.enact(src=0)
        assert metrics.rollbacks == 1 and metrics.degraded_gpus == [3]
        np.testing.assert_array_equal(want_bfs, faulted.labels())
        # the faulted problem moved on; the shared partition did not
        assert faulted.partitioned is not shared
        assert faulted.hosted_frontiers[3].size == 0
        assert bystander.partitioned is shared
        assert _structure_bytes(shared) == before
        second = by_enactor.enact()
        np.testing.assert_array_equal(want_pr, bystander.ranks())
    assert [json.dumps(m.to_dict()) for m in (first, second)] == want_m
    assert _shm_leaks() == []


def test_shm_holds_no_graph_structure(small_rmat):
    """While a processes enactor is open: one segment per slice array,
    two halves per exchange segment and per mailbox, one control block —
    and nothing else; nothing at all after ``close()``."""
    import os
    import re

    from repro.core.enactor import Enactor
    from repro.primitives import BFSIteration, BFSProblem

    mine = f"{SHM_PREFIX}-{os.getpid()}-"
    problem = BFSProblem(small_rmat, Machine(4))
    with Enactor(problem, BFSIteration, backend="processes:2") as enactor:
        enactor.enact(src=0)
        manifest = enactor.backend._manifest
        names = {n for n in os.listdir("/dev/shm") if n.startswith(mine)}
        slices = set(manifest.segment_names())
        assert sorted(manifest.spec()) == sorted(
            (gpu, name) for gpu, ds in enumerate(problem.data_slices)
            for name in ds.arrays
        )
        assert len(slices) == len(manifest)
        halves = {n for n in names if re.fullmatch(r".*-x\d+-\w+-[01]-\d+", n)}
        control = {n for n in names if "-ctl-" in n}
        assert len(halves) == 2 * (4 + 2)  # 4 GPUs' exchange, 2 mailboxes
        assert len(control) == 1
        assert names == slices | halves | control
    assert _shm_leaks() == []
