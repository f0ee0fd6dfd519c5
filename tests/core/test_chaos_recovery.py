"""The robustness acceptance gate: the full seeded chaos matrix.

Every primitive, at 2 and 4 GPUs, on both execution backends, must
survive transient link failures, allocation failures, and a permanent
GPU loss — and produce results equal to the fault-free reference
(bit-exact for the integer-valued primitives, allclose for PR/BC).
"""

import numpy as np
import pytest

from repro.chaos import (
    CHAOS_KINDS,
    CHAOS_PRIMITIVES,
    build_chaos_plan,
    run_chaos_case,
    run_chaos_matrix,
)
from repro.errors import DeviceLostError, SimulationError
from repro.primitives.bfs import run_bfs
from repro.primitives.pr import run_pagerank
from repro.sim.faults import (
    GPU_LOSS,
    STRAGGLER,
    TRANSIENT_COMM,
    FaultPlan,
    FaultSpec,
)
from repro.sim.machine import Machine


@pytest.mark.parametrize("primitive", CHAOS_PRIMITIVES)
@pytest.mark.parametrize("kind", CHAOS_KINDS)
def test_chaos_cell_serial(primitive, kind):
    r = run_chaos_case(primitive, 2, kind, backend="serial")
    assert r.ok, f"{r.name}: {r.detail}"


@pytest.mark.parametrize("primitive", ["bfs", "pr"])
@pytest.mark.parametrize("kind", CHAOS_KINDS)
def test_chaos_cell_processes(primitive, kind):
    """The forked-worker backend under faults: transient retries and OOM
    recoveries run inside workers; after a permanent GPU loss the
    surviving workers rebuild their partition in place (a new shm
    manifest) and the degraded run must still match the fault-free
    reference."""
    r = run_chaos_case(primitive, 2, kind, backend="processes")
    assert r.ok, f"{r.name}: {r.detail}"


def test_chaos_matrix_full():
    results = run_chaos_matrix()
    failed = [r for r in results if not r.ok]
    assert not failed, "; ".join(f"{r.name}: {r.detail}" for r in failed)
    assert len(results) == (
        len(CHAOS_PRIMITIVES) * 2 * len(CHAOS_KINDS) * 2
    )


class TestFlightDumps:
    def test_quiet_recovery_leaves_no_dump(self):
        """A cell that recovers without supervisor escalation keeps its
        flight recorder armed but never dumps."""
        r = run_chaos_case("bfs", 2, "transient-comm", backend="serial")
        assert r.ok
        assert r.recovery["flight_dumps"] == 0

    def test_escalating_worker_crash_cell_dumps(self, tmp_path):
        """The worker-crash plan double-kills one worker, forcing the
        supervisor to escalate past respawn — the escalation must leave
        a crash dump even though the cell ultimately recovers."""
        import json

        path = tmp_path / "cell.dump.json"
        r = run_chaos_case("bfs", 2, "worker-crash",
                           dump_path=str(path))
        assert r.ok, r.detail
        assert r.recovery["flight_dumps"] >= 1
        dump = json.loads(path.read_text("utf-8"))
        assert dump["reason"] == "supervisor-escalation"
        assert dump["error"]["class"] == "WorkerCrashError"
        # heartbeat ages were snapshotted before the pool was reaped
        assert dump["heartbeat_ages"]
        assert dump["pending_faults"]["planned"] == 3

    def test_escalating_shm_corrupt_cell_dumps(self, tmp_path):
        import json

        path = tmp_path / "cell.dump.json"
        r = run_chaos_case("bfs", 2, "shm-corrupt", dump_path=str(path))
        assert r.ok, r.detail
        assert r.recovery["flight_dumps"] >= 1
        dump = json.loads(path.read_text("utf-8"))
        assert dump["reason"] == "shm-integrity"
        assert dump["error"]["class"] == "ShmIntegrityError"


class TestRecoverySemantics:
    def test_loss_without_checkpoint_raises(self, small_rmat):
        machine = Machine(2)
        machine.arm_faults(
            FaultPlan([FaultSpec(GPU_LOSS, gpu=1, iteration=1)])
        )
        # faults armed but checkpointing still captures the baseline at
        # iteration -1, so the run recovers even without --checkpoint-every
        ref, _, _ = run_bfs(small_rmat, Machine(2), src=0)
        labels, metrics, _ = run_bfs(small_rmat, machine, src=0)
        assert np.array_equal(labels, ref)
        assert metrics.rollbacks == 1

    def test_degraded_metrics_exposed(self, small_rmat):
        machine = Machine(4)
        machine.arm_faults(
            FaultPlan([FaultSpec(GPU_LOSS, gpu=3, iteration=1)])
        )
        ref, base, _ = run_bfs(small_rmat, Machine(4), src=0)
        labels, metrics, _ = run_bfs(
            small_rmat, machine, src=0, checkpoint_every=2
        )
        assert np.array_equal(labels, ref)
        assert metrics.degraded_gpus == [3]
        assert metrics.rollbacks == 1
        assert metrics.restore_seconds > 0
        assert metrics.checkpoints_taken >= 1
        # rollback + restore + degraded machine costs virtual time
        assert metrics.elapsed > base.elapsed

    def test_multi_loss_single_superstep(self, small_rmat):
        machine = Machine(4)
        machine.arm_faults(FaultPlan([
            FaultSpec(GPU_LOSS, gpu=2, iteration=1),
            FaultSpec(GPU_LOSS, gpu=3, iteration=1),
        ]))
        ref, _, _ = run_bfs(small_rmat, Machine(4), src=0)
        labels, metrics, _ = run_bfs(
            small_rmat, machine, src=0, checkpoint_every=2
        )
        assert np.array_equal(labels, ref)
        # both losses land in one superstep -> one combined rollback
        assert metrics.rollbacks == 1
        assert metrics.degraded_gpus == [2, 3]

    def test_straggler_changes_time_not_results(self, small_rmat):
        ref, base, _ = run_pagerank(small_rmat, Machine(2), max_iter=20)
        machine = Machine(2)
        machine.arm_faults(FaultPlan([
            FaultSpec(STRAGGLER, gpu=0, iteration=1, factor=4.0,
                      duration=5),
        ]))
        ranks, metrics, _ = run_pagerank(small_rmat, machine, max_iter=20)
        assert np.allclose(ranks, ref)
        assert metrics.elapsed > base.elapsed

    def test_retries_charge_virtual_time(self, small_rmat):
        ref, base, _ = run_bfs(small_rmat, Machine(2), src=0)
        machine = Machine(2)
        machine.arm_faults(FaultPlan([
            FaultSpec(TRANSIENT_COMM, gpu=g, iteration=0, count=2)
            for g in range(2)
        ]))
        labels, metrics, _ = run_bfs(small_rmat, machine, src=0)
        assert np.array_equal(labels, ref)
        assert metrics.comm_retries == 4
        assert metrics.retry_seconds > 0

    def test_retry_budget_exhaustion_reraises(self, small_rmat):
        from repro.core.checkpoint import RecoveryPolicy
        from repro.errors import CommunicationError

        machine = Machine(2)
        machine.arm_faults(FaultPlan([
            FaultSpec(TRANSIENT_COMM, gpu=0, iteration=0, count=50),
        ]))
        with pytest.raises(CommunicationError):
            run_bfs(small_rmat, machine, src=0,
                    recovery=RecoveryPolicy(max_comm_retries=3))

    def test_bad_chaos_kind_rejected(self):
        with pytest.raises(ValueError):
            build_chaos_plan("cosmic-ray", 2)

    def test_faults_are_deterministic(self, small_rmat):
        def one_run():
            machine = Machine(4)
            machine.arm_faults(FaultPlan([
                FaultSpec(TRANSIENT_COMM, gpu=0, iteration=0, count=2),
                FaultSpec(GPU_LOSS, gpu=3, iteration=1),
            ]))
            return run_bfs(small_rmat, machine, src=0, checkpoint_every=2)

        labels_a, metrics_a, _ = one_run()
        labels_b, metrics_b, _ = one_run()
        assert np.array_equal(labels_a, labels_b)
        assert metrics_a.elapsed == metrics_b.elapsed
        assert metrics_a.comm_retries == metrics_b.comm_retries


class TestPartitionCachesSurviveGpuLoss:
    """PR's push plan and every primitive's hosted sets are computed
    once per partition; a GPU loss repartitions mid-run, so they must be
    rebuilt before the replay or the survivors push along the dead
    partition's edges.  The fault plan is the benchmark's
    ``rmat_recovery`` one: two transient link faults out of GPU 0, then
    GPU 3 lost for good mid-run, checkpoints every 2 supersteps."""

    CASES = {
        # primitive -> (problem kwargs, enact kwargs, result, loss superstep)
        "pr": ({"max_iter": 10}, {}, "ranks", 5),
        "bc": ({}, {"src": 0}, "bc_values", 3),
    }

    @staticmethod
    def _run(primitive, graph, backend, faulted):
        from repro import primitives
        from repro.core.enactor import Enactor

        pkw, ekw, result, loss_at = (
            TestPartitionCachesSurviveGpuLoss.CASES[primitive]
        )
        machine = Machine(4)
        kwargs = {}
        if faulted:
            machine.arm_faults(FaultPlan([
                FaultSpec(TRANSIENT_COMM, gpu=0, iteration=1, count=2),
                FaultSpec(GPU_LOSS, gpu=3, iteration=loss_at),
            ]))
            kwargs["checkpoint_every"] = 2
        prefix = primitive.upper()
        problem = getattr(primitives, prefix + "Problem")(
            graph, machine, **pkw
        )
        iteration_cls = getattr(primitives, prefix + "Iteration")
        with Enactor(problem, iteration_cls, backend=backend,
                     **kwargs) as enactor:
            metrics = enactor.enact(**ekw)
        return getattr(problem, result)(), metrics, problem

    @pytest.mark.parametrize("backend", ["serial", "processes:2"])
    @pytest.mark.parametrize("primitive", sorted(CASES))
    def test_recovered_equals_fault_free(self, primitive, backend,
                                         small_rmat):
        want, _, _ = self._run(primitive, small_rmat, "serial", False)
        got, metrics, problem = self._run(
            primitive, small_rmat, backend, True
        )
        assert metrics.rollbacks == 1 and metrics.degraded_gpus == [3]
        assert metrics.comm_retries == 2
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        # the caches describe the degraded partition, not the original
        hosted = problem.hosted_frontiers
        assert hosted[3].size == 0
        assert sum(h.size for h in hosted) == small_rmat.num_vertices
        for sub, h in zip(problem.subgraphs, hosted):
            np.testing.assert_array_equal(
                h, np.flatnonzero(sub.host_of_local == sub.gpu_id)
            )
        if primitive == "pr":
            for gpu, sub in enumerate(problem.subgraphs):
                # a processes parent runs no superstep: nothing was built
                plan = problem.push_plans[gpu] or problem.prepare(gpu)
                pushers, indptr, nbrs = plan
                # the plan's columns are the sub-graph's hosted-column
                # cache itself, no copy
                assert nbrs is sub.hosted_cols64
                assert int(indptr[-1]) == sub.num_edges == nbrs.size
                assert sub.is_hosted(pushers).all()


class TestStaticArraysSurviveGpuLoss:
    """CC's per-edge ``edge_src`` is declared ``static``: a GPU-loss
    rollback rebuilds it for the new partition and never restores it
    from the checkpoint — also when a GPU's edge count happens to equal
    its vertex count, so the array looks per-vertex."""

    @pytest.mark.parametrize("loss_at", [0, 1])
    @pytest.mark.parametrize("backend", ["serial", "processes:2"])
    def test_cc_recovers_when_edges_equal_vertices(self, backend, loss_at):
        from repro.graph.build import from_edges
        from repro.partition.base import Partitioner
        from repro.primitives.cc import run_cc

        class Fixed(Partitioner):
            name = "fixed"

            def assign(self, graph, num_gpus):
                return np.array([0, 0, 1, 1])

        graph = from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        machine = Machine(2)
        machine.arm_faults(
            FaultPlan([FaultSpec(GPU_LOSS, gpu=1, iteration=loss_at)])
        )
        comp, metrics, _ = run_cc(graph, machine, partitioner=Fixed(),
                                  backend=backend, checkpoint_every=1)
        assert comp.tolist() == [0, 0, 0, 0]
        assert metrics.rollbacks == 1
        assert metrics.degraded_gpus == [1]
