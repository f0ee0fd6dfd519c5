"""A run's one metrics serialisation: ``RunMetrics.to_dict``, written by
``RunMetrics.save_json`` (and so by ``repro run --metrics-out``)."""

import json

from repro.primitives import run_bfs
from repro.sim.faults import GPU_LOSS, FaultPlan, FaultSpec
from repro.sim.machine import Machine


class TestExposition:
    def test_recovery_counters_surface(self, small_rmat):
        machine = Machine(2)
        machine.arm_faults(
            FaultPlan([FaultSpec(GPU_LOSS, gpu=1, iteration=1)])
        )
        _, metrics, _ = run_bfs(small_rmat, machine, src=0,
                                checkpoint_every=2)
        recovery = metrics.to_dict()["recovery"]
        assert recovery["rollbacks"] == 1
        assert recovery["degraded_gpus"] == [1]
        assert recovery["checkpoints_taken"] == metrics.checkpoints_taken

    def test_write_roundtrip(self, small_rmat, tmp_path):
        _, metrics, _ = run_bfs(small_rmat, Machine(2), src=0)
        path = tmp_path / "metrics.json"
        metrics.save_json(path)
        assert json.loads(path.read_text("utf-8")) == metrics.to_dict()
