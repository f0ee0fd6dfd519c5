"""Flight recorder: bounded ring, superstep window, and crash dumps."""

import json
from types import SimpleNamespace

import pytest

from repro.errors import CommunicationError
from repro.obs import FlightRecorder, validate_event
from repro.primitives import run_bfs
from repro.sim.faults import TRANSIENT_COMM, FaultPlan, FaultSpec
from repro.sim.machine import Machine
from repro.sim.metrics import RunMetrics


class TestRing:
    def test_capacity_bounds_memory(self):
        r = FlightRecorder(capacity=4, keep_supersteps=2)
        for i in range(10):
            r.instant("barrier", vt=float(i), iteration=i)
        assert r.recorded == 10
        assert len(r.ring) == 4
        # oldest entries dropped, newest kept, order preserved
        assert [e["vt"] for e in r.ring] == [6.0, 7.0, 8.0, 9.0]

    def test_clear_resets_everything(self):
        r = FlightRecorder(capacity=4)
        r.instant("barrier", vt=1.0)
        r.on_error("test")
        r.clear()
        assert r.recorded == 0
        assert len(r.ring) == 0 and not r.dumps
        assert r.metrics is None


class TestDump:
    def test_dump_is_a_valid_event(self):
        r = FlightRecorder(capacity=8)
        r.begin_run(SimpleNamespace(backend=SimpleNamespace(name="serial")),
                    RunMetrics(num_gpus=2, primitive="bfs"))
        r.instant("barrier", vt=1.0, iteration=0)
        report = r.on_error("unit-test")
        assert validate_event(report) == []
        assert report["type"] == "recorder.dump"
        assert report["schema_version"] == 2
        assert report["reason"] == "unit-test"
        assert report["primitive"] == "bfs"
        assert report["events"][-1]["type"] == "barrier"
        assert report in r.dumps

    def test_dump_captures_error(self):
        r = FlightRecorder()
        err = CommunicationError("link down", gpu_id=1, iteration=3)
        report = r.on_error("enact-error", error=err)
        assert report["error"]["class"] == "CommunicationError"
        assert report["error"]["gpu"] == 1
        assert report["error"]["iteration"] == 3

    def test_dump_captures_fault_plan_state(self):
        machine = Machine(2)
        machine.arm_faults(FaultPlan([
            FaultSpec(TRANSIENT_COMM, gpu=0, iteration=0, count=2),
        ]))
        report = FlightRecorder().on_error("x", faults=machine.faults)
        assert report["pending_faults"]["planned"] == 1
        assert isinstance(report["pending_faults"]["injected"], dict)

    def test_dump_writes_path(self, tmp_path):
        path = tmp_path / "crash.json"
        r = FlightRecorder(path=str(path))
        r.instant("barrier", vt=1.0)
        r.on_error("boom")
        on_disk = json.loads(path.read_text("utf-8"))
        assert on_disk["reason"] == "boom"
        assert on_disk["events"][0]["vt"] == 1.0


class TestLiveRuns:
    def test_clean_run_records_supersteps(self, small_rmat):
        r = FlightRecorder(keep_supersteps=3)
        _, metrics, _ = run_bfs(small_rmat, Machine(2), src=0,
                                flight_recorder=r)
        assert not r.dumps
        assert r.primitive == "bfs" and r.num_gpus == 2
        assert r.recorded >= len(metrics.iterations)
        # the window holds the *last* k summaries
        assert len(r.supersteps) == 3
        kept = [s["iteration"] for s in r.supersteps]
        assert kept == [m.iteration for m in metrics.iterations[-3:]]
        assert r.metrics is metrics

    @pytest.mark.parametrize("backend", ["serial", "processes:2"])
    def test_repro_error_out_of_enact_dumps(self, small_rmat, backend):
        """On ``processes`` the error is raised in a worker and re-raised
        by the parent, whose enactor dumps it."""
        from repro.core.checkpoint import RecoveryPolicy

        r = FlightRecorder()
        machine = Machine(2)
        machine.arm_faults(FaultPlan([
            FaultSpec(TRANSIENT_COMM, gpu=0, iteration=0, count=50),
        ]))
        with pytest.raises(CommunicationError):
            run_bfs(small_rmat, machine, src=0, flight_recorder=r,
                    recovery=RecoveryPolicy(max_comm_retries=3),
                    backend=backend)
        assert len(r.dumps) == 1
        report = r.dumps[0]
        assert report["reason"] == "enact-error"
        assert report["backend"] == backend.partition(":")[0]
        assert report["error"]["class"] == "CommunicationError"
        assert report["pending_faults"]["planned"] == 1
        # the metrics accumulated up to the crash ride along
        assert report["metrics"]["primitive"] == "bfs"
        assert validate_event(report) == []
