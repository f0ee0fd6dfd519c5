"""The tracer as the run's recorder: crash dumps from what it recorded."""

import json
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.errors import CommunicationError
from repro.obs import Tracer, validate_event
from repro.obs.tracer import DUMP_EVENTS
from repro.primitives import run_bfs
from repro.sim.faults import TRANSIENT_COMM, FaultPlan, FaultSpec
from repro.sim.machine import Machine
from repro.sim.metrics import RunMetrics


class TestRing:
    def test_clear_resets_everything(self):
        t = Tracer()
        t.begin_run(SimpleNamespace(backend=SimpleNamespace(name="serial")),
                    RunMetrics(num_gpus=2, primitive="bfs"))
        t.instant("barrier", vt=1.0)
        t.on_error("test")
        t.clear()
        assert not t.events and not t.dumps
        assert t.metrics is None

    def test_dump_keeps_the_last_events(self):
        t = Tracer()
        for i in range(DUMP_EVENTS + 10):
            t.instant("barrier", vt=float(i), iteration=i)
        report = t.on_error("x")
        assert report["recorded"] == DUMP_EVENTS + 10
        assert len(report["events"]) == DUMP_EVENTS
        # oldest entries left out, newest kept, order preserved
        assert report["events"][0]["vt"] == 10.0
        assert report["events"][-1]["vt"] == float(DUMP_EVENTS + 9)


class TestDump:
    def test_dump_is_a_valid_event(self):
        t = Tracer()
        t.begin_run(SimpleNamespace(backend=SimpleNamespace(name="serial")),
                    RunMetrics(num_gpus=2, primitive="bfs"))
        t.instant("barrier", vt=1.0, iteration=0)
        report = t.on_error("unit-test")
        assert validate_event(report) == []
        assert report["type"] == "recorder.dump"
        assert report["schema_version"] == 2
        assert report["reason"] == "unit-test"
        assert report["primitive"] == "bfs"
        assert report["events"][-1]["type"] == "barrier"
        assert report in t.dumps

    def test_dump_captures_error(self):
        t = Tracer()
        err = CommunicationError("link down", gpu_id=1, iteration=3)
        report = t.on_error("enact-error", error=err)
        assert report["error"]["class"] == "CommunicationError"
        assert report["error"]["gpu"] == 1
        assert report["error"]["iteration"] == 3

    def test_dump_captures_fault_plan_state(self):
        machine = Machine(2)
        machine.arm_faults(FaultPlan([
            FaultSpec(TRANSIENT_COMM, gpu=0, iteration=0, count=2),
        ]))
        report = Tracer().on_error("x", faults=machine.faults)
        assert report["pending_faults"]["planned"] == 1
        assert isinstance(report["pending_faults"]["injected"], dict)

    def test_dump_writes_path(self, tmp_path, capsys):
        """``run --flight-recorder`` writes the dump of a failed run."""
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"faults": [{
            "kind": "transient-comm", "gpu": 0, "iteration": 0,
            "count": 50,
        }]}), encoding="utf-8")
        path = tmp_path / "crash.json"
        code = main([
            "run", "bfs", "--dataset", "soc-LiveJournal1", "--gpus", "2",
            "--faults", str(plan), "--flight-recorder", str(path),
        ])
        assert code == 1
        assert "wrote crash dump" in capsys.readouterr().err
        on_disk = json.loads(path.read_text("utf-8"))
        assert on_disk["reason"] == "enact-error"
        assert on_disk["error"]["class"] == "CommunicationError"
        assert on_disk["events"][0]["type"] == "run.begin"
        assert validate_event(on_disk) == []


class TestLiveRuns:
    def test_clean_run_records_supersteps(self, small_rmat):
        t = Tracer()
        _, metrics, _ = run_bfs(small_rmat, Machine(2), src=0, tracer=t)
        assert not t.dumps
        assert t.primitive == "bfs" and t.num_gpus == 2
        assert t.metrics is metrics
        # a dump carries every superstep's record, not a window of them
        report = t.on_error("x")
        assert [s["iteration"] for s in report["metrics"]["iterations"]] \
            == [m.iteration for m in metrics.iterations]

    @pytest.mark.parametrize("backend", ["serial", "processes:2"])
    def test_repro_error_out_of_enact_dumps(self, small_rmat, backend):
        """On ``processes`` the error is raised in a worker and re-raised
        by the parent, whose enactor dumps it."""
        from repro.core.checkpoint import RecoveryPolicy

        t = Tracer()
        machine = Machine(2)
        machine.arm_faults(FaultPlan([
            FaultSpec(TRANSIENT_COMM, gpu=0, iteration=0, count=50),
        ]))
        with pytest.raises(CommunicationError):
            run_bfs(small_rmat, machine, src=0, tracer=t,
                    recovery=RecoveryPolicy(max_comm_retries=3),
                    backend=backend)
        assert len(t.dumps) == 1
        report = t.dumps[0]
        assert report["reason"] == "enact-error"
        assert report["backend"] == backend.partition(":")[0]
        assert report["error"]["class"] == "CommunicationError"
        assert report["pending_faults"]["planned"] == 1
        # the metrics accumulated up to the crash ride along
        assert report["metrics"]["primitive"] == "bfs"
        assert validate_event(report) == []
