"""Chrome trace_event export: layout contract, validation, recovery."""

import json

from repro.obs import (
    Tracer,
    export_chrome_trace,
    load_chrome_trace,
    summarize_chrome_trace,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.primitives import run_bfs
from repro.sim.faults import GPU_LOSS, TRANSIENT_COMM, FaultPlan, FaultSpec
from repro.sim.machine import Machine


def _traced_bfs(graph, num_gpus=2, plan=None, **kwargs):
    tracer = Tracer()
    machine = Machine(num_gpus)
    if plan is not None:
        machine.arm_faults(plan)
    run_bfs(graph, machine, src=0, tracer=tracer, **kwargs)
    return tracer


class TestExport:
    def test_valid_and_loadable(self, small_rmat, tmp_path):
        tracer = _traced_bfs(small_rmat)
        path = tmp_path / "out.trace.json"
        trace = export_chrome_trace(tracer, path)
        assert validate_chrome_trace(trace) == []
        assert load_chrome_trace(path) == json.loads(json.dumps(trace))

    def test_per_gpu_and_comm_rows(self, small_rmat):
        trace = to_chrome_trace(_traced_bfs(small_rmat, num_gpus=4))
        names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {names[(0, g)] for g in range(4)} == {f"GPU {g}" for g in range(4)}
        assert names[(0, 4)] == "comm"
        # comm sends land on the comm row
        comm = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "comm"
        ]
        assert comm and all(e["tid"] == 4 for e in comm)

    def test_wall_clock_process(self, small_rmat):
        trace = to_chrome_trace(_traced_bfs(small_rmat))
        wall = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] == 1
        ]
        assert wall and all(e["cat"] == "wall" for e in wall)

    def test_retry_instants_on_flaky_link(self, small_rmat):
        plan = FaultPlan(
            [FaultSpec(TRANSIENT_COMM, gpu=0, iteration=0, count=2)]
        )
        tracer = _traced_bfs(small_rmat, plan=plan)
        instants = {
            e["name"]
            for e in to_chrome_trace(tracer)["traceEvents"]
            if e["ph"] == "i"
        }
        assert "recovery.retry" in instants

    def test_recovery_instants_on_gpu_loss(self, small_rmat):
        plan = FaultPlan([FaultSpec(GPU_LOSS, gpu=1, iteration=1)])
        tracer = _traced_bfs(small_rmat, plan=plan, checkpoint_every=1)
        trace = to_chrome_trace(tracer)
        instants = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "i"
        }
        assert {"recovery.gpu-loss", "recovery.rollback",
                "checkpoint"} <= instants
        assert validate_chrome_trace(trace) == []

    def test_summary_counts(self, small_rmat):
        tracer = _traced_bfs(small_rmat)
        s = summarize_chrome_trace(to_chrome_trace(tracer))
        assert s["primitive"] == "bfs" and s["num_gpus"] == 2
        assert s["spans"] == len(tracer.spans) + len(
            [x for x in tracer.spans if x.cat == "superstep"]
        )
        assert "GPU 0" in s["tracks"] and "comm" in s["tracks"]
        assert s["instants"].get("barrier")
        # no faults: the recovery bucket stays empty
        assert s["recovery"] == {}

    def test_summary_recovery_bucket(self, small_rmat):
        """Recovery/checkpoint instants are pulled into their own
        summary bucket so ``repro trace`` surfaces a faulted history."""
        plan = FaultPlan([FaultSpec(GPU_LOSS, gpu=1, iteration=1)])
        tracer = _traced_bfs(small_rmat, plan=plan, checkpoint_every=1)
        s = summarize_chrome_trace(to_chrome_trace(tracer))
        assert s["recovery"].get("recovery.rollback", 0) >= 1
        assert s["recovery"].get("checkpoint", 0) >= 1
        assert s["recovery"].get("recovery.gpu-loss", 0) >= 1
        # checkpoint *captures* now carry a vt, so they round-trip too
        assert s["recovery"].get("checkpoint.capture", 0) >= 1
        # every bucketed instant is also in the plain instant counts
        for name, count in s["recovery"].items():
            assert s["instants"][name] == count


class TestValidation:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) == ["trace is not a JSON object"]
        assert validate_chrome_trace({}) == ["missing 'traceEvents' list"]

    def test_reports_malformed_events(self, small_rmat):
        trace = to_chrome_trace(_traced_bfs(small_rmat))
        trace["traceEvents"][5] = {"ph": "X", "pid": 0, "tid": 0,
                                   "name": "bad", "ts": 0.0, "dur": -1.0}
        trace["traceEvents"].append({"ph": "Z", "pid": 0, "tid": 0})
        problems = validate_chrome_trace(trace)
        assert any("negative 'dur'" in p for p in problems)
        assert any("unsupported ph" in p for p in problems)

    def test_reports_missing_layout(self):
        problems = validate_chrome_trace({"traceEvents": []})
        assert "no 'comm' thread row" in problems
        assert any("per-GPU" in p for p in problems)
