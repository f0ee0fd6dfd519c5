"""CLI: every command produces sane output and exit code 0."""

import io
import json

import pytest

from repro.cli import main
from repro.sim.metrics import RunMetrics


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestDatasets:
    def test_lists_all(self):
        code, text = run_cli("datasets")
        assert code == 0
        assert "soc-orkut" in text
        assert "rmat_n24_32" in text
        assert "road-grid" in text

    def test_has_scale_column(self):
        _, text = run_cli("datasets")
        assert "scale" in text


class TestRun:
    @pytest.mark.parametrize("prim", ["bfs", "dobfs", "cc"])
    def test_primitives(self, prim):
        code, text = run_cli(
            "run", prim, "--dataset", "soc-LiveJournal1", "--gpus", "2"
        )
        assert code == 0
        assert prim in text
        assert "BSP:" in text

    def test_sssp_weights_auto(self):
        code, text = run_cli(
            "run", "sssp", "--dataset", "soc-LiveJournal1", "--gpus", "2"
        )
        assert code == 0

    def test_run_names_its_dataset(self, tmp_path):
        path = tmp_path / "metrics.json"
        code, text = run_cli(
            "run", "sssp", "--dataset", "soc-LiveJournal1", "--gpus", "2",
            "--metrics-out", str(path),
        )
        assert code == 0
        assert "sssp on soc-LiveJournal1 " in text
        body = json.loads(path.read_text("utf-8"))
        assert (body["primitive"], body["dataset"], body["num_gpus"]) \
            == ("sssp", "soc-LiveJournal1", 2)

    def test_gteps_reported_for_traversal(self):
        _, text = run_cli(
            "run", "bfs", "--dataset", "soc-LiveJournal1", "--gpus", "2"
        )
        assert "GTEPS" in text

    def test_gpu_model_option(self):
        code, _ = run_cli(
            "run", "bfs", "--dataset", "soc-LiveJournal1",
            "--gpus", "2", "--gpu-model", "p100",
        )
        assert code == 0

    def test_metis_partitioner_option(self):
        code, _ = run_cli(
            "run", "bfs", "--dataset", "soc-LiveJournal1",
            "--gpus", "2", "--partitioner", "metis",
        )
        assert code == 0

    def test_unknown_primitive_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("run", "apsp")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_removed_backend_rejected_in_one_line(self, command, capsys):
        code, text = run_cli(
            command, "bfs", "--dataset", "soc-LiveJournal1",
            "--backend", "threads",
        )
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert err == (
            f"repro {command}: unknown execution backend 'threads'; "
            "valid specs: serial, processes, processes:N\n"
        )

    def test_kernels_flag_removed(self):
        with pytest.raises(SystemExit):
            run_cli("run", "bfs", "--kernels")

    def test_supervise_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "bfs", "--supervise")
        assert exc.value.code == 2  # argparse: unrecognized arguments

    def test_clean_run_writes_no_crash_dump(self, tmp_path):
        dump = tmp_path / "crash.json"
        code, text = run_cli(
            "run", "bfs", "--dataset", "soc-LiveJournal1", "--gpus", "2",
            "--flight-recorder", str(dump),
        )
        assert code == 0
        assert "flight recorder:" in text
        assert "events recorded" in text
        # a clean run never writes the crash dump
        assert not dump.exists()

    def test_metrics_out_writes_run_metrics_json(self, tmp_path,
                                                 monkeypatch):
        """The file is the run's ``RunMetrics.to_dict()``, nothing else."""
        saved = []
        save_json = RunMetrics.save_json

        def spy(self, path):
            saved.append(self)
            save_json(self, path)

        monkeypatch.setattr(RunMetrics, "save_json", spy)
        path = tmp_path / "metrics.json"
        code, text = run_cli(
            "run", "bfs", "--dataset", "soc-LiveJournal1", "--gpus", "2",
            "--metrics-out", str(path),
        )
        assert code == 0
        assert f"wrote {path}" in text
        (metrics,) = saved
        body = json.loads(path.read_text("utf-8"))
        assert body == metrics.to_dict()
        assert body["schema_version"] == 3


class TestPartition:
    def test_compares_three(self):
        code, text = run_cli(
            "partition", "--dataset", "soc-LiveJournal1", "--gpus", "4"
        )
        assert code == 0
        for name in ("random", "biased-random", "metis"):
            assert name in text
        assert "border" in text


class TestSweep:
    def test_speedup_table(self):
        code, text = run_cli(
            "sweep", "bfs", "--dataset", "soc-LiveJournal1", "--max-gpus", "2"
        )
        assert code == 0
        assert "1.00x" in text
        assert "speedup" in text


def test_check_command_removed():
    with pytest.raises(SystemExit) as exc:
        run_cli("check")
    assert exc.value.code == 2


class TestSanitizeFlag:
    def test_clean_run_reports_and_exits_zero(self):
        code, text = run_cli(
            "run", "bfs", "--dataset", "soc-LiveJournal1",
            "--gpus", "2", "--sanitize",
        )
        assert code == 0
        assert "sanitizer: clean" in text


class TestFaultsFlag:
    def _plan(self, tmp_path, *specs):
        from repro.sim.faults import FaultPlan

        path = tmp_path / "plan.json"
        FaultPlan(list(specs)).save(path)
        return str(path)

    def test_faulted_run_reports_recovery(self, tmp_path):
        from repro.sim.faults import FaultSpec

        plan = self._plan(
            tmp_path,
            FaultSpec("gpu-loss", gpu=1, iteration=1),
        )
        code, text = run_cli(
            "run", "bfs", "--dataset", "soc-LiveJournal1", "--gpus", "2",
            "--faults", plan, "--checkpoint-every", "2",
        )
        assert code == 0
        assert "recovery:" in text
        assert "1 rollbacks" in text
        assert "degraded GPUs [1]" in text

    def test_fault_free_run_prints_no_recovery_line(self):
        _, text = run_cli(
            "run", "bfs", "--dataset", "soc-LiveJournal1", "--gpus", "2"
        )
        assert "recovery:" not in text

    def test_repro_error_is_one_line_diagnosis(self, tmp_path, capsys):
        from repro.sim.faults import FaultSpec

        # a plan targeting a GPU the machine doesn't have: structured
        # SimulationError -> one-line stderr diagnosis, exit 1
        plan = self._plan(
            tmp_path, FaultSpec("oom", gpu=7, iteration=0)
        )
        code, _ = run_cli(
            "run", "bfs", "--dataset", "soc-LiveJournal1", "--gpus", "2",
            "--faults", plan,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "SimulationError" in err
        assert "site=faults.plan" in err

    def test_sanitize_and_faults_mutually_exclusive(self, tmp_path, capsys):
        from repro.sim.faults import FaultSpec

        plan = self._plan(
            tmp_path, FaultSpec("oom", gpu=0, iteration=0)
        )
        code, _ = run_cli(
            "run", "bfs", "--dataset", "soc-LiveJournal1", "--gpus", "2",
            "--faults", plan, "--sanitize",
        )
        assert code == 1
        assert "SimulationError" in capsys.readouterr().err


class TestChaos:
    def test_smoke_matrix_recovers(self):
        code, text = run_cli(
            "chaos", "--smoke", "--primitives", "bfs",
            "--kinds", "transient-comm", "gpu-loss",
        )
        assert code == 0
        assert "2/2 recovered" in text

    def test_default_matrix_compares_serial_and_processes(self):
        import inspect

        from repro.chaos import run_chaos_matrix

        default = inspect.signature(run_chaos_matrix).parameters["backends"]
        assert default.default == ("serial", "processes")
        code, text = run_cli(
            "chaos", "--gpus", "2", "--primitives", "bfs",
            "--kinds", "transient-comm",
        )
        assert code == 0
        assert "2/2 recovered" in text
        assert "serial" in text and "processes" in text

    def test_removed_backend_not_a_choice(self):
        with pytest.raises(SystemExit):
            run_cli("chaos", "--backends", "threads")


def _faulted_trace(tmp_path):
    """One gpu-loss BFS run exported as a Chrome trace file."""
    from repro.sim.faults import FaultPlan, FaultSpec

    plan = tmp_path / "plan.json"
    FaultPlan([FaultSpec("gpu-loss", gpu=1, iteration=1)]).save(plan)
    trace = tmp_path / "out.trace.json"
    code, _ = run_cli(
        "run", "bfs", "--dataset", "soc-LiveJournal1", "--gpus", "2",
        "--faults", str(plan), "--checkpoint-every", "2",
        "--trace", str(trace),
    )
    assert code == 0
    return str(trace)


class TestTrace:
    def test_summary_counts_recovery_instants(self, tmp_path):
        path = _faulted_trace(tmp_path)
        code, text = run_cli("trace", path)
        assert code == 0
        assert "trace: valid" in text
        line = [l for l in text.splitlines()
                if l.startswith("recovery/checkpoint:")]
        assert line, text
        assert "recovery.rollback×1" in line[0]
        assert "checkpoint×" in line[0]
        assert "checkpoint.capture×" in line[0]
        # the worker supervisor and its summary line are gone
        assert "supervisor:" not in text

    def test_missing_file_exits_two(self):
        code, _ = run_cli("trace", "/nonexistent/x.trace.json")
        assert code == 2


class TestAnalyze:
    def test_renders_critical_path_table(self, tmp_path):
        code, text = run_cli("analyze", _faulted_trace(tmp_path))
        assert code == 0
        assert "bfs critical path (2 GPUs" in text
        assert "BSP terms (W + H·g + C + S·l):" in text
        assert "stragglers" in text
        assert "what-if" not in text

    def test_top_and_what_if(self, tmp_path):
        code, text = run_cli(
            "analyze", _faulted_trace(tmp_path), "--top", "2", "--what-if"
        )
        assert code == 0
        assert "what-if: zero-comm" in text
        assert "serial span sum" in text

    def test_json_report(self, tmp_path):
        import json

        code, text = run_cli("analyze", _faulted_trace(tmp_path), "--json")
        assert code == 0
        report = json.loads(text)
        assert report["type"] == "analysis.report"
        assert report["schema_version"] == 2
        assert set(report["terms"]) == {"W", "H", "C", "S"}
        wi = report["what_if"]
        assert wi["zero_comm_s"] <= wi["serial_span_sum_s"] + 1e-12

    def test_missing_file_exits_two(self):
        code, _ = run_cli("analyze", "/nonexistent/x.trace.json")
        assert code == 2

    def test_invalid_trace_exits_one(self, tmp_path):
        import json

        bad = tmp_path / "bad.trace.json"
        bad.write_text(json.dumps({"traceEvents": []}), "utf-8")
        code, _ = run_cli("analyze", str(bad))
        assert code == 1
