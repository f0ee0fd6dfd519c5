"""Event schema, JSONL sink, and file validation."""

import json

from repro.obs import (
    EVENT_SCHEMA_VERSION,
    JsonlWriter,
    Tracer,
    validate_event,
    validate_events_jsonl,
)
from repro.primitives import run_bfs
from repro.sim.machine import Machine


class TestValidateEvent:
    def test_clean_record(self):
        assert validate_event({"type": "barrier", "vt": 1.0, "iteration": 0}) == []

    def test_unknown_type(self):
        (p,) = validate_event({"type": "meteor"})
        assert "unknown event type" in p

    def test_missing_type(self):
        (p,) = validate_event({"vt": 1.0})
        assert "missing or non-string 'type'" in p

    def test_negative_vt(self):
        (p,) = validate_event({"type": "barrier", "vt": -0.5})
        assert "negative 'vt'" in p

    def test_bool_vt_rejected(self):
        (p,) = validate_event({"type": "barrier", "vt": True})
        assert "non-numeric 'vt'" in p

    def test_non_integer_gpu(self):
        (p,) = validate_event({"type": "superstep.begin", "gpu": 1.5})
        assert "non-integer 'gpu'" in p

    def test_span_needs_dur(self):
        problems = validate_event(
            {"type": "span", "cat": "op", "name": "advance", "vt": 0.0}
        )
        assert any("missing or non-numeric 'dur'" in p for p in problems)

    def test_line_number_prefix(self):
        (p,) = validate_event({"type": "meteor"}, line_no=7)
        assert p.startswith("line 7: ")


class TestSchemaV2:
    def test_version_constant(self):
        from repro.obs.events import EVENT_TYPES

        assert EVENT_SCHEMA_VERSION == 2
        # v2 promotes the observability products to first-class events
        assert {"recorder.dump", "analysis.report"} <= EVENT_TYPES

    def test_recorder_dump_validates(self):
        assert validate_event({
            "type": "recorder.dump",
            "reason": "enact-error",
            "num_gpus": 2,
        }) == []

    def test_analysis_report_validates(self):
        assert validate_event({
            "type": "analysis.report",
            "num_gpus": 4,
            "iteration": 0,
        }) == []

    def test_new_types_still_check_int_fields(self):
        (p,) = validate_event({"type": "recorder.dump", "num_gpus": 2.5})
        assert "non-integer 'num_gpus'" in p


class TestJsonlRoundTrip:
    def test_traced_run_writes_valid_jsonl(self, small_rmat, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlWriter(path) as writer:
            tracer = Tracer(sink=writer)
            run_bfs(small_rmat, Machine(2), src=0, tracer=tracer)
        assert writer.count > 0
        assert validate_events_jsonl(path) == []
        lines = [json.loads(l) for l in path.read_text("utf-8").splitlines()]
        assert writer.count == len(lines)
        types = {r["type"] for r in lines}
        assert {"run.begin", "superstep.begin", "barrier",
                "span", "run.end"} <= types

    def test_empty_file_is_a_problem(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert validate_events_jsonl(path) == ["file contains no events"]

    def test_bad_lines_reported_with_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type": "barrier", "vt": 1.0}\n'
            "not json\n"
            '{"type": "meteor"}\n',
            encoding="utf-8",
        )
        problems = validate_events_jsonl(path)
        assert any(p.startswith("line 2: invalid JSON") for p in problems)
        assert any(p.startswith("line 3: ") and "unknown event type" in p
                   for p in problems)
