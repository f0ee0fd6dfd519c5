"""Unit tests for the static lint rules REP103-REP104 (REP108 and REP118
have files of their own), the waiver machinery and the report formats,
plus the self-cleanliness gate: ``src/repro`` must lint clean with the
default rule set."""

import io
import json
import pathlib

import pytest

import repro
from repro.check import (
    DEFAULT_RULES,
    findings_to_json,
    lint_paths,
    lint_source,
    render_findings,
    rule_index,
)


def ids_of(findings):
    return [f.rule_id for f in findings]


PROBLEM_PREAMBLE = '''
"""doc"""
import numpy as np
from repro.core.problem import ProblemBase
from repro.core.iteration import IterationBase
'''


BARE_DTYPE = PROBLEM_PREAMBLE + '''
class ToyProblem(ProblemBase):
    def init_data_slice(self, ds, sub):
        ds.allocate("dist", sub.num_vertices, np.float64)
'''


class TestDtypeRule:
    def test_bare_dtype_in_allocate(self):
        src = PROBLEM_PREAMBLE + '''
class ToyProblem(ProblemBase):
    def init_data_slice(self, ds, sub):
        ds.allocate("dist", sub.num_vertices, np.float64)
'''
        assert "REP103" in ids_of(lint_source(src, "t.py"))

    def test_bare_dtype_kwarg(self):
        src = PROBLEM_PREAMBLE + '''
class ToyProblem(ProblemBase):
    def init_data_slice(self, ds, sub):
        ds.allocate("labels", sub.num_vertices, dtype=np.int64)
'''
        assert "REP103" in ids_of(lint_source(src, "t.py"))

    def test_idconfig_dtype_clean(self):
        src = PROBLEM_PREAMBLE + '''
class ToyProblem(ProblemBase):
    def init_data_slice(self, ds, sub):
        ids = sub.csr.ids
        ds.allocate("labels", sub.num_vertices, ids.vertex_dtype)
        ds.allocate("bitmap", sub.num_vertices, bool)
'''
        assert "REP103" not in ids_of(lint_source(src, "t.py"))


class TestHotLoopRule:
    def test_for_loop_in_hot_path(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        for v in frontier:
            pass
        return frontier, []
'''
        assert "REP104" in ids_of(lint_source(src, "t.py"))

    def test_while_fixpoint_allowed(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        while True:
            break
        return frontier, []
'''
        assert "REP104" not in ids_of(lint_source(src, "t.py"))

    def test_control_hooks_exempt(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        return frontier, []

    def on_iteration_end(self, record):
        for k in (1, 2):
            pass
'''
        assert "REP104" not in ids_of(lint_source(src, "t.py"))


class TestWaivers:
    SRC = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        for v in frontier:  # repro-check: disable=hot-loop
            pass
        return frontier, []
'''

    def test_same_line_waiver(self):
        assert "REP104" not in ids_of(lint_source(self.SRC, "t.py"))

    def test_comment_line_covers_next(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        # repro-check: disable=REP104
        for v in frontier:
            pass
        return frontier, []
'''
        assert "REP104" not in ids_of(lint_source(src, "t.py"))

    def test_disable_all(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        for v in frontier:  # repro-check: disable=all
            pass
        return frontier, []
'''
        assert "REP104" not in ids_of(lint_source(src, "t.py"))

    def test_waiver_is_rule_specific(self):
        src = PROBLEM_PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        for v in frontier:  # repro-check: disable=bare-dtype
            pass
        return frontier, []
'''
        assert "REP104" in ids_of(lint_source(src, "t.py"))


class TestInfrastructure:
    def test_parse_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n", "bad.py")
        assert ids_of(findings) == ["REP000"]

    def test_rule_index_covers_ids_and_names(self):
        idx = rule_index()
        for rule in DEFAULT_RULES:
            assert idx[rule.rule_id] is rule
            assert idx[rule.name] is rule

    def test_rule_ids_unique(self):
        ids = [r.rule_id for r in DEFAULT_RULES]
        assert len(ids) == len(set(ids))

    def test_render_and_json(self):
        findings = lint_source(BARE_DTYPE, "t.py")
        text = render_findings(findings)
        assert "REP103" in text and "1 finding" in text
        payload = json.loads(findings_to_json(findings))
        assert payload["count"] == 1
        assert payload["by_rule"] == {"REP103": 1}

    def test_json_document_keys_are_pinned(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text(BARE_DTYPE, encoding="utf-8")
        out = io.StringIO()
        assert main(["check", "--json", str(bad)], out=out) == 1
        doc = json.loads(out.getvalue())
        assert set(doc) == {"version", "tool", "count", "by_rule",
                            "findings"}
        assert doc["by_rule"] == {"REP103": 1}
        for finding in doc["findings"]:
            # "extra" only when the rule attached context
            assert set(finding) - {"extra"} == {
                "rule_id", "rule", "path", "line", "col", "severity",
                "message",
            }

    def test_lint_paths_sorted_across_files(self):
        pkg = str(pathlib.Path(repro.__path__[0]))
        a = lint_paths([pkg])
        b = lint_paths([pkg])
        keys = [(f.path, f.line, f.col, f.rule_id) for f in a]
        assert keys == sorted(keys)
        assert [(f.path, f.line) for f in a] == [
            (f.path, f.line) for f in b
        ]

    def test_lint_paths_rejects_non_python(self, tmp_path):
        target = tmp_path / "notes.txt"
        target.write_text("hello")
        with pytest.raises(FileNotFoundError):
            lint_paths([target])


class TestSelfLint:
    def test_src_repro_is_clean(self):
        """Satellite 1: the whole framework passes its own linter."""
        pkg = pathlib.Path(repro.__file__).parent
        findings = lint_paths([pkg])
        assert findings == [], render_findings(findings)
