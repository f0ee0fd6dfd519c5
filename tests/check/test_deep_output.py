"""Deep-tier output plumbing: SARIF 2.1.0 emission and deterministic
finding order across tiers."""

import json
import pathlib

import repro
from repro.check import lint_paths
from repro.check.deep import (
    DEEP_RULES,
    deep_analyze_paths,
    deep_analyze_source,
    findings_to_sarif,
)

BAD_SRC = '''
"""doc"""
import numpy as np
from repro.core.problem import ProblemBase
from repro.core.iteration import IterationBase


class ToyProblem(ProblemBase):
    def init_data_slice(self, ds, sub):
        ds.allocate("labels", sub.num_vertices, sub.csr.ids.vertex_dtype)


class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        ctx.slice["labels"][frontier] = 0.5 * frontier
        self.stash = frontier
        return frontier, []
'''


def bad_findings(path="bad.py"):
    findings, _ = deep_analyze_source(BAD_SRC, path)
    return findings


class TestSarif:
    def test_document_shape(self):
        findings = bad_findings()
        assert findings
        doc = json.loads(findings_to_sarif(findings, rules=DEEP_RULES))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert {"REP110", "REP112"} <= set(rule_ids)
        assert len(run["results"]) == len(findings)
        first = run["results"][0]
        assert first["ruleId"] in set(rule_ids)
        assert rule_ids[first["ruleIndex"]] == first["ruleId"]
        loc = first["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "bad.py"
        assert loc["region"]["startLine"] >= 1

    def test_severity_maps_to_level(self):
        findings = bad_findings()
        findings[0].severity = "warning"
        doc = json.loads(findings_to_sarif(findings))
        levels = {r["level"] for r in doc["runs"][0]["results"]}
        assert "warning" in levels and "error" in levels

    def test_unknown_rules_synthesized(self):
        doc = json.loads(findings_to_sarif(bad_findings(), rules=None))
        assert doc["runs"][0]["tool"]["driver"]["rules"]

    def test_empty_findings_is_valid(self):
        doc = json.loads(findings_to_sarif([]))
        assert doc["runs"][0]["results"] == []


class TestDeterministicOrder:
    def test_lint_paths_sorted_across_files(self):
        pkg = str(pathlib.Path(repro.__path__[0]))
        a = lint_paths([pkg])
        b = lint_paths([pkg])
        keys = [(f.path, f.line, f.col, f.rule_id) for f in a]
        assert keys == sorted(keys)
        assert [(f.path, f.line) for f in a] == [
            (f.path, f.line) for f in b
        ]

    def test_deep_report_sorted_and_stable(self, tmp_path):
        # two files whose names reverse-sort vs their finding order
        (tmp_path / "zz.py").write_text(BAD_SRC, encoding="utf-8")
        (tmp_path / "aa.py").write_text(BAD_SRC, encoding="utf-8")
        report = deep_analyze_paths([str(tmp_path)],
                                    verify_framework=False)
        keys = [(f.path, f.line, f.col, f.rule_id) for f in report.findings]
        assert keys == sorted(keys)
        again = deep_analyze_paths([str(tmp_path)],
                                   verify_framework=False)
        assert keys == [
            (f.path, f.line, f.col, f.rule_id) for f in again.findings
        ]
