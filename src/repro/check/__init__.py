"""``repro.check`` — framework-contract linter and BSP race sanitizer.

Two engines behind one CLI (``python -m repro check``):

* a static, AST-based lint pass (:mod:`repro.check.lint`) with pluggable
  rules (:mod:`repro.check.rules`) that verify the framework contract —
  IdConfig dtype discipline, vectorized hot paths,
  framework errors that are never swallowed, and bounded IPC waits;
* a dynamic BSP race sanitizer (:mod:`repro.check.sanitizer`) that wraps
  per-GPU slice arrays in shadow memory and flags mid-superstep peer
  access and non-combinable write-write races at each barrier
  (``Enactor(..., sanitize=True)`` / ``repro run --sanitize``).

See ``docs/static_analysis.md`` for the rule catalogue and how to add a
rule.
"""

from .findings import Finding, findings_to_json, render_findings
from .lint import iter_python_files, lint_paths, lint_source
from .rules import DEFAULT_RULES, Rule, default_rules, rule_index
from .sanitizer import BspSanitizer, Hazard, ShadowArray

__all__ = [
    "Finding",
    "findings_to_json",
    "render_findings",
    "lint_paths",
    "lint_source",
    "iter_python_files",
    "Rule",
    "DEFAULT_RULES",
    "default_rules",
    "rule_index",
    "BspSanitizer",
    "Hazard",
    "ShadowArray",
]
