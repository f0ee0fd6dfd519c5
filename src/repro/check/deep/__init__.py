"""Deep analysis tier: ``python -m repro check --deep``.

Where the syntactic tier (``repro.check.rules``) pattern-matches one
AST shape at a time, this tier follows values through a hook body:

* :mod:`~repro.check.deep.interp` — which names stand for the
  iteration object and its problem, into same-module helpers, to find
  hot-hook state that escapes the superstep (REP112 superstep-escape);
* :mod:`~repro.check.deep.sarif` — SARIF 2.1.0 output for CI ingestion
  (both tiers).

Inline waivers (``# repro-check: disable=REP112 -- reason``) apply to
deep findings exactly as they do to syntactic ones; they are the one
way to suppress a finding.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..findings import Finding
from ..lint import _collect_waivers, _waived, iter_python_files
from ..rules.base import ModuleContext
from .interp import DEEP_INTERP_RULES, analyze_module
from .sarif import findings_to_sarif

__all__ = [
    "DEEP_RULES",
    "deep_analyze_source",
    "deep_analyze_paths",
    "findings_to_sarif",
]

#: rule_id -> (name, description) for every rule this tier can emit
DEEP_RULES: Dict[str, Tuple[str, str]] = dict(DEEP_INTERP_RULES)


def deep_analyze_source(source: str, path: str = "<string>") -> List[Finding]:
    """Deep-analyze one source string.

    Waivers are honored; findings come back sorted by (line, col, rule).
    """
    try:
        ctx = ModuleContext.parse(path, source)
    except SyntaxError as exc:
        return [Finding(
            rule_id="REP000", rule="parse-error", path=path,
            line=exc.lineno or 1, col=(exc.offset or 0) + 1,
            message=f"cannot parse module: {exc.msg}",
        )]
    waivers = _collect_waivers(source)
    return [f for f in analyze_module(ctx) if not _waived(f, waivers)]


def deep_analyze_paths(paths: Iterable[str]) -> List[Finding]:
    """Deep-analyze every ``.py`` file under paths; findings sorted by
    (path, line, col, rule) for stable CI diffs."""
    findings: List[Finding] = []
    for f in iter_python_files(paths):
        findings.extend(
            deep_analyze_source(f.read_text(encoding="utf-8"), str(f))
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings
