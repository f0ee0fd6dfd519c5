"""SARIF 2.1.0 emitter for ``repro check`` findings.

SARIF (Static Analysis Results Interchange Format) is the exchange
format CI systems ingest natively (GitHub code scanning, `sarif-tools`,
...).  The emitter is deliberately minimal: one run, one driver, one
``result`` per :class:`~repro.check.findings.Finding`, rule metadata
from the registries of both tiers.  Output is deterministic — findings
are emitted in the order given (the CLI sorts globally first) and all
dicts serialize with sorted keys.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from ..findings import Finding

__all__ = ["findings_to_sarif"]

_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {"error": "error", "warning": "warning", "note": "note"}

#: rules whose severity is fixed by contract (emitted into SARIF
#: ``defaultConfiguration`` so dashboards triage them correctly even
#: before any finding exists)
_RULE_DEFAULT_LEVELS = {
    "REP116": "error",  # strict-barrier divergence: broken contract
}

#: expanded guidance for rules whose one-line description is not enough
#: to act on a finding (shown by SARIF viewers as fullDescription)
_RULE_FULL_DESCRIPTIONS = {
    "REP116": (
        "The superstep interleaving model checker found two strict-"
        "barrier schedules of this primitive's effect summaries that "
        "reach different final states. Under the framework contract "
        "(messages merged at the barrier in pinned sender order, "
        "REP113) this can only happen when hooks write peer-GPU slices "
        "or message payload views. The attached ScheduleCertificate "
        "carries a minimal counterexample: a witness/divergent pair of "
        "replayable schedule traces (repro check --mc --trace-out DIR "
        "renders them for Perfetto)."
    ),
}


def _rule_descriptor(rule_id: str, name: str, description: str) -> dict:
    desc = {
        "id": rule_id,
        "name": name,
        "shortDescription": {"text": description or name},
        "helpUri": (
            "https://github.com/"  # repo-relative docs anchor
            f"../blob/main/docs/static_analysis.md#{rule_id.lower()}"
        ),
    }
    full = _RULE_FULL_DESCRIPTIONS.get(rule_id)
    if full:
        desc["fullDescription"] = {"text": full}
    level = _RULE_DEFAULT_LEVELS.get(rule_id)
    if level:
        desc["defaultConfiguration"] = {"level": level}
    return desc


def findings_to_sarif(
    findings: Iterable[Finding],
    rules: Optional[Dict[str, Tuple[str, str]]] = None,
    tool_name: str = "repro-check",
    tool_version: str = "1",
) -> str:
    """Render findings as a SARIF 2.1.0 JSON document (a string).

    ``rules`` maps rule_id -> (name, description); rules only seen on
    findings are synthesized from the finding itself so the document is
    always self-consistent.
    """
    findings = list(findings)
    rules = dict(rules or {})
    for f in findings:
        rules.setdefault(f.rule_id, (f.rule, ""))
    rule_ids = sorted(rules)
    rule_index = {rid: i for i, rid in enumerate(rule_ids)}

    results: List[dict] = []
    for f in findings:
        results.append({
            "ruleId": f.rule_id,
            "ruleIndex": rule_index[f.rule_id],
            "level": _LEVELS.get(f.severity, "error"),
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.path.replace("\\", "/")},
                    "region": {
                        "startLine": max(f.line, 1),
                        "startColumn": max(f.col, 1),
                    },
                },
            }],
            "properties": dict(f.extra),
        })

    doc = {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": tool_name,
                    "version": tool_version,
                    "informationUri":
                        "docs/static_analysis.md",
                    "rules": [
                        _rule_descriptor(rid, *rules[rid])
                        for rid in rule_ids
                    ],
                },
            },
            "results": results,
        }],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
