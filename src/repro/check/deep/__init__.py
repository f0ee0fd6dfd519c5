"""Deep analysis tier: ``python -m repro check --deep``.

Where the syntactic tier (``repro.check.rules``, REP101–109) pattern-
matches source text, this tier does real static analysis over primitive
modules and the framework itself:

* :mod:`~repro.check.deep.interp` — abstract interpretation of hook
  bodies over a dtype/origin/view lattice (REP110 silent-upcast,
  REP111 alias-write, REP112 superstep-escape);
* :mod:`~repro.check.deep.certify` — exhaustive algebraic certification
  of declared combiners, emitting :class:`CombinerCertificate`
  (REP114 combiner-certification);
* :mod:`~repro.check.deep.barriers` — structural verification of the
  backend/enactor barrier discipline (REP113);
* :mod:`~repro.check.deep.modelcheck` +
  :mod:`~repro.check.deep.schedules` — the superstep interleaving model
  checker (``--mc``): hot hooks compile to per-GPU effect summaries
  whose strict-barrier schedules are exhaustively explored, emitting
  :class:`ScheduleCertificate` (REP116 non-commutative-effects) with
  replayable counterexample schedules;
* :mod:`~repro.check.deep.sarif` — SARIF 2.1.0 output for CI ingestion.

Inline waivers (``# repro-check: disable=REP111 -- reason``) apply to
deep findings exactly as they do to syntactic ones; they are the one
way to suppress a finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..findings import Finding
from ..lint import _collect_waivers, _waived, iter_python_files
from ..rules.base import ModuleContext
from .barriers import (
    DEEP_BARRIER_RULES,
    BarrierReport,
    verify_barrier_discipline,
)
from .certify import (
    DEEP_CERTIFY_RULES,
    CombinerCertificate,
    certify_combiner,
    certify_module,
)
from .interp import DEEP_INTERP_RULES, analyze_module
from .modelcheck import DEEP_MC_RULES, ScheduleCertificate, modelcheck_module
from .sarif import findings_to_sarif

__all__ = [
    "DEEP_RULES",
    "DeepReport",
    "deep_analyze_source",
    "deep_analyze_paths",
    "modelcheck_source",
    "CombinerCertificate",
    "ScheduleCertificate",
    "certify_combiner",
    "verify_barrier_discipline",
    "BarrierReport",
    "findings_to_sarif",
]

#: rule_id -> (name, description) for every rule this tier can emit
DEEP_RULES: Dict[str, Tuple[str, str]] = {
    **DEEP_INTERP_RULES,
    **DEEP_BARRIER_RULES,
    **DEEP_CERTIFY_RULES,
    **DEEP_MC_RULES,
}


@dataclass
class DeepReport:
    """Everything one ``--deep``/``--mc`` run produced."""

    findings: List[Finding] = field(default_factory=list)
    certificates: List[CombinerCertificate] = field(default_factory=list)
    schedule_certificates: List[ScheduleCertificate] = field(
        default_factory=list)
    barrier: Optional[BarrierReport] = None

    def render_certificates(self) -> str:
        if not self.certificates:
            return "combiner certificates: none"
        lines = ["combiner certificates:"]
        for cert in self.certificates:
            lines.append(f"  {cert.describe()}")
        return "\n".join(lines)

    def render_schedule_certificates(self) -> str:
        if not self.schedule_certificates:
            return "schedule certificates: none"
        lines = ["schedule certificates:"]
        for cert in self.schedule_certificates:
            lines.append(f"  {cert.describe()}")
        return "\n".join(lines)


def deep_analyze_source(
    source: str, path: str = "<string>"
) -> Tuple[List[Finding], List[CombinerCertificate]]:
    """Deep-analyze one source string (interp + combiner certification).

    Waivers are honored; findings come back sorted by (line, col, rule).
    """
    try:
        ctx = ModuleContext.parse(path, source)
    except SyntaxError as exc:
        return (
            [Finding(
                rule_id="REP000", rule="parse-error", path=path,
                line=exc.lineno or 1, col=(exc.offset or 0) + 1,
                message=f"cannot parse module: {exc.msg}",
            )],
            [],
        )
    waivers = _collect_waivers(source)
    findings = list(analyze_module(ctx))
    certificates, cert_findings = certify_module(ctx)
    findings.extend(cert_findings)
    findings = [f for f in findings if not _waived(f, waivers)]
    findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
    return findings, certificates


def modelcheck_source(
    source: str, path: str = "<string>"
) -> Tuple[List[Finding], List[ScheduleCertificate]]:
    """Model-check one source string (REP116 + schedule certs).

    Waivers are honored; findings come back sorted by (line, col, rule).
    """
    try:
        ctx = ModuleContext.parse(path, source)
    except SyntaxError as exc:
        return (
            [Finding(
                rule_id="REP000", rule="parse-error", path=path,
                line=exc.lineno or 1, col=(exc.offset or 0) + 1,
                message=f"cannot parse module: {exc.msg}",
            )],
            [],
        )
    waivers = _collect_waivers(source)
    findings, certificates = modelcheck_module(ctx)
    findings = [f for f in findings if not _waived(f, waivers)]
    findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
    return findings, certificates


def deep_analyze_paths(
    paths: Iterable[str],
    verify_framework: bool = True,
    deep: bool = True,
    mc: bool = False,
) -> DeepReport:
    """Run the requested deep tiers over every ``.py`` file under paths.

    ``deep`` runs the abstract-interpretation + combiner-certification
    tier (REP110–114); ``mc`` runs the superstep interleaving model
    checker (REP116).  ``verify_framework`` additionally runs the
    barrier-discipline verifier over the installed ``repro.core``
    backend/enactor (part of the ``deep`` tier: their obligations hold
    for every run regardless of which primitive paths were analyzed).
    Findings are globally sorted by (path, line, col, rule) for stable
    CI diffs.
    """
    report = DeepReport()
    for f in iter_python_files(paths):
        source = f.read_text(encoding="utf-8")
        path = str(f)
        if deep:
            findings, certs = deep_analyze_source(source, path)
            report.findings.extend(findings)
            report.certificates.extend(certs)
        if mc:
            findings, scerts = modelcheck_source(source, path)
            report.findings.extend(findings)
            report.schedule_certificates.extend(scerts)
    if deep and verify_framework:
        report.barrier = verify_barrier_discipline()
        report.findings.extend(report.barrier.findings)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    report.certificates.sort(key=lambda c: (c.array, c.op))
    report.schedule_certificates.sort(key=lambda c: (c.path, c.primitive))
    return report
