"""Run the rule pack over designs, scenarios, or the whole registry.

The engine owns ordering, waiver application and metrics accounting so
every entry point (CLI ``lint``, ``sweep --lint`` pre-flight,
``inspect`` surfacing, tests) reports identically:

* findings are sorted worst-severity first, then by rule id and path;
* waivers are applied per scenario but audited once per run — a waiver
  used by *any* linted design is not "unused";
* when the metrics registry is enabled, ``lint.designs`` and
  ``lint.findings.<severity>`` / ``lint.waived`` counters accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..obs.metrics import REGISTRY as _OBS
from ..runner import registry
from .findings import Finding, severity_rank, worst_severity
from .rules import LintContext, Rule, default_rules
from .waivers import Waiver, apply_waivers, unused_waiver_findings

#: synthetic "scenario" carrying the end-of-run waiver audit
WAIVER_AUDIT = "(waiver audit)"


@dataclass
class LintReport:
    """Findings for one linted design (or one skipped scenario)."""

    scenario: str
    findings: List[Finding] = field(default_factory=list)
    #: non-empty when the scenario could not be linted (no design hook)
    skipped: str = ""

    @property
    def worst(self) -> str:
        return worst_severity(self.findings)

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            key = "waived" if finding.waived else finding.severity
            counts[key] = counts.get(key, 0) + 1
        return counts


def _sort(findings: List[Finding]) -> List[Finding]:
    findings.sort(
        key=lambda f: (-severity_rank(f.severity), f.rule_id, f.path)
    )
    return findings


def _count(findings: Sequence[Finding]) -> None:
    if not _OBS.enabled:
        return
    _OBS.counter("lint.designs").inc()
    for finding in findings:
        if finding.waived:
            _OBS.counter("lint.waived").inc()
        else:
            _OBS.counter(f"lint.findings.{finding.severity}").inc()


def lint_design(design, scenario: str = "",
                rules: Optional[Sequence[Rule]] = None,
                waivers: Optional[List[Waiver]] = None) -> List[Finding]:
    """Lint one design; returns sorted findings (waived ones marked)."""
    ctx = LintContext.for_design(design, scenario=scenario)
    findings: List[Finding] = []
    for rule in (rules if rules is not None else default_rules()):
        findings.extend(rule.check(ctx))
    if waivers:
        apply_waivers(findings, waivers, scenario)
    _sort(findings)
    _count(findings)
    return findings


def lint_scenario(sc, overrides: Optional[Dict[str, object]] = None,
                  fast: bool = True, tech=None,
                  rules: Optional[Sequence[Rule]] = None,
                  waivers: Optional[List[Waiver]] = None) -> LintReport:
    """Lint one registered scenario's design tree."""
    if not sc.has_design:
        return LintReport(
            sc.id, skipped="scenario exposes no design tree"
        )
    design = sc.design_for(tech=tech, overrides=overrides, fast=fast)
    return LintReport(
        sc.id,
        findings=lint_design(
            design, scenario=sc.id, rules=rules, waivers=waivers
        ),
    )


def lint_registry(ids: Optional[Sequence[str]] = None,
                  overrides: Optional[Dict[str, object]] = None,
                  fast: bool = True, tech=None,
                  rules: Optional[Sequence[Rule]] = None,
                  waivers: Optional[List[Waiver]] = None
                  ) -> List[LintReport]:
    """Lint every selected scenario plus one waiver-audit report.

    ``ids=None`` lints every registered scenario (those without a
    design hook appear as skipped reports, so ``--all`` output names
    what was *not* checked).  Parameter ``overrides`` only apply to
    scenarios that declare every overridden name; with explicit ``ids``
    an override no selected scenario declares is a
    :class:`~repro.runner.registry.ScenarioError`.
    """
    registry.load_builtin()
    scenarios = (
        [registry.get(i) for i in ids] if ids is not None
        else registry.all_scenarios()
    )
    if ids is not None and overrides:
        declared = {spec.name for sc in scenarios for spec in sc.params}
        bogus = sorted(set(overrides) - declared)
        if bogus:
            raise registry.ScenarioError(
                f"--set {', '.join(bogus)}: no selected scenario "
                f"declares such a parameter"
            )
    reports: List[LintReport] = []
    for sc in scenarios:
        usable = overrides or {}
        if usable:
            declared = {spec.name for spec in sc.params}
            usable = {k: v for k, v in usable.items() if k in declared}
        reports.append(lint_scenario(
            sc, overrides=usable or None, fast=fast, tech=tech,
            rules=rules, waivers=waivers,
        ))
    if waivers and ids is None:
        # staleness is only judgeable against the whole registry — a
        # subset lint must not flag other scenarios' waivers as unused
        audit = unused_waiver_findings(waivers)
        if audit:
            _sort(audit)
            reports.append(LintReport(WAIVER_AUDIT, findings=audit))
    return reports


def gate(reports: Sequence[LintReport], fail_on: str = "error") -> bool:
    """True when some unwaived finding meets the ``fail_on`` bar."""
    bar = severity_rank(fail_on)
    return any(
        severity_rank(f.severity) >= bar
        for report in reports
        for f in report.findings
        if not f.waived
    )
