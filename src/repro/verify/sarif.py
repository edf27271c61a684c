"""SARIF 2.1.0 export of verification reports.

SARIF (Static Analysis Results Interchange Format, OASIS standard) is
what code-scanning UIs ingest; exporting it lets the CI lint gate upload
findings as a reviewable artifact.  The mapping:

- the rule registry (:data:`~repro.verify.engine.REGISTRY`, the one
  source of each finding's severity) becomes ``tool.driver.rules``
  (ids, descriptions, default levels);
- each :class:`~repro.verify.findings.Finding` becomes a ``result`` with
  the finding's :attr:`~repro.verify.findings.Finding.fingerprint` under
  ``partialFingerprints`` — the same stable hash the baseline workflow
  keys on, so SARIF consumers dedup across runs exactly as the baseline
  does;
- baseline-suppressed findings are exported too, carrying an *external*
  ``suppression`` — visible but not actionable, per the standard.

Severities map ``ERROR -> error``, ``WARNING -> warning``,
``INFO -> note``.
"""

from __future__ import annotations

import json

from repro.verify.engine import REGISTRY, Severity
from repro.verify.findings import Finding, Report

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: Key under ``partialFingerprints`` — versioned per SARIF guidance.
FINGERPRINT_KEY = "reproVerify/v1"

_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def _result(
    finding: Finding, rule_index: dict[str, int], *, suppressed: bool
) -> dict:
    properties: dict = {
        "tasks": list(finding.tasks),
        "iteration": finding.iteration,
        "rank": finding.rank,
    }
    if finding.hint:
        properties["hint"] = finding.hint
    if finding.data:
        properties["data"] = finding.data
    result: dict = {
        "ruleId": finding.rule,
        "level": _LEVELS[finding.severity],
        "message": {"text": finding.message},
        "partialFingerprints": {FINGERPRINT_KEY: finding.fingerprint},
        "properties": properties,
    }
    if finding.rule in rule_index:
        result["ruleIndex"] = rule_index[finding.rule]
    if suppressed:
        result["suppressions"] = [
            {"kind": "external", "justification": "accepted by baseline"}
        ]
    return result


def to_sarif(report: Report) -> dict:
    """The report as a SARIF 2.1.0 log (one run)."""
    rules = []
    rule_index: dict[str, int] = {}
    for rule in REGISTRY:
        rule_index[rule.id] = len(rules)
        entry: dict = {
            "id": rule.id,
            "shortDescription": {"text": rule.description},
            "defaultConfiguration": {"level": _LEVELS[rule.severity]},
            "properties": {"family": rule.family},
        }
        if rule.help:
            entry["help"] = {"text": rule.help}
        rules.append(entry)

    results = [
        _result(f, rule_index, suppressed=False) for f in report.sorted()
    ] + [
        _result(f, rule_index, suppressed=True)
        for f in report.sorted_suppressed()
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-verify",
                        "informationUri": (
                            "https://github.com/paper-repro/repro"
                        ),
                        "rules": rules,
                    }
                },
                "properties": {
                    "program": report.program,
                    "ranks": report.ranks,
                    "passes": list(report.passes),
                },
                "results": results,
            }
        ],
    }


def render_sarif(report: Report) -> str:
    return json.dumps(to_sarif(report), indent=2, sort_keys=True)
