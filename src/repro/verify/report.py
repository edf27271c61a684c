"""Render a verification :class:`~repro.verify.findings.Report` for humans
or machines (``repro lint --json`` / ``--sarif``)."""

from __future__ import annotations

import json

from repro.verify.engine import Severity
from repro.verify.findings import Report

_BADGE = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "info",
}


def render_text(report: Report) -> str:
    """Multi-line human-readable rendering, worst findings first.

    Within a severity, findings keep the report's deterministic
    (rule, rank, tasks, iteration, message) order.
    """
    lines: list[str] = []
    lines.append(f"verify: {report.program}")
    if report.ranks > 1:
        lines.append(f"ranks:  {report.ranks}")
    if report.passes:
        lines.append(f"passes: {', '.join(report.passes)}")
    s = report.summary
    if s:
        lines.append(
            "graph:  "
            f"{s.get('n_tasks', '?')} tasks (+{s.get('n_stubs', 0)} stubs), "
            f"{s.get('edges_created', '?')} edges"
            + (" [persistent]" if s.get("persistent") else "")
        )
        if "discovery_total" in s:
            lines.append(
                "cost:   "
                f"discovery {s['discovery_total']:.3e} s "
                f"(first it {s.get('first_iteration_cost', 0.0):.3e} s, "
                f"steady {s.get('steady_iteration_cost', 0.0):.3e} s), "
                f"exec estimate {s.get('exec_estimate', 0.0):.3e} s "
                f"@ {s.get('threads', '?')} threads"
            )
    lines.append("")
    if not report.findings and not report.suppressed:
        lines.append("no findings.")
        return "\n".join(lines)
    for f in sorted(report.sorted(), key=lambda f: -int(f.severity)):
        where = ""
        if f.rank >= 0:
            where += f" [rank {f.rank}]"
        if f.iteration >= 0:
            where += f" [iteration {f.iteration}]"
        lines.append(f"{_BADGE[f.severity]}: {f.rule}{where}: {f.message}")
        if f.tasks:
            lines.append(f"    tasks: {', '.join(f.tasks)}")
        if f.hint:
            lines.append(f"    hint: {f.hint}")
    if not report.findings:
        lines.append("no findings.")
    lines.append("")
    summary = ", ".join(
        f"{report.count(sev)} {_BADGE[sev]}{'s' if report.count(sev) != 1 else ''}"
        for sev in (Severity.ERROR, Severity.WARNING, Severity.INFO)
    )
    if report.suppressed:
        summary += f" ({len(report.suppressed)} baselined)"
    lines.append("summary: " + summary)
    return "\n".join(lines)


def render_json(report: Report) -> str:
    """JSON rendering of :meth:`Report.to_dict`.

    Deterministic: keys are sorted and findings use the report's full
    ordering, so two runs over the same program diff clean.
    """
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)
