"""Structured findings emitted by the static verification passes.

Every rule reports :class:`Finding` records collected into a
:class:`Report`; the CLI renders them as text, JSON or SARIF and maps the
worst severity onto its exit code (``--fail-on``).

Findings carry a stable :attr:`Finding.fingerprint` — a content hash over
the identifying fields (rule, rank, tasks, iteration, structural data) that
deliberately excludes floating-point numbers, so re-calibrating the cost
model does not churn baselines.  The committed-baseline workflow
(:mod:`repro.verify.engine`) suppresses known fingerprints and CI fails
only on *new* ones.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.verify.engine import REGISTRY, Severity

#: Schema stamp of the report JSON (``render_json`` / ``Report.to_dict``),
#: following the repro.obs schema-version policy: bump on any field
#: change so consumers reject documents they do not understand.
REPORT_SCHEMA = "repro.verify.report"
REPORT_SCHEMA_VERSION = 2


def _stable_data(data: dict) -> list:
    """The fingerprint-worthy subset of a finding's ``data``.

    Structural values (ints, strings, bools, and flat lists of them)
    identify a finding; floats are cost-model outputs that drift with
    calibration and are excluded on purpose.
    """
    out = []
    for k in sorted(data):
        v = data[k]
        if isinstance(v, (str, bool, int)):
            out.append([k, v])
        elif isinstance(v, (list, tuple)) and all(
            isinstance(x, (str, int)) for x in v
        ):
            out.append([k, list(v)])
    return out


@dataclass(frozen=True)
class Finding:
    """One defect (or opportunity) located in a task program.

    Attributes
    ----------
    rule:
        Stable rule identifier (e.g. ``"V-RACE"``), registered in
        :data:`repro.verify.engine.REGISTRY`; an unregistered id raises.
    message:
        Human-readable, single-sentence statement of the defect.
    tasks:
        Names of the task specs involved (writers first for races).
    iteration:
        Outer-loop iteration the finding anchors to, ``-1`` if program-wide.
    rank:
        MPI rank the finding anchors to, ``-1`` for single-program or
        cluster-wide findings.
    hint:
        Suggested fix, phrased as an action.
    data:
        Rule-specific numbers (edge counts, predicted costs...) — JSON-safe.
    """

    rule: str
    message: str
    tasks: tuple[str, ...] = ()
    iteration: int = -1
    rank: int = -1
    hint: str = ""
    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rule not in REGISTRY:
            raise ValueError(
                f"unregistered rule {self.rule!r}; known rules: {REGISTRY.ids()}"
            )

    @property
    def severity(self) -> Severity:
        """The registered severity of :attr:`rule`."""
        return REGISTRY.get(self.rule).severity

    @property
    def fingerprint(self) -> str:
        """Stable identity hash for baselines and SARIF partialFingerprints."""
        doc = json.dumps(
            [self.rule, self.rank, list(self.tasks), self.iteration,
             _stable_data(self.data)],
            separators=(",", ":"),
            sort_keys=True,
        )
        return hashlib.sha256(doc.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.name.lower(),
            "message": self.message,
            "tasks": list(self.tasks),
            "iteration": self.iteration,
            "rank": self.rank,
            "fingerprint": self.fingerprint,
            "hint": self.hint,
            "data": self.data,
        }


#: Deterministic emission order: (rule, rank, tasks, iteration, message).
#: Independent of pass emission order and hash-seed variations.
def _order_key(f: Finding) -> tuple:
    return (f.rule, f.rank, f.tasks, f.iteration, f.message)


@dataclass
class Report:
    """All findings of one verification run over one program (or cluster)."""

    program: str
    findings: list[Finding] = field(default_factory=list)
    #: Passes that actually ran (rule families), for reporting.
    passes: list[str] = field(default_factory=list)
    #: Free-form summary numbers (from the cost estimator).
    summary: dict = field(default_factory=dict)
    #: Findings matched by an applied baseline — excluded from counts,
    #: ``worst`` and ``at_least`` (i.e. from the CLI exit-code decision).
    suppressed: list[Finding] = field(default_factory=list)
    #: Ranks analysed (empty for single-program verification).
    ranks: int = 1

    # ------------------------------------------------------------------
    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    # ------------------------------------------------------------------
    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    def at_least(self, severity: Severity) -> list[Finding]:
        """Active (non-suppressed) findings at or above ``severity``."""
        return [f for f in self.findings if f.severity >= severity]

    def by_rule(self, rule: str) -> list[Finding]:
        return [f for f in self.findings if f.rule == rule]

    @property
    def worst(self) -> Optional[Severity]:
        if not self.findings:
            return None
        return max(f.severity for f in self.findings)

    def sorted(self) -> list[Finding]:
        """Findings in the deterministic report order.

        Ordered by (rule, rank, tasks, iteration, message) — every
        identifying field, so ``repro lint --json`` diffs are stable
        across processes and hash-seed variations.
        """
        return sorted(self.findings, key=_order_key)

    def sorted_suppressed(self) -> list[Finding]:
        return sorted(self.suppressed, key=_order_key)

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "version": REPORT_SCHEMA_VERSION,
            "program": self.program,
            "ranks": self.ranks,
            "passes": list(self.passes),
            "counts": {
                s.name.lower(): self.count(s) for s in Severity
            },
            "summary": self.summary,
            "findings": [f.to_dict() for f in self.sorted()],
            "suppressed": [f.to_dict() for f in self.sorted_suppressed()],
        }
