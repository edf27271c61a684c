"""Rule-engine core: severities, the rule registry, baselines.

Every verification rule — the single-rank lints and the cluster analyses
alike — is declared as a :class:`Rule` in :data:`REGISTRY`, the one home
of rule metadata:

- the rule catalogue (``repro info``, SARIF ``tool.driver.rules``),
- each rule's severity — :attr:`~repro.verify.findings.Finding.severity`
  is a lookup here, so a finding cannot disagree with its rule — and
- which pass (rule family) emits each rule.

:class:`Baseline` is the only policy on top: a JSON file of known
finding fingerprints (see :attr:`Finding.fingerprint`) checked into the
repository.  Applying it to a :class:`Report` moves matched findings
into :attr:`Report.suppressed`, so ``--fail-on`` only gates on *new*
findings — the contract the CI lint gate runs on.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verify.findings import Finding, Report

#: Schema stamp of baseline files (repro.obs schema-version policy).
BASELINE_SCHEMA = "repro.verify.baseline"
BASELINE_SCHEMA_VERSION = 1


class Severity(enum.IntEnum):
    """Finding severity, ordered so comparisons express "at least"."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    @classmethod
    def parse(cls, name: str) -> "Severity":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {name!r}; pick from "
                f"{[s.name.lower() for s in cls]}"
            ) from None


# ======================================================================
# registry
# ======================================================================
@dataclass(frozen=True, slots=True)
class Rule:
    """One verification rule: identity, family, severity."""

    id: str
    #: The pass (rule family) that emits it — a name from
    #: :data:`repro.verify.PASSES` / :data:`repro.verify.CLUSTER_PASSES`.
    family: str
    severity: Severity
    #: One-line description for catalogues and SARIF.
    description: str
    #: Action-phrased default remediation (SARIF help text).
    help: str = ""

    @property
    def catalogue_entry(self) -> str:
        """The ``repro info`` line: description plus severity badge."""
        return f"{self.description} [{self.severity.name.lower()}]"


class RuleRegistry:
    """All rules the verifier can emit, keyed by stable rule id."""

    def __init__(self) -> None:
        self._rules: dict[str, Rule] = {}

    def register(self, rule: Rule) -> Rule:
        if rule.id in self._rules:
            raise ValueError(f"rule {rule.id!r} registered twice")
        self._rules[rule.id] = rule
        return rule

    def get(self, rule_id: str) -> Rule:
        return self._rules[rule_id]

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def ids(self) -> list[str]:
        return list(self._rules)

    def catalogue(self) -> dict[str, str]:
        """``{rule id: one-line description}`` in registration order."""
        return {r.id: r.catalogue_entry for r in self._rules.values()}


#: Every rule the verifier can emit.
REGISTRY = RuleRegistry()

for _rule in (
    Rule(
        id="V-RACE",
        family="races",
        severity=Severity.ERROR,
        description=(
            "unordered conflicting footprint accesses — a depend clause "
            "is missing or names the wrong address"
        ),
        help=(
            "declare a depend clause covering the shared storage, use an "
            "inoutset group if the writes commute, or add a taskwait"
        ),
    ),
    Rule(
        id="V-RACE-XRANK",
        family="xrace",
        severity=Severity.ERROR,
        description=(
            "race involving a communication task under the cross-rank "
            "happens-before — invisible to single-rank analysis"
        ),
        help=(
            "order the communication task and its buffer users with "
            "depend clauses on the message buffers"
        ),
    ),
    Rule(
        id="V-DUP-DEP",
        family="lint",
        severity=Severity.WARNING,
        description="duplicate (addr, mode) item in one depend clause list",
        help="drop the duplicate clause item (user-side optimization (a))",
    ),
    Rule(
        id="V-ADDR-MERGE",
        family="lint",
        severity=Severity.WARNING,
        description=(
            "addresses always accessed together with identical modes — "
            "merge them (user-side optimization (a))"
        ),
        help="represent the group by one sentinel address",
    ),
    Rule(
        id="V-IOSET-FANIN",
        family="lint",
        severity=Severity.WARNING,
        description=(
            "m inoutset writers feeding n readers without optimization "
            "(c): m*n edges where a redirect node needs m+n"
        ),
        help="enable optimization (c) or reduce the group fan-in",
    ),
    Rule(
        id="V-WAW-DEAD",
        family="lint",
        severity=Severity.WARNING,
        description=(
            "an out write overwrites a previous write with no reader in "
            "between"
        ),
        help="remove the dead write or the stale out clause",
    ),
    Rule(
        id="V-PTSG-UNSAFE",
        family="persistence",
        severity=Severity.ERROR,
        description=(
            "persistent_candidate program whose iteration structure "
            "diverges from the template"
        ),
        help="make every iteration submit the template's task sequence",
    ),
    Rule(
        id="V-PTSG-MISSED",
        family="persistence",
        severity=Severity.INFO,
        description=(
            "iteration structure provably invariant but persistence "
            "(opt p) not enabled"
        ),
        help="enable optimization (p) to replay the template",
    ),
    Rule(
        id="V-DISC-BOUND",
        family="estimator",
        severity=Severity.WARNING,
        description=(
            "predicted discovery time exceeds the execution estimate — "
            "the run is discovery bound (Fig. 1)"
        ),
        help=(
            "coarsen the tasks (lower TPL), enable more discovery "
            "optimizations (a/b/c), or make the graph persistent (p)"
        ),
    ),
    Rule(
        id="V-MPI-UNMATCHED",
        family="mpi",
        severity=Severity.ERROR,
        description=(
            "an MPI operation no peer ever matches (missing or "
            "mis-addressed send/recv/collective) — the run hangs"
        ),
        help=(
            "post the matching operation on the peer rank, or fix the "
            "peer/tag so existing operations pair up"
        ),
    ),
    Rule(
        id="V-MPI-CYCLE",
        family="mpi",
        severity=Severity.ERROR,
        description=(
            "static deadlock: post/complete events form a cross-rank "
            "dependency cycle no schedule can break"
        ),
        help=(
            "reorder the posts so one side's receive precedes its send, "
            "or keep payloads under the eager threshold"
        ),
    ),
    Rule(
        id="V-MPI-TAGDUP",
        family="mpi",
        severity=Severity.WARNING,
        description=(
            "unordered operations share one (src, dst, tag) channel — "
            "FIFO matching pairs them nondeterministically"
        ),
        help=(
            "give each logical message stream its own tag, or order the "
            "posting tasks with a dependence"
        ),
    ),
    Rule(
        id="V-PAT-FUNNEL",
        family="patterns",
        severity=Severity.WARNING,
        description=(
            "one task joins a far-above-average number of predecessors — "
            "edge-creation hotspot and a serializing join"
        ),
        help=(
            "reduce in a tree, or funnel through an inoutset group so "
            "optimization (c) inserts a redirect node"
        ),
    ),
    Rule(
        id="V-PAT-PRODBOUND",
        family="patterns",
        severity=Severity.WARNING,
        description=(
            "a task loop whose serial discovery (or replay) cost exceeds "
            "the execution it feeds the workers — producer bound"
        ),
        help=(
            "coarsen this loop's tasks or cut dependence addresses per "
            "task"
        ),
    ),
    Rule(
        id="V-PAT-STAIRCASE",
        family="patterns",
        severity=Severity.WARNING,
        description=(
            "consecutive barrier-delimited segments each narrower than "
            "the thread count — barriers serialize execution"
        ),
        help=(
            "drop taskwaits between independent phases or widen the "
            "narrow phases"
        ),
    ),
):
    REGISTRY.register(_rule)


# ======================================================================
# baselines
# ======================================================================
@dataclass
class Baseline:
    """Known-finding fingerprints that suppress repeat reports.

    The file is committed next to the code it describes; regenerating it
    (``repro lint --write-baseline``) is the explicit act of accepting
    the current findings as known.
    """

    program: str = ""
    #: fingerprint -> short context (rule + first task), for human diffs.
    entries: dict[str, dict] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.entries

    # ------------------------------------------------------------------
    @classmethod
    def from_report(cls, report: Report) -> "Baseline":
        """Baseline accepting every finding of ``report`` (incl. already
        suppressed ones, so re-writing with a stale baseline loses nothing)."""
        bl = cls(program=report.program)
        for f in list(report.sorted()) + list(report.sorted_suppressed()):
            bl.entries[f.fingerprint] = {
                "rule": f.rule,
                "rank": f.rank,
                "tasks": list(f.tasks[:2]),
                "message": f.message,
            }
        return bl

    def apply(self, report: Report) -> int:
        """Move matched findings into ``report.suppressed``; returns the
        number suppressed."""
        keep: list[Finding] = []
        hit = 0
        for f in report.findings:
            if f.fingerprint in self.entries:
                report.suppressed.append(f)
                hit += 1
            else:
                keep.append(f)
        report.findings = keep
        return hit

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": BASELINE_SCHEMA,
            "version": BASELINE_SCHEMA_VERSION,
            "program": self.program,
            "entries": {fp: self.entries[fp] for fp in sorted(self.entries)},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Baseline":
        if data.get("schema") != BASELINE_SCHEMA:
            raise ValueError(
                f"not a verify baseline: schema={data.get('schema')!r}"
            )
        if data.get("version") != BASELINE_SCHEMA_VERSION:
            raise ValueError(
                f"baseline schema version {data.get('version')!r} unsupported "
                f"(expected {BASELINE_SCHEMA_VERSION})"
            )
        return cls(
            program=str(data.get("program", "")),
            entries=dict(data.get("entries", {})),
        )

    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        from repro.util.serde import canonical_json

        Path(path).write_text(canonical_json(self.to_dict()) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Baseline":
        return cls.from_dict(json.loads(Path(path).read_text()))
