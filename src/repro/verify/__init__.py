"""Static verification of task programs — no DES run required.

The passes analyse a :class:`~repro.core.program.Program` by statically
discovering its TDG through the production dependence resolver
(:mod:`repro.verify.static_graph`) and walking the declared footprints and
``depend`` clauses:

- **races** — unordered conflicting footprint accesses (``V-RACE``);
- **lint** — discovery-cost anti-patterns in depend clauses
  (``V-DUP-DEP``, ``V-ADDR-MERGE``, ``V-IOSET-FANIN``, ``V-WAW-DEAD``);
- **persistence** — soundness of the persistent task sub-graph, opt (p)
  (``V-PTSG-UNSAFE``, ``V-PTSG-MISSED``);
- **estimator** — exact edge counts plus discovery/execution time
  prediction and the Fig. 1 discovery-bound warning (``V-DISC-BOUND``);
- **patterns** — detrimental shapes in the compiled CSR: fan-in funnels,
  producer-bound loops, barrier staircases (``V-PAT-FUNNEL``,
  ``V-PAT-PRODBOUND``, ``V-PAT-STAIRCASE``).

:func:`verify_cluster` extends the analysis across MPI ranks
(:mod:`repro.verify.mpi`): operation matching and static deadlock cycles
(``V-MPI-UNMATCHED``, ``V-MPI-TAGDUP``, ``V-MPI-CYCLE``) and the race
scan under the cross-rank happens-before (``V-RACE-XRANK``).

Every rule is declared in the :data:`REGISTRY`
(:mod:`repro.verify.engine`), which also provides per-run rule config
and the committed-baseline workflow; :mod:`repro.verify.sarif` exports
reports as SARIF 2.1.0.

Entry points: :func:`verify_program`, :func:`verify_cluster`;
CLI: ``python -m repro lint``.
"""

from __future__ import annotations

from dataclasses import replace as _replace
from typing import Optional, Sequence

from repro.core.optimizations import OptimizationSet
from repro.core.program import Program
from repro.memory.machine import MachineSpec, skylake_8168
from repro.mpi.network import NetworkSpec
from repro.runtime.costs import DiscoveryCosts
from repro.verify.engine import (
    Baseline,
    Rule,
    RuleConfig,
    RuleRegistry,
    apply_policy,
)
from repro.verify.estimator import (
    DiscoveryEstimate,
    check_discovery_bound,
    estimate_discovery,
)
from repro.verify.findings import Finding, Report, Severity
from repro.verify.lint import (
    lint_duplicate_deps,
    lint_inoutset_fanin,
    lint_redundant_addresses,
    lint_waw_no_reader,
)
from repro.verify.mpi import (
    ClusterTDG,
    build_cluster_tdg,
    check_mpi,
    find_cluster_races,
)
from repro.verify.patterns import detect_patterns
from repro.verify.persistence import check_persistence
from repro.verify.races import find_races
from repro.verify.report import render_json, render_text
from repro.verify.sarif import render_sarif, to_sarif
from repro.verify.static_graph import StaticTDG, discover_static

__all__ = [
    "CLUSTER_PASSES",
    "PASSES",
    "REGISTRY",
    "RULES",
    "Baseline",
    "ClusterTDG",
    "DiscoveryEstimate",
    "Finding",
    "Report",
    "Rule",
    "RuleConfig",
    "RuleRegistry",
    "Severity",
    "StaticTDG",
    "apply_policy",
    "build_cluster_tdg",
    "check_discovery_bound",
    "check_mpi",
    "check_persistence",
    "detect_patterns",
    "discover_static",
    "estimate_discovery",
    "find_cluster_races",
    "find_races",
    "render_json",
    "render_sarif",
    "render_text",
    "to_sarif",
    "verify_cluster",
    "verify_program",
]

#: The single source of truth for every rule the verifier can emit.
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

#: Back-compat view: rule id -> one-line description with severity badge.
RULES: dict[str, str] = REGISTRY.catalogue()

#: Pass names accepted by :func:`verify_program`'s ``passes`` argument.
PASSES: tuple[str, ...] = (
    "races",
    "lint",
    "persistence",
    "estimator",
    "patterns",
)

#: Pass names accepted by :func:`verify_cluster` (rank-local passes run
#: per rank with the rank stamped on each finding).
CLUSTER_PASSES: tuple[str, ...] = (
    "mpi",
    "xrace",
    "patterns",
    "lint",
    "persistence",
)


def verify_program(
    program: Program,
    opts: OptimizationSet | str = "abcp",
    *,
    machine: Optional[MachineSpec] = None,
    threads: Optional[int] = None,
    costs: Optional[DiscoveryCosts] = None,
    passes: Optional[Sequence[str]] = None,
) -> Report:
    """Run the static verification passes over ``program``.

    ``passes`` selects a subset of :data:`PASSES` (default: all).  The
    estimator's numbers land in :attr:`Report.summary` whether or not it
    emits a finding.
    """
    if isinstance(opts, str):
        opts = OptimizationSet.parse(opts)
    if machine is None:
        machine = skylake_8168()
    if costs is None:
        costs = DiscoveryCosts()
    selected = tuple(passes) if passes is not None else PASSES
    unknown = [p for p in selected if p not in PASSES]
    if unknown:
        raise ValueError(f"unknown verify passes {unknown}; pick from {PASSES}")

    report = Report(program=program.name, passes=list(selected))
    tdg = discover_static(program, opts, costs=costs)

    if "races" in selected:
        report.extend(find_races(tdg))
    if "lint" in selected:
        report.extend(lint_duplicate_deps(program))
        report.extend(lint_redundant_addresses(program))
        report.extend(lint_inoutset_fanin(program, opts))
        report.extend(lint_waw_no_reader(program))
    if "persistence" in selected:
        report.extend(check_persistence(program, opts, costs=costs))
    if "patterns" in selected:
        report.extend(
            detect_patterns(
                tdg, machine=machine, threads=threads, costs=costs
            )
        )
    if "estimator" in selected:
        estimate, tdg = estimate_discovery(
            program, opts, machine, threads=threads, costs=costs, tdg=tdg
        )
        report.extend(check_discovery_bound(estimate))
        report.summary.update(
            {
                "n_tasks": estimate.n_tasks,
                "n_stubs": estimate.n_stubs,
                "edges_created": estimate.edges_created,
                "persistent": estimate.persistent,
                "discovery_total": estimate.discovery_total,
                "first_iteration_cost": estimate.first_iteration_cost,
                "steady_iteration_cost": estimate.steady_iteration_cost,
                "exec_estimate": estimate.exec_estimate,
                "threads": estimate.threads,
                "t1": estimate.t1,
                "t_inf": estimate.t_inf,
                "avg_parallelism": estimate.avg_parallelism,
            }
        )
    else:
        report.summary.update(
            {
                "n_tasks": tdg.compiled.n_user_tasks,
                "n_stubs": tdg.compiled.n_stubs,
                "edges_created": tdg.compiled.stats.created,
                "persistent": tdg.compiled.persistent,
            }
        )
    return report


def verify_cluster(
    programs: Sequence[Program],
    opts: OptimizationSet | str = "abcp",
    *,
    network: Optional[NetworkSpec] = None,
    machine: Optional[MachineSpec] = None,
    threads: Optional[int] = None,
    costs: Optional[DiscoveryCosts] = None,
    passes: Optional[Sequence[str]] = None,
    name: Optional[str] = None,
) -> Report:
    """Statically verify a whole cluster: one task program per rank.

    Runs the cross-rank analyses (MPI matching/deadlock, races under the
    communication-extended happens-before) plus the rank-local passes,
    each finding stamped with its rank.  Zero DES events are dispatched.
    """
    if isinstance(opts, str):
        opts = OptimizationSet.parse(opts)
    if machine is None:
        machine = skylake_8168()
    if costs is None:
        costs = DiscoveryCosts()
    selected = tuple(passes) if passes is not None else CLUSTER_PASSES
    unknown = [p for p in selected if p not in CLUSTER_PASSES]
    if unknown:
        raise ValueError(
            f"unknown cluster passes {unknown}; pick from {CLUSTER_PASSES}"
        )

    if name is None:
        base = programs[0].name if programs else "empty"
        name = f"cluster[{len(programs)}]:{base}"
    report = Report(
        program=name, passes=list(selected), ranks=len(programs)
    )
    ctdg = build_cluster_tdg(programs, opts, network=network, costs=costs)

    if "mpi" in selected:
        report.extend(check_mpi(ctdg))
    elif ctdg.structural_findings:
        report.extend(ctdg.structural_findings)
    if "xrace" in selected:
        report.extend(find_cluster_races(ctdg))
    for r, tdg in enumerate(ctdg.tdgs):
        if "patterns" in selected:
            report.extend(
                detect_patterns(
                    tdg, machine=machine, threads=threads, costs=costs,
                    rank=r,
                )
            )
        if "lint" in selected:
            local = (
                lint_duplicate_deps(programs[r])
                + lint_redundant_addresses(programs[r])
                + lint_inoutset_fanin(programs[r], opts)
                + lint_waw_no_reader(programs[r])
            )
            report.extend(_replace(f, rank=r) for f in local)
        if "persistence" in selected:
            report.extend(
                _replace(f, rank=r)
                for f in check_persistence(programs[r], opts, costs=costs)
            )

    report.summary.update(
        {
            "n_ranks": len(programs),
            "n_tasks": sum(t.compiled.n_user_tasks for t in ctdg.tdgs),
            "n_stubs": sum(t.compiled.n_stubs for t in ctdg.tdgs),
            "edges_created": sum(t.compiled.stats.created for t in ctdg.tdgs),
            "persistent": all(t.compiled.persistent for t in ctdg.tdgs),
            "comm_ops": len(ctdg.ops),
            "comm_pairs": len(ctdg.pairs),
            "comm_collective_slots": len(ctdg.coll_groups),
        }
    )
    return report
