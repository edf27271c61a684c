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

Every rule and its severity is declared in the :data:`REGISTRY`
(:mod:`repro.verify.engine`), which also provides the committed-baseline
workflow; :mod:`repro.verify.sarif` exports reports as SARIF 2.1.0.

Entry points: :func:`verify_program`, :func:`verify_cluster`;
CLI: ``python -m repro lint``.
"""

from __future__ import annotations

from dataclasses import replace as _replace
from typing import Optional, Sequence

from repro.core.optimizations import OptimizationSet
from repro.core.program import Program
from repro.memory.machine import MachineSpec, skylake_8168
from repro.runtime.costs import DiscoveryCosts
from repro.verify.engine import REGISTRY, Baseline, Rule, RuleRegistry, Severity
from repro.verify.estimator import (
    DiscoveryEstimate,
    check_discovery_bound,
    estimate_discovery,
)
from repro.verify.findings import Finding, Report
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
    "Baseline",
    "ClusterTDG",
    "DiscoveryEstimate",
    "Finding",
    "Report",
    "Rule",
    "RuleRegistry",
    "Severity",
    "StaticTDG",
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

#: The passes :func:`verify_program` runs, as its report lists them.
PASSES: tuple[str, ...] = (
    "races",
    "lint",
    "persistence",
    "estimator",
    "patterns",
)

#: The passes :func:`verify_cluster` runs, as its report lists them
#: (rank-local passes run per rank with the rank stamped on each finding).
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
) -> Report:
    """Run every pass of :data:`PASSES` over ``program``.

    The estimator's numbers land in :attr:`Report.summary` whether or not
    it emits a finding.
    """
    if isinstance(opts, str):
        opts = OptimizationSet.parse(opts)
    if machine is None:
        machine = skylake_8168()
    if costs is None:
        costs = DiscoveryCosts()

    report = Report(program=program.name, passes=list(PASSES))
    tdg = discover_static(program, opts, costs=costs)
    report.extend(find_races(tdg))
    report.extend(lint_duplicate_deps(program))
    report.extend(lint_redundant_addresses(program))
    report.extend(lint_inoutset_fanin(program, opts))
    report.extend(lint_waw_no_reader(program))
    report.extend(check_persistence(program, opts, costs=costs))
    report.extend(
        detect_patterns(tdg, machine=machine, threads=threads, costs=costs)
    )
    estimate, _ = estimate_discovery(
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
    return report


def verify_cluster(
    programs: Sequence[Program],
    opts: OptimizationSet | str = "abcp",
    *,
    machine: Optional[MachineSpec] = None,
    threads: Optional[int] = None,
    costs: Optional[DiscoveryCosts] = None,
) -> Report:
    """Statically verify a whole cluster: one task program per rank.

    Runs every pass of :data:`CLUSTER_PASSES`: the cross-rank analyses
    (MPI matching/deadlock, races under the communication-extended
    happens-before) plus the rank-local passes, each finding stamped with
    its rank.  Zero DES events are dispatched.
    """
    if isinstance(opts, str):
        opts = OptimizationSet.parse(opts)
    if machine is None:
        machine = skylake_8168()
    if costs is None:
        costs = DiscoveryCosts()

    base = programs[0].name if programs else "empty"
    report = Report(
        program=f"cluster[{len(programs)}]:{base}",
        passes=list(CLUSTER_PASSES),
        ranks=len(programs),
    )
    ctdg = build_cluster_tdg(programs, opts, costs=costs)
    report.extend(check_mpi(ctdg))
    report.extend(find_cluster_races(ctdg))
    for r, tdg in enumerate(ctdg.tdgs):
        report.extend(
            detect_patterns(
                tdg, machine=machine, threads=threads, costs=costs, rank=r
            )
        )
        local = (
            lint_duplicate_deps(programs[r])
            + lint_redundant_addresses(programs[r])
            + lint_inoutset_fanin(programs[r], opts)
            + lint_waw_no_reader(programs[r])
            + check_persistence(programs[r], opts, costs=costs)
        )
        report.extend(_replace(f, rank=r) for f in local)

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
