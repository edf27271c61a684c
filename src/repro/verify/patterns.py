"""Detrimental-pattern detectors over the compiled CSR (``V-PAT-*``).

The lint pass reads ``depend`` clauses; these detectors read the *graph*
the resolver actually built — the :class:`~repro.core.compiled.CompiledTDG`
columns — and flag shapes the paper shows hurt task-based MPI+OpenMP runs
even when every dependence is correct:

- **fan-in funnels** (``V-PAT-FUNNEL``): one task joining m predecessors.
  The producer thread pays ``m * c_edge`` at a single spec, and the
  consumer cannot start until the *slowest* of the m producers finishes —
  the dt-reduction shape of LULESH.  The finding carries the Fig. 4 edge
  arithmetic: flat wiring of the m producers to the n downstream
  consumers would cost ``m * n`` edges where a redirect costs ``m + n``.
- **producer-bound loops** (``V-PAT-PRODBOUND``): a task loop whose
  serial discovery cost exceeds what its tasks give the workers to do —
  the per-loop refinement of Fig. 1's global discovery-bound condition,
  pointing at *which* ``taskloop`` to coarsen.  In persistent mode the
  steady-state replay cost is checked too.
- **barrier staircases** (``V-PAT-STAIRCASE``): runs of consecutive
  barrier-delimited segments each narrower than the thread count — a
  taskwait staircase (or a narrow persistent template repeated by the
  per-iteration implicit barrier) that serializes execution no matter how
  fast discovery is.

All thresholds are module constants so experiments can re-tune them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from repro.memory.machine import MachineSpec, skylake_8168
from repro.runtime.costs import DiscoveryCosts
from repro.verify.estimator import task_seconds
from repro.verify.findings import Finding
from repro.verify.static_graph import StaticTDG

#: A fan-in counts as a funnel from this many unique predecessors...
FUNNEL_MIN_INDEGREE = 8
#: ...provided it also stands out against the graph's mean fan-in.
FUNNEL_RATIO = 4.0
#: Report at most this many funnels (widest first).
MAX_FUNNEL_FINDINGS = 10
#: Loops below this task count are not worth a PRODBOUND finding.
PRODBOUND_MIN_TASKS = 4
#: A staircase needs at least this many consecutive narrow segments.
STAIRCASE_MIN_SEGMENTS = 3
#: Report at most this many staircases per program.
MAX_STAIRCASE_FINDINGS = 5


def detect_patterns(
    tdg: StaticTDG,
    *,
    machine: Optional[MachineSpec] = None,
    threads: Optional[int] = None,
    costs: Optional[DiscoveryCosts] = None,
    rank: int = -1,
) -> list[Finding]:
    """All pattern findings for one statically discovered TDG."""
    if machine is None:
        machine = skylake_8168()
    if threads is None:
        threads = machine.n_cores
    if costs is None:
        costs = DiscoveryCosts()
    findings = _find_funnels(tdg, rank=rank)
    findings += _find_producer_bound_loops(
        tdg, machine, threads, costs, rank=rank
    )
    findings += _find_staircases(tdg, threads, rank=rank)
    return findings


# ======================================================================
# V-PAT-FUNNEL
# ======================================================================
def _find_funnels(tdg: StaticTDG, *, rank: int) -> list[Finding]:
    c = tdg.compiled
    n = c.n_tasks
    preds: list[set[int]] = [set() for _ in range(n)]
    succs: list[set[int]] = [set() for _ in range(n)]
    for p, s in c.unique_edges():
        preds[s].add(p)
        succs[p].add(s)
    indegs = [len(preds[t]) for t in range(n) if not c.is_stub[t]]
    if not indegs or not any(indegs):
        return []
    # Baseline over *all* user nodes (sources included): a funnel must
    # stand out against the graph, not against other funnels.
    mean_in = sum(indegs) / len(indegs)
    threshold = max(FUNNEL_MIN_INDEGREE, FUNNEL_RATIO * mean_in)

    candidates = sorted(
        (
            t
            for t in range(n)
            if not c.is_stub[t] and len(preds[t]) >= threshold
        ),
        key=lambda t: (-len(preds[t]), t),
    )
    findings: list[Finding] = []
    for t in candidates[:MAX_FUNNEL_FINDINGS]:
        m, out = len(preds[t]), len(succs[t])
        findings.append(
            Finding(
                rule="V-PAT-FUNNEL",
                message=(
                    f"task {c.name[t]!r} joins {m} predecessors "
                    f"(graph mean fan-in {mean_in:.1f}) — the producer pays "
                    f"{m} edge creations at one spec and the task waits for "
                    "the slowest of all predecessors"
                ),
                tasks=(c.name[t],),
                iteration=c.iteration[t],
                rank=rank,
                hint=(
                    "reduce in a tree, or funnel through an inoutset group "
                    "so optimization (c) inserts a redirect node"
                ),
                data={
                    "indegree": m,
                    "outdegree": out,
                    "edges_flat": m * max(out, 1),
                    "edges_funnel": m + out,
                },
            )
        )
    return findings


# ======================================================================
# V-PAT-PRODBOUND
# ======================================================================
def _find_producer_bound_loops(
    tdg: StaticTDG,
    machine: MachineSpec,
    threads: int,
    costs: DiscoveryCosts,
    *,
    rank: int,
) -> list[Finding]:
    c = tdg.compiled
    exec_s = task_seconds(c, machine)
    by_loop: dict[int, list[int]] = defaultdict(list)
    for t in range(c.n_tasks):
        if not c.is_stub[t] and c.loop_id[t] >= 0:
            by_loop[c.loop_id[t]].append(t)

    findings: list[Finding] = []
    for loop in sorted(by_loop):
        tids = by_loop[loop]
        if len(tids) < PRODBOUND_MIN_TASKS:
            continue
        n_edges = sum(c.indegree[t] for t in tids)
        create = 0.0
        replay = 0.0
        for t in tids:
            spec = tdg.specs[t]
            assert spec is not None  # user rows always carry their spec
            create += costs.c_task + costs.c_dep * len(spec.depends)
            replay += costs.replay_cost(spec)
        create += costs.c_edge * n_edges
        capacity = sum(exec_s[t] for t in tids) / max(threads, 1)
        # Programs intern loop labels away; name the loop by its id and a
        # sample member task so the finding still points somewhere.
        sample = c.name[tids[0]]
        label = f"loop{loop}({sample}...)"
        mode = None
        serial = 0.0
        if create >= capacity:
            mode, serial = "discovery", create
        elif c.persistent and replay >= capacity:
            mode, serial = "replay", replay
        if mode is None:
            continue
        verb = (
            "discovering" if mode == "discovery" else "replaying (opt p)"
        )
        findings.append(
            Finding(
                rule="V-PAT-PRODBOUND",
                message=(
                    f"loop {label!r}: {verb} its {len(tids)} tasks costs the "
                    f"producer {serial * 1e6:.1f} us serially, but they give "
                    f"{threads} workers only {capacity * 1e6:.1f} us of "
                    "execution — this chain is producer bound"
                ),
                tasks=(label,),
                rank=rank,
                hint=(
                    "coarsen this loop's tasks (fewer tasks per loop) or "
                    "cut dependence addresses per task"
                ),
                data={
                    "loop": label,
                    "mode": mode,
                    "n_tasks": len(tids),
                    "n_edges": n_edges,
                    "serial_cost": serial,
                    "exec_capacity": capacity,
                    "threads": threads,
                },
            )
        )
    return findings


# ======================================================================
# V-PAT-STAIRCASE
# ======================================================================
def _find_staircases(
    tdg: StaticTDG, threads: int, *, rank: int
) -> list[Finding]:
    c = tdg.compiled
    widths: dict[int, int] = defaultdict(int)
    for t in range(c.n_tasks):
        if not c.is_stub[t]:
            widths[c.segment[t]] += 1
    if not widths:
        return []
    seq = [widths[s] for s in sorted(widths)]
    segments = sorted(widths)

    # In persistent mode the compiled graph is one template; the implicit
    # end-of-iteration barrier chains the template's segment sequence
    # n_iterations times.
    repeats = (
        tdg.program.n_iterations
        if c.persistent and len(tdg.program.iterations) > 1
        else 1
    )

    findings: list[Finding] = []
    run_start = None
    runs: list[tuple[int, int, int]] = []  # (start pos, length, max width)
    for pos, w in enumerate(seq + [threads]):  # sentinel ends the last run
        if w < threads:
            if run_start is None:
                run_start = pos
        elif run_start is not None:
            run = seq[run_start:pos]
            runs.append((run_start, len(run), max(run)))
            run_start = None

    for start, length, wmax in runs[:MAX_STAIRCASE_FINDINGS]:
        covers_all = length == len(seq)
        effective = length * repeats if covers_all else length
        if effective < STAIRCASE_MIN_SEGMENTS:
            continue
        if covers_all and repeats > 1:
            shape = (
                f"every segment of the persistent template is narrower than "
                f"{threads} threads and the implicit iteration barrier "
                f"repeats the staircase {repeats} times "
                f"({effective} serialized steps, max width {wmax})"
            )
        else:
            shape = (
                f"{length} consecutive barrier-delimited segments "
                f"(from segment {segments[start]}) are each narrower than "
                f"{threads} threads (max width {wmax})"
            )
        findings.append(
            Finding(
                rule="V-PAT-STAIRCASE",
                message=(
                    f"taskwait staircase: {shape} — the barriers serialize "
                    "execution regardless of discovery speed"
                ),
                rank=rank,
                hint=(
                    "drop taskwaits between independent phases, widen the "
                    "narrow phases, or let dependences (not barriers) order "
                    "the work"
                ),
                data={
                    "first_segment": segments[start],
                    "n_segments": length,
                    "effective_steps": effective,
                    "max_width": wmax,
                    "threads": threads,
                },
            )
        )
    return findings
