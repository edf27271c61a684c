"""Persistence-safety: is caching the TDG across iterations sound? (§3.2)

Optimization (p) replays the first iteration's graph for every later
iteration, so it is sound exactly when every iteration submits the same
tasks with the same dependences in the same order (and the same ``taskwait``
positions).  The runtime checks this *during* the run and raises
:class:`~repro.core.persistent.PersistentStructureError` mid-simulation;
this pass proves or refutes it *before* any run.  Both call
:func:`~repro.core.persistent.first_divergence`, so the finding names the
same first structural divergence, in the same words, as the runtime error:

``V-PTSG-UNSAFE``
    The program is marked ``persistent_candidate`` but an iteration
    diverges from the template — enabling opt (p) would abort (or worse,
    silently compute with stale dependences on a runtime without the
    guard).

``V-PTSG-MISSED``
    Every iteration is structurally identical but persistence is not
    enabled (not a candidate, or opt (p) off): the program forgoes the
    paper's ~15x discovery saving for free.
"""

from __future__ import annotations

from typing import Optional

from repro.core.optimizations import OptimizationSet
from repro.core.persistent import first_divergence
from repro.core.program import Program
from repro.runtime.costs import DiscoveryCosts
from repro.verify.findings import Finding


def check_persistence(
    program: Program,
    opts: OptimizationSet,
    *,
    costs: Optional[DiscoveryCosts] = None,
) -> list[Finding]:
    """Prove or refute iteration-structure invariance for opt (p)."""
    if program.n_iterations < 2:
        return []
    template = program.iterations[0]
    divergence: Optional[tuple[int, str]] = None
    # Iterations sharing the template's spec list (Program.from_template)
    # are identical by construction — skip the quadratic compare.
    for it in program.iterations[1:]:
        if it.tasks is template.tasks:
            continue
        why = first_divergence(template, it)
        if why is not None:
            divergence = (it.index, why)
            break

    if divergence is not None:
        if program.persistent_candidate:
            it_index, why = divergence
            return [
                Finding(
                    rule="V-PTSG-UNSAFE",
                    message=(
                        "program is marked persistent_candidate but "
                        f"iteration {it_index} diverges from the template: "
                        f"{why}"
                    ),
                    iteration=it_index,
                    hint=(
                        "drop the ptsg annotation, or restructure the loop "
                        "so every iteration submits identical tasks and "
                        "dependences"
                    ),
                    data={"iteration": it_index, "divergence": why},
                )
            ]
        return []  # varying structure, persistence not claimed: nothing to say

    if program.persistent_candidate and opts.p:
        return []  # sound and enabled
    # Structure is provably invariant: persistence is being left on the table.
    data: dict = {"iterations": program.n_iterations}
    hint = (
        "mark the program persistent_candidate and enable optimization (p)"
        if not program.persistent_candidate
        else "enable optimization (p) — the structure is provably invariant"
    )
    if costs is not None:
        n_tasks = sum(1 for s in template.tasks if not s.barrier)
        replay = sum(
            costs.replay_cost(s) for s in template.tasks if not s.barrier
        )
        data["template_tasks"] = n_tasks
        data["replay_cost_per_iteration"] = replay
    return [
        Finding(
            rule="V-PTSG-MISSED",
            message=(
                f"all {program.n_iterations} iterations are structurally "
                "identical; the persistent task sub-graph (opt p) is sound "
                "but not enabled"
            ),
            hint=hint,
            data=data,
        )
    ]
