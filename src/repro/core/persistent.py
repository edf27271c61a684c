"""Persistent Task Sub-Graph (PTSG) — optimization (p), §3.2.

On the first iteration of an annotated loop the runtime discovers the TDG as
usual but marks tasks persistent (never destroyed on completion) and creates
*every* edge — no pruning, since edges are not recreated on later iterations.
On subsequent iterations the producer only copies each task's firstprivate
data (8–100 bytes in LULESH); dependence processing, descriptor allocation
and ICV management are skipped entirely.  An implicit barrier at the end of
each iteration guarantees all tasks completed before being re-armed, which
also removes inter-iteration edges (the resolver is reset at the barrier).

The cached graph is the runtime's :class:`~repro.sim.table.TaskTable`
itself, re-armed by :meth:`~repro.sim.table.TaskTable.reset_for_replay`.
Replaying it is sound only while every iteration keeps the template's
structure; :func:`first_divergence` is the one check of that, shared by the
runtime (which raises :class:`PersistentStructureError` at the barrier) and
the static verifier (:mod:`repro.verify.persistence`, rule
``V-PTSG-UNSAFE``), so both report the same divergence in the same words.
"""

from __future__ import annotations

from typing import Optional

from repro.core.program import IterationSpec, TaskSpec


class PersistentStructureError(RuntimeError):
    """An iteration's task structure diverged from the cached graph.

    The persistent TDG assumes dependences constant over iterations (§3.2
    "Applicability"); a mesh refinement between iterations would raise this,
    signalling that the graph must be rediscovered.
    """


def _signature(spec: TaskSpec) -> tuple:
    """Structural identity of a task spec for replay validation.

    firstprivate payloads and bodies may change between iterations (that is
    the point of the extension); names, loop ids and dependences may not.
    """
    return (spec.name, spec.loop_id, spec.depends)


def first_divergence(
    template: IterationSpec, iteration: IterationSpec
) -> Optional[str]:
    """Describe the first structural divergence from ``template``, if any.

    ``taskwait`` markers create no tasks, but their *positions* are part
    of the structure.
    """
    ref_barriers = [i for i, s in enumerate(template.tasks) if s.barrier]
    got_barriers = [i for i, s in enumerate(iteration.tasks) if s.barrier]
    if ref_barriers != got_barriers:
        return (
            f"taskwait positions changed: {got_barriers} vs template "
            f"{ref_barriers}"
        )
    ref = [s for s in template.tasks if not s.barrier]
    got = [s for s in iteration.tasks if not s.barrier]
    if len(got) != len(ref):
        return (
            f"submits {len(got)} tasks where the template submits {len(ref)}"
        )
    for pos, (g, r) in enumerate(zip(got, ref)):
        if _signature(g) != _signature(r):
            if g.name != r.name:
                what = f"task name {g.name!r} vs {r.name!r}"
            elif g.depends != r.depends:
                what = f"task {g.name!r}: depend clauses changed"
            else:
                what = f"task {g.name!r}: loop id changed"
            return f"position {pos}: {what}"
    return None
