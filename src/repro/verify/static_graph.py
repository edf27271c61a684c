"""Static TDG discovery: resolve a program's dependences without the DES.

The verification passes need the *graph* the runtime would discover — but
not the timing of its execution.  The discovery itself lives in
:func:`repro.core.compiled.compile_program`: one static walk through the
production :class:`~repro.core.dependences.DependenceResolver` that
freezes the result into a :class:`~repro.core.compiled.CompiledTDG` — the
graph a persistent or non-overlapped DES run discovers, byte for byte.
Static-vs-DES edge equality is therefore equality *by construction*: both
layers read one compiled graph, neither maintains a shadow.

This module keeps the verify-facing view: a task is a compiled row
(``tid``), whose name, iteration and segment are read straight off the
artifact's columns, and :class:`StaticTDG` adds the originating
:class:`~repro.core.program.TaskSpec` per tid plus the happens-before
relation the race detector queries — barrier *segments* (``taskwait``
markers and persistent-iteration boundaries order whole submission
prefixes) refined by graph reachability within a segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.compiled import CompiledTDG, compile_program
from repro.core.optimizations import OptimizationSet
from repro.core.program import Program, TaskSpec
from repro.runtime.costs import DiscoveryCosts


@dataclass
class StaticTDG:
    """A statically discovered task dependency graph.

    A thin verify-layer view over one :attr:`compiled` artifact: every
    task is a compiled row ``tid``.
    """

    program: Program
    #: The frozen CSR artifact all layers share.
    compiled: CompiledTDG
    #: The originating spec per tid; ``None`` for redirect stubs.
    specs: list[Optional[TaskSpec]]
    #: Predicted producer busy seconds per iteration (empty without costs).
    iteration_costs: list[float]
    _ancestors: Optional[list[int]] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def ancestors(self) -> list[int]:
        """Per-tid ancestor sets as bitmasks over tids.

        ``ancestors()[i] >> j & 1`` says task *j* is a (transitive) graph
        predecessor of task *i*.  Computed once by OR-ing masks along the
        artifact's :attr:`~repro.core.compiled.CompiledTDG.topo_order`
        (tid order is *not* topological: a redirect stub's tid exceeds the
        reader it feeds); duplicate edges are harmless for OR.
        """
        if self._ancestors is not None:
            return self._ancestors
        c = self.compiled
        offsets, targets = c.succ_offsets, c.succ_targets
        anc = [0] * c.n_tasks
        for i in c.topo_order:
            mask = anc[i] | (1 << i)
            for j in targets[offsets[i]:offsets[i + 1]]:
                anc[j] |= mask
        self._ancestors = anc
        return anc

    def happens_before(self, a: int, b: int) -> bool:
        """Whether task ``a`` is guaranteed to complete before ``b`` starts."""
        segment = self.compiled.segment
        if segment[a] != segment[b]:
            return segment[a] < segment[b]
        return bool(self.ancestors()[b] >> a & 1)

    def ordered(self, a: int, b: int) -> bool:
        """Whether tasks ``a`` and ``b`` are ordered either way."""
        return self.happens_before(a, b) or self.happens_before(b, a)


def _iteration_costs(
    program: Program, compiled: CompiledTDG, costs: DiscoveryCosts
) -> list[float]:
    """Producer busy seconds per iteration under ``costs``.

    A resolved iteration costs its tasks' creation costs, summed in tid
    order; a replayed persistent iteration only its firstprivate copies.
    Stubs cost nothing, so they are skipped.
    """
    creation = compiled.creation_costs(costs)
    user = iter(compiled.user_tids)
    out: list[float] = []
    for it in program.iterations:
        if compiled.persistent and it.index > 0:
            out.append(
                sum(costs.replay_cost(s) for s in it.tasks if not s.barrier)
            )
            continue
        it_cost = 0.0
        for spec in it.tasks:
            if not spec.barrier:
                it_cost += creation[next(user)]
        out.append(it_cost)
    return out


def discover_static(
    program: Program,
    opts: OptimizationSet,
    *,
    costs: Optional[DiscoveryCosts] = None,
) -> StaticTDG:
    """Statically discover ``program``'s TDG under ``opts``.

    ``costs`` enables the per-iteration discovery-time prediction (the same
    :class:`~repro.runtime.costs.DiscoveryCosts` the runtime charges).
    """
    compiled = compile_program(program, opts)
    iterations = program.iterations
    return StaticTDG(
        program=program,
        compiled=compiled,
        specs=[
            iterations[it].tasks[pos] if pos >= 0 else None
            for it, pos in zip(compiled.iteration, compiled.spec_pos)
        ],
        iteration_costs=(
            _iteration_costs(program, compiled, costs) if costs is not None else []
        ),
    )
