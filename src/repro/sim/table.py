"""Struct-of-arrays task storage — the TDG hot path and its only form.

Production runtimes store the TDG intrusively on task descriptors; at
simulation scale the analogous Python design (one object per task, 25
attribute slots) dominates the profile.  :class:`TaskTable` stores the same
state as parallel columns (plain Python lists indexed by ``tid``): creating
a task is a handful of appends, dependence bookkeeping is integer list
arithmetic, and a task *is* its row index — no object is ever
materialized per task, by the runtime, the static compile, the verifier or
the analysis layer.  This is the array-based layout of Álvarez et al.
(arXiv:2105.07902).

A row references what the program already holds instead of copying it:
its ``footprint`` is the spec's own entry tuple (readers take
``entry[0]`` and ``entry[1]``), its successor list is the shared empty
tuple until its first out-edge (most rows never get one: completed
predecessors are pruned), and its timestamps live unboxed in
``array('d')`` columns.  Successor lists are per-row Python lists of
``tid`` while the graph is being discovered (edges arrive against
arbitrary earlier rows, so a flat layout cannot be appended in order);
:meth:`build_csr` flattens them into the classic ``(offsets, targets)``
compressed-sparse-row pair once a graph is frozen — the layout the
persistent-replay loop and the analysis layer iterate.

Task states are the plain ints :data:`CREATED`, :data:`READY`,
:data:`RUNNING` and :data:`COMPLETED`; timestamps use NaN for "never".
"""

from __future__ import annotations

from array import array
from typing import Iterator

from repro.core.graph_stats import EdgeStats

#: Task lifecycle states: created with unsatisfied predecessors, ready in
#: a scheduler queue, running on a worker (or waiting on a detached MPI
#: request or device kernel), completed.
CREATED, READY, RUNNING, COMPLETED = 0, 1, 2, 3

_NAN = float("nan")


class TaskTable:
    """Columnar task storage plus edge accounting for one TDG.

    All columns are aligned: row ``tid`` across every list is one task.
    The mutable scheduling state (``state``, ``npred``, ``armed``, ...)
    and the immutable identity/cost fields live side by side.
    """

    __slots__ = (
        "name", "loop_id", "iteration", "flops", "footprint",
        "fp_bytes", "comm", "body",
        "state", "npred", "presat", "npred_initial",
        "succs", "last_succ",
        "priority", "device", "is_stub", "armed",
        "started_at", "completed_at",
        "persistent", "prune_completed", "stats",
    )

    def __init__(self, *, persistent: bool = False):
        self.name: list[str] = []
        self.loop_id: list[int] = []
        self.iteration: list[int] = []
        self.flops: list[float] = []
        #: The spec's own footprint tuple: ``(chunk, bytes)`` or
        #: ``(chunk, bytes, mode)`` entries (memory-model input).
        self.footprint: list[tuple] = []
        self.fp_bytes: list[int] = []
        self.comm: list[object] = []
        self.body: list[object] = []
        self.state: list[int] = []
        #: Unsatisfied predecessor count (edge multiplicity included: a
        #: duplicate edge is released once per copy).
        self.npred: list[int] = []
        #: Persistent graphs: edges towards predecessors already completed
        #: at discovery time — materialized for later iterations but
        #: satisfied for the current one, so never counted in ``npred``.
        self.presat: list[int] = []
        #: Predecessor count at the end of discovery — what a persistent
        #: re-arm restores ``npred`` to.
        self.npred_initial: list[int] = []
        #: Successor tids per row (flattened on demand by build_csr): the
        #: empty tuple until the row's first out-edge makes it a list, so
        #: add edges only through :meth:`add_edge` (or the resolver).
        self.succs: list[list[int] | tuple[()]] = []
        #: Most recent successor an edge was created towards (-1: none).
        #: Sequential submission makes duplicate-edge detection O(1).
        self.last_succ: list[int] = []
        #: Scheduled ahead of ordinary ready tasks (communication path).
        self.priority: list[bool] = []
        #: Executes on the simulated accelerator (see repro.accel).
        self.device: list[bool] = []
        self.is_stub: list[bool] = []
        #: Set once the producer finished creating (or re-instancing) the
        #: task; readiness is only actioned for armed tasks.
        self.armed: list[bool] = []
        #: Unboxed timestamps (NaN: never).
        self.started_at = array("d")
        self.completed_at = array("d")
        self.persistent = persistent
        #: Persistent graphs must create every edge — pruning would lose
        #: constraints needed by later iterations (§3.2).
        self.prune_completed = not persistent
        self.stats = EdgeStats()

    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self.state)

    def __len__(self) -> int:
        return len(self.state)

    # ------------------------------------------------------------------
    def new(
        self,
        name: str = "",
        *,
        loop_id: int = -1,
        iteration: int = 0,
        flops: float = 0.0,
        footprint=(),
        fp_bytes: int = 0,
        comm=None,
        body=None,
        is_stub: bool = False,
    ) -> int:
        """Allocate one task row; returns its ``tid``.

        ``footprint`` accepts the mixed 2/3-tuple form of
        :func:`repro.core.task.split_footprint` and is normalized to
        ``(chunk, bytes)`` 2-tuples; hot paths that hold a spec's
        footprint should pass it as is to :meth:`new_fast`.
        """
        from repro.core.task import split_footprint

        return self.new_fast(
            name, loop_id, iteration, flops, split_footprint(footprint)[0],
            fp_bytes, comm, body, is_stub,
        )

    def new_fast(
        self,
        name: str,
        loop_id: int,
        iteration: int,
        flops: float,
        footprint: tuple,
        fp_bytes: int,
        comm,
        body,
        is_stub: bool = False,
    ) -> int:
        """Positional fast path: ``footprint`` is stored as given (the
        spec's own 2- or 3-tuple entries, not a copy)."""
        tid = len(self.state)
        self.name.append(name)
        self.loop_id.append(loop_id)
        self.iteration.append(iteration)
        self.flops.append(flops)
        self.footprint.append(footprint)
        self.fp_bytes.append(fp_bytes)
        self.comm.append(comm)
        self.body.append(body)
        self.state.append(CREATED)
        self.npred.append(0)
        self.presat.append(0)
        self.npred_initial.append(0)
        self.succs.append(())
        self.last_succ.append(-1)
        self.priority.append(False)
        self.device.append(False)
        self.is_stub.append(is_stub)
        self.armed.append(False)
        self.started_at.append(_NAN)
        self.completed_at.append(_NAN)
        return tid

    def new_stub(self, name: str = "redirect") -> int:
        """Allocate an empty redirect node (optimization (c))."""
        tid = self.new_fast(name, -1, 0, 0.0, (), 0, None, None, True)
        self.stats.redirect_nodes += 1
        return tid

    # ------------------------------------------------------------------
    def add_edge(self, pred: int, succ: int, *, dedup: bool) -> bool:
        """Record the precedence constraint ``pred -> succ``.

        Returns True if an edge was materialized.  With ``dedup`` (opt (b))
        a duplicate of the immediately preceding edge out of ``pred`` is
        skipped in O(1) — sequential submission guarantees any duplicate
        edge towards ``succ`` is adjacent in ``pred``'s creation order.
        """
        if pred == succ:
            return False
        stats = self.stats
        if self.last_succ[pred] == succ:
            if dedup:
                stats.duplicates_skipped += 1
                return False
            stats.duplicates_created += 1
        if self.state[pred] == COMPLETED:
            if self.prune_completed:
                # The predecessor was consumed before this task was
                # discovered: no constraint is needed (and none can be
                # expressed — the task descriptor may already be recycled).
                stats.pruned += 1
                return False
            # Persistent graph: the edge must exist for future iterations,
            # but it is already satisfied for the current one.
            self.presat[succ] += 1
        else:
            self.npred[succ] += 1
        succ_list = self.succs[pred]
        if succ_list:
            succ_list.append(succ)
        else:
            self.succs[pred] = [succ]
        self.last_succ[pred] = succ
        stats.created += 1
        return True

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield materialized ``(pred, succ)`` tids (with multiplicity)."""
        for pred, succ_list in enumerate(self.succs):
            for succ in succ_list:
                yield pred, succ

    @property
    def n_edges(self) -> int:
        return self.stats.created

    # ------------------------------------------------------------------
    def build_csr(self) -> tuple[list[int], list[int]]:
        """Flatten successor lists to a CSR ``(offsets, targets)`` pair.

        ``targets[offsets[tid]:offsets[tid + 1]]`` are ``tid``'s successor
        tids in edge-creation order.  Call once the graph is frozen (end
        of discovery / persistent template complete); the flat layout is
        what replay iterations and the analysis layer should walk.
        """
        offsets = [0] * (len(self.succs) + 1)
        targets: list[int] = []
        extend = targets.extend
        total = 0
        for tid, succ_list in enumerate(self.succs):
            total += len(succ_list)
            offsets[tid + 1] = total
            extend(succ_list)
        return offsets, targets

    # ------------------------------------------------------------------
    def reset_for_replay(self) -> None:
        """Re-arm every task for the next persistent iteration.

        Only the dynamic execution state is cleared; the successor lists —
        the expensive part of discovery — are kept, which is exactly the
        saving the persistent TDG extension provides.  Columns are reset
        by whole-column slice assignment (in place, so references held by
        the runtime stay valid) — the bulk-array re-arm of the compiled
        TDG layer, ~5n Python-level stores cheaper than a per-row loop.
        """
        n = len(self.state)
        self.state[:] = [CREATED] * n
        self.npred[:] = self.npred_initial
        never = array("d", [_NAN]) * n
        self.started_at[:] = never
        self.completed_at[:] = never
        self.armed[:] = [False] * n
