"""Task Dependency Graph facade over the struct-of-arrays task table.

The TDG itself lives in a :class:`~repro.sim.table.TaskTable` (parallel
columns for state, predecessor counters, successor lists) — that is what
the simulated runtimes manipulate.  :class:`TaskGraph` is the object-level
facade: it deals in :class:`~repro.core.task.Task` views and owns the
*accounting* the paper reports — edges created, duplicate edges skipped by
optimization (b), edges pruned because the predecessor was already
consumed, and redirect nodes inserted by optimization (c).
"""

from __future__ import annotations

from typing import Iterator, Union

from repro.core.graph_stats import EdgeStats, topological_order
from repro.core.task import Task
from repro.sim.table import TaskTable

__all__ = ["EdgeStats", "TaskGraph"]


class TaskGraph:
    """A TDG under construction or replay.

    Owns task identity allocation and the edge counters; the dependence
    resolver calls :meth:`add_edge` for every precedence constraint it
    finds.  ``add_edge`` accepts both :class:`Task` views and raw tids —
    the hot path passes tids and never materializes views.
    """

    def __init__(self, *, persistent: bool = False, prune_completed: bool = True):
        self.table = TaskTable(persistent=persistent, prune_completed=prune_completed)

    # ------------------------------------------------------------------
    @property
    def tasks(self) -> list[Task]:
        """All tasks in creation order (including redirect stubs)."""
        return self.table.views()

    @property
    def persistent(self) -> bool:
        return self.table.persistent

    @property
    def prune_completed(self) -> bool:
        return self.table.prune_completed

    @property
    def stats(self) -> EdgeStats:
        return self.table.stats

    # ------------------------------------------------------------------
    def new_task(self, **kwargs) -> Task:
        """Allocate a task with a fresh id and register it."""
        return self.table.view(self.table.new(**kwargs))

    def new_stub(self, name: str = "redirect") -> Task:
        """Allocate an empty redirect node (optimization (c))."""
        return self.table.view(self.table.new_stub(name))

    # ------------------------------------------------------------------
    def add_edge(
        self,
        pred: Union[Task, int],
        succ: Union[Task, int],
        *,
        dedup: bool,
    ) -> bool:
        """Record the precedence constraint ``pred -> succ``.

        Returns True if an edge was materialized.  With ``dedup`` (opt (b))
        a duplicate of the immediately preceding edge out of ``pred`` is
        skipped in O(1) — sequential submission guarantees any duplicate
        edge towards ``succ`` is adjacent in ``pred``'s creation order.
        """
        if type(pred) is not int:
            pred = pred._i
        if type(succ) is not int:
            succ = succ._i
        return self.table.add_edge(pred, succ, dedup=dedup)

    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self.table)

    @property
    def n_edges(self) -> int:
        return self.table.stats.created

    def iter_edges(self) -> Iterator[tuple[Task, Task]]:
        """Yield materialized edges (with multiplicity) in creation order."""
        view = self.table.view
        for t, s in self.table.iter_edges():
            yield view(t), view(s)

    # ------------------------------------------------------------------
    def reset_for_replay(self) -> None:
        """Re-arm every task for the next persistent iteration."""
        self.table.reset_for_replay()

    def validate_acyclic(self) -> None:
        """Raise ``ValueError`` if the materialized graph has a cycle.

        Sequential submission makes cycles impossible (every edge points
        at the task being resolved or at a redirect stub it just created),
        even though tid order is not topological once stubs exist; this is
        a debugging invariant used by the test-suite, not a hot path.
        """
        topological_order(*self.table.build_csr())
