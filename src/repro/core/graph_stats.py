"""Edge accounting and shape metrics over frozen TDGs.

:class:`EdgeStats` holds the counters every discovery reports — the
struct-of-arrays storage (:mod:`repro.sim.table`) updates them and the
compiled artifact carries a copy.  The shape metrics
(:func:`shape_from_csr`, :func:`width_profile_from_csr`) operate on the
compiled CSR ``(offsets, targets)`` pair directly — the representation
every frozen graph (:class:`~repro.core.compiled.CompiledTDG`,
:meth:`~repro.sim.table.TaskTable.build_csr`) already holds — so depth,
critical path and average parallelism need no per-task objects and no
external graph library.

:func:`topological_order` is the one place that decides which order of a
frozen graph is topological; every sequential pass over a CSR walks its
result (cached per artifact as
:attr:`~repro.core.compiled.CompiledTDG.topo_order`): the shape metrics,
the critical path and the static verifier.  The analytic tier needs no
order: it relaxes the CSR frontier by frontier in numpy
(:func:`repro.sim.tiers._segment_spans`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(slots=True)
class EdgeStats:
    """Counters over one discovery (matching Table 2's columns)."""

    #: Edges materialized into successor lists (paper: "n° of edges").
    created: int = 0
    #: Edges skipped because the predecessor had already completed and the
    #: graph is not persistent (the automatic pruning of §3.3).
    pruned: int = 0
    #: Duplicate edges removed by optimization (b).
    duplicates_skipped: int = 0
    #: Duplicate edges that were materialized because opt (b) was off.
    duplicates_created: int = 0
    #: Empty redirect nodes inserted by optimization (c).
    redirect_nodes: int = 0

    def to_dict(self) -> dict:
        """JSON-ready dict; inverse of :meth:`from_dict`."""
        from repro.util.serde import flat_to_dict

        return flat_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EdgeStats":
        from repro.util.serde import flat_from_dict

        return flat_from_dict(cls, data)

    def merge(self, other: "EdgeStats") -> None:
        self.created += other.created
        self.pruned += other.pruned
        self.duplicates_skipped += other.duplicates_skipped
        self.duplicates_created += other.duplicates_created
        self.redirect_nodes += other.redirect_nodes


# ======================================================================
# shape metrics over CSR graphs
# ======================================================================
@dataclass(frozen=True, slots=True)
class GraphShape:
    """Summary shape metrics of a discovered TDG."""

    n_tasks: int
    #: Distinct edges (duplicate/multiplicity folded, as a DiGraph would).
    n_edges: int
    #: Longest path length in tasks (depth of the DAG).
    depth: int
    #: Total weight along the weighted critical path.
    critical_path_weight: float
    #: Total weight over all tasks.
    total_weight: float
    #: total / critical-path weight: the graph's average parallelism —
    #: an upper bound on speedup (Brent's bound).
    avg_parallelism: float

    def __str__(self) -> str:
        return (
            f"tasks={self.n_tasks} edges={self.n_edges} depth={self.depth} "
            f"T1={self.total_weight:.4g} Tinf={self.critical_path_weight:.4g} "
            f"avg-parallelism={self.avg_parallelism:.1f}"
        )


def topological_order(
    offsets: Sequence[int], targets: Sequence[int]
) -> list[int]:
    """The topological order every sequential pass over a frozen TDG walks.

    FIFO Kahn over the CSR ``(offsets, targets)`` pair: sources in tid
    order, then successors as their last predecessor is dequeued.  Tid
    (creation) order is *not* topological under optimization (c): a
    redirect stub is created while its reader's ``depend`` clauses are
    resolved, so its tid exceeds the reader's.  A duplicate edge counts
    once per copy towards the in-degree and is released once per copy.
    Raises ``ValueError`` on a cycle.
    """
    n = len(offsets) - 1
    indeg = [0] * n
    for s in targets:
        indeg[s] += 1
    order = [t for t in range(n) if indeg[t] == 0]
    append = order.append
    for t in order:  # the list is the FIFO queue: appends are visited too
        for s in targets[offsets[t]:offsets[t + 1]]:
            indeg[s] -= 1
            if indeg[s] == 0:
                append(s)
    if len(order) != n:
        raise ValueError("CSR graph contains a cycle")
    return order


def _levels(
    offsets: Sequence[int], targets: Sequence[int], order: Sequence[int]
) -> list[int]:
    """Per-node depth in tasks (sources at 1) along ``order``."""
    level = [1] * (len(offsets) - 1)
    for t in order:
        nl = level[t] + 1
        for s in targets[offsets[t]:offsets[t + 1]]:
            if nl > level[s]:
                level[s] = nl
    return level


def shape_from_csr(
    offsets: Sequence[int],
    targets: Sequence[int],
    weights: Sequence[float],
    order: Optional[Sequence[int]] = None,
) -> GraphShape:
    """Shape metrics of a CSR graph along its topological order.

    ``targets[offsets[t]:offsets[t + 1]]`` are ``t``'s successors;
    duplicate edges are harmless for depth/span (max over predecessors)
    and are folded out of :attr:`GraphShape.n_edges`.  ``weights`` is the
    per-node cost, aligned by node index.  ``order`` is the graph's
    :func:`topological_order` when the caller already holds it (e.g.
    :attr:`~repro.core.compiled.CompiledTDG.topo_order`).
    """
    n = len(offsets) - 1
    if n <= 0:
        return GraphShape(0, 0, 0, 0.0, 0.0, 0.0)
    if order is None:
        order = topological_order(offsets, targets)
    #: Longest weighted path *ending at* each node's predecessors.
    pred_span = [0.0] * n
    tinf = 0.0
    unique = 0
    for t in order:
        span = pred_span[t] + weights[t]
        if span > tinf:
            tinf = span
        succ = targets[offsets[t]:offsets[t + 1]]
        unique += len(set(succ))
        for s in succ:
            if span > pred_span[s]:
                pred_span[s] = span
    total = sum(weights)
    return GraphShape(
        n_tasks=n,
        n_edges=unique,
        depth=max(_levels(offsets, targets, order)),
        critical_path_weight=tinf,
        total_weight=total,
        avg_parallelism=(total / tinf) if tinf > 0 else 0.0,
    )


def width_profile_from_csr(
    offsets: Sequence[int], targets: Sequence[int], order: Sequence[int]
) -> list[int]:
    """Tasks per depth level — the breadth the scheduler could exploit.

    ``order`` is the graph's :func:`topological_order` (e.g.
    :attr:`~repro.core.compiled.CompiledTDG.topo_order`).
    """
    level = _levels(offsets, targets, order)
    out = [0] * max(level, default=0)
    for lv in level:
        out[lv - 1] += 1
    return out
