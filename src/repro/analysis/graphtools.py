"""TDG shape analytics over the compiled CSR representation.

The paper reasons about the *shape* of the discovered graph — its depth
(the critical path the depth-first scheduler descends), its width (how much
parallelism throttling may hide), and its average parallelism.  These
helpers accept either a live :class:`~repro.core.graph.TaskGraph` (flattened
through :meth:`~repro.sim.table.TaskTable.build_csr`) or a frozen
:class:`~repro.core.compiled.CompiledTDG`, and compute every metric on the
CSR ``(offsets, targets)`` pair directly
(:func:`repro.core.graph_stats.shape_from_csr`).  :mod:`networkx` is only
materialized on demand (:func:`to_networkx`) for callers that want the
ecosystem, never for the metrics themselves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence, Union

from repro.core.compiled import CompiledTDG
from repro.core.graph import TaskGraph
from repro.core.graph_stats import (
    GraphShape,
    shape_from_csr,
    width_profile_from_csr,
)
from repro.core.task import Task

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "GraphShape",
    "analyze_shape",
    "to_networkx",
    "width_profile",
]

AnyGraph = Union[TaskGraph, CompiledTDG]


def _csr_of(graph: AnyGraph) -> tuple[Sequence[int], Sequence[int]]:
    """The ``(offsets, targets)`` pair of either graph representation."""
    if isinstance(graph, CompiledTDG):
        return graph.succ_offsets, graph.succ_targets
    return graph.table.build_csr()


def _weights_of(
    graph: AnyGraph,
    weight: Union[Callable[[Task], float], Sequence[float], None],
) -> list[float]:
    """Per-node weights aligned by tid.

    ``weight`` may be a per-:class:`Task` callable (materializes views; only
    supported for a :class:`TaskGraph`), a ready-made per-tid sequence, or
    None for the default ``flops`` (stubs at zero).
    """
    if weight is None:
        if isinstance(graph, CompiledTDG):
            is_stub, flops = graph.is_stub, graph.flops
        else:
            is_stub, flops = graph.table.is_stub, graph.table.flops
        return [0.0 if s else float(f) for s, f in zip(is_stub, flops)]
    if callable(weight):
        if isinstance(graph, CompiledTDG):
            raise TypeError(
                "per-Task weight callables need a TaskGraph; pass a "
                "per-tid weight sequence for a CompiledTDG"
            )
        return [weight(t) for t in graph.tasks]
    return [float(w) for w in weight]


def to_networkx(graph: AnyGraph, *, include_stubs: bool = True) -> nx.DiGraph:
    """Materialize the TDG as a ``networkx.DiGraph``.

    Nodes are task ids with attributes ``name``, ``loop``, ``flops`` and
    ``stub``; parallel (duplicate) edges collapse — use the graph's own
    :class:`~repro.core.graph.EdgeStats` for multiplicity accounting.
    """
    import networkx as nx

    if isinstance(graph, CompiledTDG):
        name, loop_id = graph.name, graph.loop_id
        flops, is_stub = graph.flops, graph.is_stub
    else:
        tb = graph.table
        name, loop_id, flops, is_stub = tb.name, tb.loop_id, tb.flops, tb.is_stub
    offsets, targets = _csr_of(graph)
    g = nx.DiGraph()
    for tid in range(len(offsets) - 1):
        if is_stub[tid] and not include_stubs:
            continue
        g.add_node(
            tid, name=name[tid], loop=loop_id[tid],
            flops=flops[tid], stub=is_stub[tid],
        )
    for pred in range(len(offsets) - 1):
        if not include_stubs and is_stub[pred]:
            continue
        for succ in targets[offsets[pred]:offsets[pred + 1]]:
            if not include_stubs and is_stub[succ]:
                continue
            g.add_edge(pred, succ)
    return g


def analyze_shape(
    graph: AnyGraph,
    *,
    weight: Union[Callable[[Task], float], Sequence[float], None] = None,
) -> GraphShape:
    """Compute the shape metrics of a TDG.

    ``weight`` maps a task to its cost (default: ``flops``, with stubs at
    zero); ``T1/Tinf`` is the classic work/span ratio.
    """
    offsets, targets = _csr_of(graph)
    return shape_from_csr(offsets, targets, _weights_of(graph, weight))


def width_profile(graph: AnyGraph) -> list[int]:
    """Tasks per depth level — the breadth the scheduler could exploit."""
    offsets, targets = _csr_of(graph)
    return width_profile_from_csr(offsets, targets)
