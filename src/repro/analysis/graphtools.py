"""TDG shape analytics over the compiled CSR representation.

The paper reasons about the *shape* of the discovered graph — its depth
(the critical path the depth-first scheduler descends), its width (how much
parallelism throttling may hide), and its average parallelism.  These
helpers take a frozen :class:`~repro.core.compiled.CompiledTDG` (from
:func:`~repro.core.compiled.compile_program`) and compute every metric on
its CSR ``(offsets, targets)`` pair along its cached
:attr:`~repro.core.compiled.CompiledTDG.topo_order`
(:func:`repro.core.graph_stats.shape_from_csr`,
:func:`~repro.core.graph_stats.width_profile_from_csr`).  :mod:`networkx` is only
materialized on demand (:func:`to_networkx`) for callers that want the
ecosystem, never for the metrics themselves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.compiled import CompiledTDG
from repro.core.graph_stats import (
    GraphShape,
    shape_from_csr,
    width_profile_from_csr,
)

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "GraphShape",
    "analyze_shape",
    "to_networkx",
    "width_profile",
]


def to_networkx(graph: CompiledTDG) -> nx.DiGraph:
    """Materialize the TDG as a ``networkx.DiGraph``.

    Nodes are task ids with attributes ``name``, ``loop``, ``flops`` and
    ``stub``; redirect stubs stay in, since they carry the ordering
    between an ``inoutset`` group and its readers.  Parallel (duplicate)
    edges collapse — use the graph's own
    :class:`~repro.core.graph_stats.EdgeStats` for multiplicity accounting.
    """
    import networkx as nx

    offsets, targets = graph.succ_offsets, graph.succ_targets
    g = nx.DiGraph()
    for tid in range(graph.n_tasks):
        g.add_node(
            tid, name=graph.name[tid], loop=graph.loop_id[tid],
            flops=graph.flops[tid], stub=graph.is_stub[tid],
        )
    for pred in range(graph.n_tasks):
        for succ in targets[offsets[pred]:offsets[pred + 1]]:
            g.add_edge(pred, succ)
    return g


def analyze_shape(
    graph: CompiledTDG, *, weight: Optional[Sequence[float]] = None
) -> GraphShape:
    """Compute the shape metrics of a TDG.

    ``weight`` is the per-tid cost (default: ``flops``, with stubs at
    zero); ``T1/Tinf`` is the classic work/span ratio.
    """
    if weight is None:
        weights = [0.0 if s else float(f) for s, f in zip(graph.is_stub, graph.flops)]
    else:
        weights = [float(w) for w in weight]
    return shape_from_csr(
        graph.succ_offsets, graph.succ_targets, weights, graph.topo_order
    )


def width_profile(graph: CompiledTDG) -> list[int]:
    """Tasks per depth level — the breadth the scheduler could exploit."""
    return width_profile_from_csr(
        graph.succ_offsets, graph.succ_targets, graph.topo_order
    )
