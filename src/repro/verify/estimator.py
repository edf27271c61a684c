"""Discovery-cost prediction from the compiled TDG (rule ``V-DISC-BOUND``).

The paper's Fig. 1 shows the failure mode this pass predicts: as tasks per
loop (TPL) grow, single-producer discovery time grows with the task and
edge counts while per-task execution shrinks, until the run is *discovery
bound* — workers starve behind the producer.  The estimator compiles the
program (:func:`~repro.verify.static_graph.discover_static`, backed by
:func:`~repro.core.compiled.compile_program`) and charges the same
:class:`~repro.runtime.costs.DiscoveryCosts` the DES charges, so the
predicted edge counts are exact (no task completes during static
discovery, hence no pruning — the counts equal a persistent-mode or
non-overlapped DES run).  Execution is estimated from the compiled CSR
arrays (:func:`~repro.core.graph_stats.shape_from_csr`) as Brent's bound
``max(T1 / threads, Tinf)``, with per-task weight
``flops / flops_per_core + fp_bytes / dram_bw`` read straight off the
artifact's columns — no per-task objects are materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.compiled import CompiledTDG
from repro.core.graph_stats import shape_from_csr
from repro.core.optimizations import OptimizationSet
from repro.core.program import Program
from repro.memory.machine import MachineSpec
from repro.runtime.costs import DiscoveryCosts
from repro.verify.findings import Finding
from repro.verify.static_graph import StaticTDG, discover_static


@dataclass(frozen=True)
class DiscoveryEstimate:
    """Predicted discovery and execution behaviour of one program."""

    program: str
    opts: str
    persistent: bool
    threads: int
    #: Graph size (stubs are opt-(c) redirect nodes, not user tasks).
    n_tasks: int
    n_stubs: int
    #: Edge counters exactly as a DES run would report them.
    edges_created: int
    edges_duplicates_skipped: int
    edges_duplicates_created: int
    redirect_nodes: int
    #: Producer busy seconds: first (template) iteration, steady-state
    #: iteration, and the whole program.
    first_iteration_cost: float
    steady_iteration_cost: float
    discovery_total: float
    #: Shape of the discovered graph (weights in estimated seconds).
    t1: float
    t_inf: float
    depth: int
    avg_parallelism: float
    #: Brent's-bound execution estimate for the whole program.
    exec_estimate: float
    #: Fig. 1 condition: predicted discovery >= predicted execution.
    discovery_bound: bool

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "opts": self.opts,
            "persistent": self.persistent,
            "threads": self.threads,
            "n_tasks": self.n_tasks,
            "n_stubs": self.n_stubs,
            "edges": {
                "created": self.edges_created,
                "duplicates_skipped": self.edges_duplicates_skipped,
                "duplicates_created": self.edges_duplicates_created,
                "redirect_nodes": self.redirect_nodes,
            },
            "discovery": {
                "first_iteration": self.first_iteration_cost,
                "steady_iteration": self.steady_iteration_cost,
                "total": self.discovery_total,
            },
            "shape": {
                "t1": self.t1,
                "t_inf": self.t_inf,
                "depth": self.depth,
                "avg_parallelism": self.avg_parallelism,
            },
            "exec_estimate": self.exec_estimate,
            "discovery_bound": self.discovery_bound,
        }


def task_seconds(compiled: CompiledTDG, machine: MachineSpec) -> list[float]:
    """Per-tid execution weight in estimated seconds (stubs at zero)."""
    fpc, bw = machine.flops_per_core, machine.dram_bw
    return [
        0.0 if stub else flops / fpc + fp / bw
        for stub, flops, fp in zip(
            compiled.is_stub, compiled.flops, compiled.fp_bytes
        )
    ]


def estimate_discovery(
    program: Program,
    opts: OptimizationSet,
    machine: MachineSpec,
    *,
    threads: Optional[int] = None,
    costs: Optional[DiscoveryCosts] = None,
    tdg: Optional[StaticTDG] = None,
) -> tuple[DiscoveryEstimate, StaticTDG]:
    """Predict discovery and execution behaviour without running the DES.

    Pass an existing ``tdg`` (built *with* the same ``costs``) to avoid a
    second static walk; otherwise one is discovered here.
    """
    if costs is None:
        costs = DiscoveryCosts()
    if threads is None:
        threads = machine.n_cores
    if tdg is None or not tdg.iteration_costs:
        tdg = discover_static(program, opts, costs=costs)

    it_costs = tdg.iteration_costs
    first = it_costs[0] if it_costs else 0.0
    steady = it_costs[-1] if len(it_costs) > 1 else first
    total = sum(it_costs)

    compiled = tdg.compiled
    shape = shape_from_csr(
        compiled.succ_offsets,
        compiled.succ_targets,
        task_seconds(compiled, machine),
        compiled.topo_order,
    )
    per_graph_exec = max(
        shape.total_weight / max(threads, 1), shape.critical_path_weight
    )
    if compiled.persistent:
        # The compiled graph holds one template iteration; the implicit
        # barrier makes whole-program execution n_iterations times it.
        exec_estimate = per_graph_exec * program.n_iterations
    else:
        exec_estimate = per_graph_exec

    stats = compiled.stats
    return (
        DiscoveryEstimate(
            program=program.name,
            opts=str(opts),
            persistent=compiled.persistent,
            threads=threads,
            n_tasks=compiled.n_user_tasks,
            n_stubs=compiled.n_stubs,
            edges_created=stats.created,
            edges_duplicates_skipped=stats.duplicates_skipped,
            edges_duplicates_created=stats.duplicates_created,
            redirect_nodes=stats.redirect_nodes,
            first_iteration_cost=first,
            steady_iteration_cost=steady,
            discovery_total=total,
            t1=shape.total_weight,
            t_inf=shape.critical_path_weight,
            depth=shape.depth,
            avg_parallelism=shape.avg_parallelism,
            exec_estimate=exec_estimate,
            # An empty graph (no tasks, zero cost on both sides) is not
            # "bound" by anything — the comparison needs work to compare.
            discovery_bound=compiled.n_user_tasks > 0 and total >= exec_estimate,
        ),
        tdg,
    )


def check_discovery_bound(estimate: DiscoveryEstimate) -> list[Finding]:
    """``V-DISC-BOUND``: the single producer cannot keep workers fed."""
    if not estimate.discovery_bound:
        return []
    ratio = (
        estimate.discovery_total / estimate.exec_estimate
        if estimate.exec_estimate > 0
        else float("inf")
    )
    return [
        Finding(
            rule="V-DISC-BOUND",
            message=(
                f"predicted discovery time ({estimate.discovery_total:.3e} s) "
                f"exceeds the execution estimate "
                f"({estimate.exec_estimate:.3e} s) at {estimate.threads} "
                "threads — the run is discovery bound (Fig. 1 regime)"
            ),
            hint=(
                "coarsen the tasks (lower TPL), enable more discovery "
                "optimizations (a/b/c), or make the graph persistent (p)"
            ),
            data={
                "discovery_total": estimate.discovery_total,
                "exec_estimate": estimate.exec_estimate,
                "ratio": ratio,
                "threads": estimate.threads,
            },
        )
    ]
