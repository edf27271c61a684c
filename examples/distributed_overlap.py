"""Distributed LULESH: communication overlap and the Gantt chart (Figs 7-8).

Runs 8 coupled MPI ranks of the task-based LULESH with and without
discovery optimizations, prints the §4.1 communication metrics of the
profiled rank, and renders a Fig.-8-style ASCII Gantt chart where the
persistent-TDG iteration barrier is visible.

Run:  python examples/distributed_overlap.py
"""

from dataclasses import asdict, replace

from repro.analysis import render_table, scaled_epyc, scaled_mpc
from repro.apps.lulesh import LuleshConfig
from repro.campaign import ExperimentSpec
from repro.campaign.runner import run_experiment_cluster
from repro.cluster import RankGrid
from repro.mpi.network import bxi_like
from repro.obs import comm_metrics, gantt_of


def main() -> None:
    grid = RankGrid.cubic(8)
    cfg = LuleshConfig(s=24, iterations=5, tpl=32, flops_per_item=25.0)

    rows = []
    charts = {}
    for label, opts in (("optimized", "abcp"), ("no-opt", "")):
        rc = scaled_mpc(scaled_epyc(), opts=opts, n_threads=4)
        spec = ExperimentSpec(
            app="lulesh",
            config=replace(rc, trace=True),
            params=asdict(cfg),
            ranks=grid.n_ranks,
            seed=rc.seed,
            network=bxi_like(),
        )
        res = run_experiment_cluster(spec, grid=grid)
        pr = [r for r in res.results if r.extra.get("profiled")][0]
        cm = comm_metrics(pr.comm, pr.trace, pr.n_threads)
        rows.append([
            label,
            f"{res.makespan * 1e3:.2f}",
            f"{cm.comm_time * 1e3:.3f}",
            f"{100 * cm.overlap_ratio:.1f}%",
            f"{100 * cm.collective_time / max(cm.comm_time, 1e-12):.0f}%",
        ])
        charts[label] = gantt_of(pr.trace, pr.n_threads, width=100)

    print(render_table(
        ["version", "makespan(ms)", "comm C(ms)", "overlap ratio", "collective share"],
        rows,
        title=f"Distributed LULESH on {grid.n_ranks} ranks (profiled rank shown)",
    ))
    for label, g in charts.items():
        print(f"\nGantt ({label}; glyph = iteration, '.' = idle):")
        print(g.render())
        print(f"iterations interleave: {g.iterations_interleaved()} "
              "(persistent barrier separates iterations when optimized)")


if __name__ == "__main__":
    main()
