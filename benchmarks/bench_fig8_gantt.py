"""Figure 8: Gantt charts of the task-based execution, optimizations on/off.

Paper: iterations 11-15 of rank 82 at TPL=1,152.  With the persistent-TDG
barrier, no task of iteration n+1 starts before iteration n completes
(clean vertical iteration boundaries); without optimizations iterations
bleed into each other and the Iallreduce matches later.
"""

import sys

sys.path.insert(0, "benchmarks")
from _common import LARGE, cluster_spec

from repro.apps.lulesh import LuleshConfig
from repro.campaign.runner import run_experiment_cluster
from repro.cluster import RankGrid
from repro.mpi.network import bxi_like
from repro.obs import gantt_of

GRID = RankGrid.cubic(8)
ITERS = 6
TPL = 48 if LARGE else 32


def fig8_experiment():
    cfg = LuleshConfig(s=24, iterations=ITERS, tpl=TPL, flops_per_item=25.0)
    out = {}
    for label, opts in (("enabled", "abcp"), ("disabled", "")):
        spec = cluster_spec(
            "lulesh", cfg, GRID, opts=opts, n_threads=4, network=bxi_like()
        )
        res = run_experiment_cluster(spec, grid=GRID)
        out[label] = [r for r in res.results if r.extra.get("profiled")][0]
    return out


def test_fig8_gantt(benchmark):
    out = benchmark.pedantic(fig8_experiment, rounds=1, iterations=1)
    charts = {}
    for label, pr in out.items():
        g = gantt_of(pr.trace, pr.n_threads, width=110)
        charts[label] = g
        print(f"\nFig 8 (scaled) - TDG optimizations {label} "
              f"(glyph = iteration index, '.' = idle):")
        print(g.render())
        print(f"iterations interleaved: {g.iterations_interleaved()}")

    # The persistent barrier forbids interleaving; the non-optimized TDG
    # pipelines iterations into each other.
    assert not charts["enabled"].iterations_interleaved(), (
        "persistent-TDG barrier must separate iterations"
    )
    benchmark.extra_info["disabled_interleaved"] = charts[
        "disabled"
    ].iterations_interleaved()
