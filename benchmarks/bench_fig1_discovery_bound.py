"""Figure 1: intra-node LULESH — execution vs discovery over the TPL axis.

Paper: LLVM 16 runtime on 24 Skylake cores, ``-s 384 -i 16``; the task
version beats ``parallel for`` by at most 6.25% because total time becomes
bound by the TDG discovery once grains refine; the crossover of the
execution and discovery curves marks the best reachable grain.

Regenerated series: total, execution and discovery time per TPL; the
parallel-for reference line; the crossover TPL.
"""

import sys

sys.path.insert(0, "benchmarks")
from _common import BENCH_CACHE, BENCH_JOBS, LULESH, scaled_llvm, scaled_mpc, scaled_skylake

from repro.analysis.sweep import run_spec_sweep
from repro.analysis.tables import render_series, render_table
from repro.campaign.runner import run_experiment


def fig1_experiment():
    machine = scaled_skylake()
    base = LULESH.spec(scaled_llvm(machine, name="llvm"))
    sweep = run_spec_sweep(
        base, LULESH.tpls, jobs=BENCH_JOBS, store=BENCH_CACHE
    )
    res_for = run_experiment(
        LULESH.spec(scaled_mpc(machine), tpl=LULESH.tpls[0], engine="forloop")
    )
    return sweep, res_for.makespan


def test_fig1_discovery_bound(benchmark):
    sweep, t_for = benchmark.pedantic(fig1_experiment, rounds=1, iterations=1)
    best = sweep.best("total")
    rows = [
        [p.tpl, f"{p.total * 1e3:.2f}", f"{p.execution * 1e3:.2f}",
         f"{p.discovery * 1e3:.2f}", f"{p.grain * 1e6:.1f}"]
        for p in sweep.points
    ]
    print()
    print(render_table(
        ["TPL", "total(ms)", "execution(ms)", "discovery(ms)", "grain(us)"],
        rows,
        title="Fig 1 (scaled): LLVM-like runtime, task-based LULESH",
    ))
    print(render_series(
        sweep.tpls,
        {"total": sweep.series("total"), "discovery": sweep.series("discovery")},
        title="Fig 1 curves",
        x_label="TPL",
    ))
    print(f"parallel-for reference: {t_for * 1e3:.2f} ms")
    print(f"best task TPL={best.tpl}: {best.total * 1e3:.2f} ms "
          f"({t_for / best.total:.3f}x vs parallel-for; paper: at most 1.06x)")
    print(f"discovery-bound from TPL={sweep.crossover_tpl()} (paper: ~1200 of 48..4608)")

    benchmark.extra_info["best_tpl"] = best.tpl
    benchmark.extra_info["speedup_vs_for"] = t_for / best.total
    benchmark.extra_info["crossover_tpl"] = sweep.crossover_tpl()

    # The paper's qualitative claims:
    assert sweep.crossover_tpl() is not None, "discovery must eventually bound"
    assert best.total < 1.15 * t_for, "task version must be competitive"
