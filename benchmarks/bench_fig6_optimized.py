"""Figure 6: the intra-node TPL sweep with every optimization enabled.

Paper: the TDG execution is no longer bound by its discovery; effective
depth-first scheduling at fine grain gives 1.56x over parallel-for and
1.27x over the non-optimized task version (best TPL moves finer, 4,608 TPL
reaches 1,230s work for 82B L2DCM / 54B L3CM).
"""

import sys

sys.path.insert(0, "benchmarks")
from _common import BENCH_CACHE, BENCH_JOBS, LULESH, scaled_mpc, scaled_skylake

from repro.analysis.sweep import run_spec_sweep
from repro.analysis.tables import render_series, render_table
from repro.campaign.runner import run_experiment


def fig6_experiment():
    machine = scaled_skylake()
    sweep_opt = run_spec_sweep(
        LULESH.spec(scaled_mpc(machine, opts="abcp", name="mpc-opt")),
        LULESH.tpls, jobs=BENCH_JOBS, store=BENCH_CACHE,
    )
    sweep_noopt = run_spec_sweep(
        LULESH.spec(scaled_mpc(machine, opts="", name="mpc-noopt")),
        LULESH.tpls, jobs=BENCH_JOBS, store=BENCH_CACHE,
    )
    t_for = run_experiment(
        LULESH.spec(scaled_mpc(machine), tpl=LULESH.tpls[0], engine="forloop")
    ).makespan
    return sweep_opt, sweep_noopt, t_for


def test_fig6_optimized(benchmark):
    sweep_opt, sweep_noopt, t_for = benchmark.pedantic(
        fig6_experiment, rounds=1, iterations=1
    )
    rows = [
        [p.tpl, f"{p.total * 1e3:.2f}", f"{q.total * 1e3:.2f}",
         f"{p.discovery * 1e3:.2f}", f"{p.work_avg * 1e3:.2f}",
         f"{p.idle_avg * 1e3:.2f}"]
        for p, q in zip(sweep_opt.points, sweep_noopt.points)
    ]
    print()
    print(render_table(
        ["TPL", "opt total(ms)", "noopt total(ms)", "opt disc(ms)",
         "opt work(ms)", "opt idle(ms)"],
        rows,
        title="Fig 6 (scaled): all optimizations enabled",
    ))
    best_opt = sweep_opt.best("total")
    best_noopt = sweep_noopt.best("total")
    print(render_series(
        sweep_opt.tpls,
        {"optimized": sweep_opt.series("total"),
         "non-optimized": sweep_noopt.series("total")},
        title="Fig 6 total-time curves",
        x_label="TPL",
    ))
    s_for = t_for / best_opt.total
    s_task = best_noopt.total / best_opt.total
    print(f"parallel-for: {t_for * 1e3:.2f} ms")
    print(f"best optimized TPL={best_opt.tpl}: {best_opt.total * 1e3:.2f} ms")
    print(f"speedup vs parallel-for: {s_for:.2f}x (paper: 1.56x)")
    print(f"speedup vs non-optimized tasks: {s_task:.2f}x (paper: 1.27x)")
    print(f"best grain moved finer: {best_noopt.tpl} -> {best_opt.tpl} "
          "(paper: optimizations enable finer grains)")

    benchmark.extra_info["speedup_vs_for"] = s_for
    benchmark.extra_info["speedup_vs_noopt"] = s_task

    assert best_opt.total < best_noopt.total
    assert best_opt.total < t_for
    assert best_opt.tpl >= best_noopt.tpl
