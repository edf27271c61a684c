"""Figure 2 (a-f): LULESH on MPC-OMP — the full profiled TPL sweep.

Paper panels reproduced as table columns:
(a) tasks and edges discovered, (b) per-task work and overhead,
(c) work/idle/overhead breakdown + discovery, (d) work-time inflation,
(e) cache misses per level, (f) stall cycles per level.
"""

import sys

sys.path.insert(0, "benchmarks")
from _common import BENCH_CACHE, BENCH_JOBS, LULESH, scaled_mpc, scaled_skylake

from repro.analysis.sweep import run_spec_sweep
from repro.analysis.tables import render_table
from repro.util.units import fmt_count


def fig2_experiment():
    base = LULESH.spec(scaled_mpc(scaled_skylake(), opts="", name="mpc-noopt"))
    return run_spec_sweep(
        base, LULESH.tpls, jobs=BENCH_JOBS, store=BENCH_CACHE
    )


def test_fig2_breakdown(benchmark):
    sweep = benchmark.pedantic(fig2_experiment, rounds=1, iterations=1)
    inflation = sweep.work_inflation()
    rows = []
    for p, infl in zip(sweep.points, inflation):
        m = p.result.mem
        rows.append([
            p.tpl,
            fmt_count(p.n_tasks),
            fmt_count(p.n_edges),
            f"{p.grain * 1e6:.1f}",
            f"{p.result.overhead_per_task * 1e9:.0f}",
            f"{p.work_avg * 1e3:.2f}",
            f"{p.idle_avg * 1e3:.2f}",
            f"{p.overhead_avg * 1e3:.3f}",
            f"{p.discovery * 1e3:.2f}",
            f"{infl:.2f}",
            fmt_count(m.l1_misses),
            fmt_count(m.l2_misses),
            fmt_count(m.l3_misses),
            fmt_count(m.total_stall_cycles),
        ])
    print()
    print(render_table(
        ["TPL", "tasks", "edges", "grain us", "ovh/task ns", "work ms",
         "idle ms", "ovh ms", "disc ms", "infl", "L1DCM", "L2DCM", "L3CM", "stalls"],
        rows,
        title="Fig 2 (scaled): MPC-OMP un-optimized, per-TPL profile",
    ))

    best = sweep.best("total")
    coarse, finest = sweep.points[0], sweep.points[-1]
    print(f"best TPL={best.tpl} total={best.total * 1e3:.2f} ms")
    print(f"coarse grain: idle {coarse.idle_avg * 1e3:.2f} ms dominates "
          f"(paper: low parallelism at 48 TPL)")
    print(f"L3CM coarse->best: {coarse.result.mem.l3_misses} -> "
          f"{best.result.mem.l3_misses} (paper: falls on the middle-grain range)")
    print(f"finest grain discovery-bound: disc {finest.discovery * 1e3:.2f} ms "
          f"~ total {finest.total * 1e3:.2f} ms")

    benchmark.extra_info["best_tpl"] = best.tpl
    benchmark.extra_info["max_inflation"] = max(inflation)

    # Panel (c): coarse grain idles; panel (e): reuse cuts L3 misses;
    # right side: discovery binds and misses come back up.
    assert coarse.idle_avg > best.idle_avg
    assert best.result.mem.l3_misses < coarse.result.mem.l3_misses
    assert finest.discovery >= 0.9 * finest.total
    assert finest.result.mem.l3_misses > best.result.mem.l3_misses
