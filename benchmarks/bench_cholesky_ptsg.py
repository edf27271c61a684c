"""§4.4: tile-based Cholesky — the persistent-graph study.

Paper (n=65,536, b=512, 32 ranks x 24 cores): optimizations (a)/(b)/(c)
change nothing (dense regular dependences); (p) gives a 5x asymptotic
discovery speedup when iteratively factorizing same-structure matrices,
with no significant total-time impact since discovery is already <2% of
total (269s with vs 274s without on 768 cores).
"""

import sys

sys.path.insert(0, "benchmarks")
from _common import LARGE, scaled_mpc, scaled_skylake

from repro.analysis.tables import render_table
from repro.apps.cholesky import CholeskyConfig, build_task_programs
from repro.cluster import Cluster
from repro.runtime import TaskRuntime

N = 4096 if LARGE else 2048
B = 256
ITER_LADDER = (1, 2, 4, 8, 16)


def cholesky_experiment():
    machine = scaled_skylake()
    # (1) PTSG discovery speedup vs number of factorizations.
    ladder = []
    for iters in ITER_LADDER:
        cfg = CholeskyConfig(n=N, b=B, iterations=iters)
        prog = build_task_programs(cfg)[0]
        d_p = TaskRuntime(prog, scaled_mpc(machine, opts="p")).run().discovery_busy
        d_np = TaskRuntime(prog, scaled_mpc(machine, opts="")).run().discovery_busy
        ladder.append((iters, d_np, d_p))
    # (2) total time with/without (p), distributed 2x2.
    cfg = CholeskyConfig(n=N, b=B, pr=2, pc=2, iterations=4)
    progs = build_task_programs(cfg)
    totals = {}
    for label, opts in (("with (p)", "abcp"), ("without", "abc")):
        res = Cluster(4).run(
            progs, [scaled_mpc(machine, opts=opts, n_threads=12)] * 4
        )
        totals[label] = res.makespan
    # (3) opts (a)/(b)/(c) edge-count invariance.
    prog = build_task_programs(CholeskyConfig(n=N, b=B))[0]
    e_none = TaskRuntime(
        prog, scaled_mpc(machine, opts="", non_overlapped=True)
    ).run().edges
    e_abc = TaskRuntime(
        prog, scaled_mpc(machine, opts="abc", non_overlapped=True)
    ).run().edges
    return ladder, totals, e_none, e_abc


def test_cholesky_ptsg(benchmark):
    ladder, totals, e_none, e_abc = benchmark.pedantic(
        cholesky_experiment, rounds=1, iterations=1
    )
    rows = [
        [iters, f"{d_np * 1e3:.3f}", f"{d_p * 1e3:.3f}", f"{d_np / d_p:.2f}x"]
        for iters, d_np, d_p in ladder
    ]
    print()
    print(render_table(
        ["factorizations", "discovery none(ms)", "discovery (p)(ms)", "speedup"],
        rows,
        title=f"Cholesky PTSG discovery speedup (n={N}, b={B}; paper: ->5x)",
    ))
    print(f"totals on 2x2 ranks: with (p) {totals['with (p)'] * 1e3:.2f} ms, "
          f"without {totals['without'] * 1e3:.2f} ms "
          f"(paper: 269s vs 274s — no significant impact)")
    print(f"edges with/without (a)(b)(c): {e_abc.created} / {e_none.created} "
          f"(paper: no effect; dup-skipped={e_abc.duplicates_skipped}, "
          f"redirects={e_abc.redirect_nodes})")

    speedups = [d_np / d_p for _, d_np, d_p in ladder]
    benchmark.extra_info["asymptotic_speedup"] = speedups[-1]

    assert speedups[-1] > speedups[0], "speedup must grow with iterations"
    assert speedups[-1] > 3.0, "asymptotic discovery speedup (paper: 5x)"
    assert e_none.created == e_abc.created, "(a)(b)(c) are no-ops on Cholesky"
    assert e_abc.duplicates_skipped == 0 and e_abc.redirect_nodes == 0
    hi, lo = max(totals.values()), min(totals.values())
    assert hi / lo < 1.15, "total time impact must stay small"
