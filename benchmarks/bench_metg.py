"""METG report (§3.3): Minimum Effective Task Granularity on LULESH.

Paper: Task Bench reports METG(95%) ~ 1 ms for OpenMP runtimes; running
LULESH with GCC/LLVM/MPC-OMP, the authors measure METG(95%) = 65 us with
MPC-OMP at 9,216 TPL — 1.5 orders of magnitude finer.  Here the three
runtime presets sweep the TPL ladder and METG is computed against the best
performance across all of them.
"""

import sys

sys.path.insert(0, "benchmarks")
from _common import (
    BENCH_CACHE,
    BENCH_JOBS,
    LULESH,
    scaled_gcc,
    scaled_llvm,
    scaled_mpc,
    scaled_skylake,
)

from repro.analysis.metg import metg
from repro.analysis.sweep import run_spec_sweep
from repro.analysis.tables import render_table


def metg_experiment():
    machine = scaled_skylake()
    bases = {
        "mpc-omp": LULESH.spec(scaled_mpc(machine, opts="abcp")),
        "llvm": LULESH.spec(scaled_llvm(machine)),
        "gcc": LULESH.spec(scaled_gcc(machine)),
    }
    return {
        name: run_spec_sweep(base, LULESH.tpls, jobs=BENCH_JOBS, store=BENCH_CACHE)
        for name, base in bases.items()
    }


def test_metg(benchmark):
    sweeps = benchmark.pedantic(metg_experiment, rounds=1, iterations=1)
    results = metg(sweeps, efficiency=0.95)
    rows = []
    for name, m in results.items():
        rows.append([
            name,
            f"{m.metg * 1e6:.1f}" if m.metg is not None else "n/a",
            m.tpl if m.tpl is not None else "-",
            f"{sweeps[name].best('total').total * 1e3:.2f}",
        ])
    print()
    print(render_table(
        ["runtime", "METG(95%) us", "at TPL", "best total(ms)"],
        rows,
        title="METG report (scaled; paper: MPC-OMP 65us, literature ~1ms)",
    ))

    m_mpc = results["mpc-omp"]
    assert m_mpc.metg is not None, "MPC-OMP must reach 95% efficiency"
    for other in ("llvm", "gcc"):
        m_o = results[other]
        if m_o.metg is not None:
            assert m_mpc.metg <= m_o.metg, (
                f"MPC-OMP must sustain grains at least as fine as {other}"
            )
    benchmark.extra_info["metg_us"] = m_mpc.metg * 1e6
