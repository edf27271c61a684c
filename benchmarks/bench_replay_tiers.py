"""Fidelity-ladder benchmark: replay/analytic speedup over the DES tier.

Times one fine-grain LULESH sweep point (default TPL=1152 — the
discovery-bound regime where sweeps spend their wall time) at all three
fidelities.  The cheap tiers exist to make campaign sweeps ~an order of
magnitude cheaper; this benchmark is the gate on that claim:

- ``des``       — the reference event engine (program walk + resolver +
  event queue + memory hierarchy);
- ``replay``    — warm-path list scheduling over the compiled artifact
  (what a sweep pays per point once the artifact is cached);
- ``analytic``  — array-reduction bounds (microseconds);

plus the one-time artifact compile the warm path amortizes away.

Usage::

    PYTHONPATH=src python benchmarks/bench_replay_tiers.py             # full
    PYTHONPATH=src python benchmarks/bench_replay_tiers.py --tiny      # CI smoke
    PYTHONPATH=src python benchmarks/bench_replay_tiers.py --save-baseline
    PYTHONPATH=src python benchmarks/bench_replay_tiers.py --check

Emits ``BENCH_replay_tiers.json``.  ``--check`` fails unless the warm
replay tier is at least ``--min-speedup`` (default 10x) faster than DES
*and* stays accurate: replay makespan within ``--tolerance`` of DES and
the analytic interval bracketing both.  ``benchmarks/
baseline_replay_tiers.json`` (recorded with ``--save-baseline``) tracks
drift; the gate itself is same-run DES-vs-replay, so it is
machine-speed independent.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.analysis.calibration import scaled_llvm, scaled_skylake
from repro.apps.lulesh import LuleshConfig, build_task_program
from repro.core.compiled import compile_program
from repro.runtime.runtime import TaskRuntime
from repro.sim.tiers import simulate

BASELINE_PATH = Path(__file__).parent / "baseline_replay_tiers.json"


def _best(fn, repeats: int) -> tuple[float, object]:
    best_wall, best_out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        if wall < best_wall:
            best_wall, best_out = wall, out
    return best_wall, best_out


def run_case(name: str, s: int, iterations: int, tpl: int, repeats: int) -> dict:
    """One sweep point at all three tiers; walls are best-of-``repeats``."""
    machine = scaled_skylake()
    cfg = scaled_llvm(machine, name="llvm")
    prog = build_task_program(
        LuleshConfig(s=s, iterations=iterations, tpl=tpl, flops_per_item=25.0),
        opt_a=cfg.opts.a,
    )

    compile_wall, art = _best(
        lambda: compile_program(prog, cfg.opts, costs=cfg.discovery), 1
    )
    des_wall, des = _best(lambda: TaskRuntime(prog, cfg).run(), repeats)
    replay_wall, rep = _best(
        lambda: simulate(art, cfg, fidelity="replay"), repeats
    )
    analytic_wall, ana = _best(
        lambda: simulate(art, cfg, fidelity="analytic"), repeats
    )
    bounds = ana.extra["bounds"]
    return {
        "case": name,
        "s": s,
        "iterations": iterations,
        "tpl": tpl,
        "n_tasks": des.n_tasks,
        "compile_wall_s": compile_wall,
        "des_wall_s": des_wall,
        "replay_wall_s": replay_wall,
        "analytic_wall_s": analytic_wall,
        "replay_speedup": des_wall / replay_wall,
        "analytic_speedup": des_wall / analytic_wall,
        "des_makespan": des.makespan,
        "replay_makespan": rep.makespan,
        "replay_rel_err": (rep.makespan - des.makespan) / des.makespan,
        "makespan_lower": bounds["makespan_lower"],
        "makespan_upper": bounds["makespan_upper"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true",
                    help="CI smoke scale (seconds, not minutes)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repeats per tier (best-of, default 3)")
    ap.add_argument("--json", default="BENCH_replay_tiers.json",
                    help="output path (default BENCH_replay_tiers.json)")
    ap.add_argument("--save-baseline", action="store_true",
                    help=f"also record results to {BASELINE_PATH.name}")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 unless replay is >= --min-speedup faster "
                         "than DES and both cheap tiers stay accurate")
    ap.add_argument("--min-speedup", type=float, default=10.0,
                    help="gate: warm replay speedup over DES (default 10x)")
    ap.add_argument("--tolerance", type=float, default=0.08,
                    help="gate: |replay - des| / des (default 0.08, the "
                         "campaign cross-check tolerance)")
    args = ap.parse_args(argv)

    if args.tiny:
        rec = run_case("lulesh-llvm-tpl64-tiny", 16, 2, 64, args.repeats)
    else:
        rec = run_case("lulesh-llvm-tpl1152", 48, 4, 1152, args.repeats)

    report = {
        "python": platform.python_version(),
        "scale": "tiny" if args.tiny else "full",
        "cases": [rec],
    }
    if BASELINE_PATH.exists():
        base = {c["case"]: c
                for c in json.loads(BASELINE_PATH.read_text()).get("cases", [])}
        b = base.get(rec["case"])
        if b is not None:
            rec["baseline_replay_speedup"] = b["replay_speedup"]

    Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    if args.save_baseline:
        BASELINE_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print(f"{rec['case']}: {rec['n_tasks']:,} tasks")
    print(f"  des      {rec['des_wall_s']:.3f}s")
    print(f"  compile  {rec['compile_wall_s']:.3f}s (one-time, cached)")
    print(f"  replay   {rec['replay_wall_s']:.3f}s "
          f"({rec['replay_speedup']:.1f}x, rel err "
          f"{rec['replay_rel_err']:+.2%})")
    print(f"  analytic {rec['analytic_wall_s']:.6f}s "
          f"({rec['analytic_speedup']:.0f}x, bracket "
          f"[{rec['makespan_lower']:.4g}, {rec['makespan_upper']:.4g}])")

    if args.check:
        slack = 1 + 1e-9
        failures = []
        if rec["replay_speedup"] < args.min_speedup:
            failures.append(
                f"replay speedup {rec['replay_speedup']:.1f}x "
                f"< {args.min_speedup}x"
            )
        if abs(rec["replay_rel_err"]) > args.tolerance:
            failures.append(
                f"replay rel err {rec['replay_rel_err']:+.2%} "
                f"> {args.tolerance:.0%}"
            )
        for tier in ("des_makespan", "replay_makespan"):
            if not (rec["makespan_lower"] <= rec[tier] * slack
                    and rec[tier] <= rec["makespan_upper"] * slack):
                failures.append(f"analytic bounds miss {tier}={rec[tier]:.4g}")
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        if failures:
            return 1
        print(f"OK: replay {rec['replay_speedup']:.1f}x >= "
              f"{args.min_speedup}x, rel err {rec['replay_rel_err']:+.2%} "
              f"within {args.tolerance:.0%}, bounds bracket both tiers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
