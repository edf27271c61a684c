"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables or figures at a
scaled-down size (see DESIGN.md §2 and ``repro.analysis.calibration``).
Set ``REPRO_BENCH_SCALE=large`` for bigger meshes/iteration counts (closer
to the paper's axes, several times slower).

Benchmarks print the same rows/series the paper reports; run with
``pytest benchmarks/ --benchmark-only -s`` to see them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.analysis.calibration import (
    scaled_epyc,
    scaled_gcc,
    scaled_llvm,
    scaled_mpc,
    scaled_skylake,
)
from repro.apps.lulesh import LuleshConfig
from repro.campaign.spec import ExperimentSpec
from repro.runtime.runtime import RuntimeConfig

#: ``small`` (default, CI-sized) or ``large``.
SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")
if SCALE not in ("small", "large"):
    raise ValueError(f"REPRO_BENCH_SCALE must be 'small' or 'large', got {SCALE!r}")

LARGE = SCALE == "large"


@dataclass(frozen=True)
class LuleshBench:
    """The standard intra-node LULESH experiment (Figs. 1/2/6, Tables 1/2)."""

    s: int = 64 if LARGE else 48
    iterations: int = 16 if LARGE else 8
    flops_per_item: float = 25.0
    #: TPL ladder — the x-axis of Figs. 1/2/6 (paper: 48..4608).
    tpls: tuple[int, ...] = (
        (4, 8, 16, 32, 64, 96, 128, 192, 256, 384, 512)
        if LARGE
        else (4, 8, 16, 32, 64, 96, 128, 192, 256)
    )
    #: The TPL used for Table 1 / Table 2 style single-point studies
    #: (the paper uses its best TPL, 1872).
    tpl_best: int = 96
    #: The finest TPL (the paper's 4608).
    tpl_finest: int = 256

    def config(self, tpl: int) -> LuleshConfig:
        return LuleshConfig(
            s=self.s,
            iterations=self.iterations,
            tpl=tpl,
            flops_per_item=self.flops_per_item,
        )

    def spec(
        self, config: RuntimeConfig, *, tpl: int | None = None,
        engine: str = "task", ranks: int = 1,
    ) -> ExperimentSpec:
        """The bench workload as an :class:`ExperimentSpec` (campaign API)."""
        return ExperimentSpec(
            app="lulesh",
            config=config,
            params={
                "s": self.s,
                "iterations": self.iterations,
                "tpl": self.tpl_best if tpl is None else tpl,
                "flops_per_item": self.flops_per_item,
            },
            engine=engine,
            ranks=ranks,
            seed=config.seed,
        )


LULESH = LuleshBench()


def cluster_spec(
    app: str,
    app_cfg,
    grid,
    *,
    opts: str = "abc",
    engine: str = "task",
    n_threads: int | None = None,
    network=None,
    machine=None,
    trace: bool = True,
) -> ExperimentSpec:
    """A coupled-run spec for ``run_experiment_cluster(spec, grid=grid)``.

    Replaces the retired ``run_lulesh_cluster``/``run_hpcg_cluster``
    helpers: MPC-OMP on a scaled EPYC by default, tracing the profiled
    rank (the paper's single-rank profiling).
    """
    from dataclasses import asdict, replace

    cfg = scaled_mpc(
        machine if machine is not None else scaled_epyc(),
        opts=opts,
        n_threads=n_threads,
    )
    return ExperimentSpec(
        app=app,
        config=replace(cfg, trace=trace),
        params=asdict(app_cfg),
        engine=engine,
        ranks=grid.n_ranks,
        seed=cfg.seed,
        network=network,
    )

#: Campaign knobs shared by the benchmark drivers: a persistent campaign
#: directory (its ``campaign.sqlite`` store) makes re-runs (and the CI
#: smoke pass) skip completed runs; REPRO_BENCH_JOBS>1 fans sweep points
#: out over workers.
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE") or None
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

__all__ = [
    "BENCH_CACHE",
    "BENCH_JOBS",
    "LARGE",
    "LULESH",
    "LuleshBench",
    "SCALE",
    "cluster_spec",
    "scaled_epyc",
    "scaled_gcc",
    "scaled_llvm",
    "scaled_mpc",
    "scaled_skylake",
]
