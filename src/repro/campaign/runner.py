"""``run_experiment(spec) -> RunResult``: the one way to execute a run.

Every entrypoint that used to take its own argument shape — the CLI
subcommands, the TPL sweeps, the METG/scaling studies, the cluster
helpers, the benchmark drivers — goes through this function now.  It
builds the workload named by the spec, derives the per-run
:class:`~repro.runtime.runtime.RuntimeConfig` (seed override + cost
scaling), picks the engine, and returns a
:class:`~repro.runtime.runtime.RunResult` whose ``extra`` carries the
spec key so cached artifacts are self-describing.

For coupled runs (``ranks > 1``) the returned result is the profiled
interior rank's (the paper profiles one representative rank, e.g. rank 82
of 128), with cluster-level aggregates in ``extra["cluster"]``;
:func:`run_experiment_cluster` returns every rank when callers need them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Optional

from repro.campaign.spec import ExperimentSpec
from repro.runtime.result import RunResult
from repro.runtime.runtime import RuntimeConfig, TaskRuntime

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import ClusterResult
    from repro.core.compiled import CompiledGraphCache

#: Builder-only parameter names per app (everything else feeds the app
#: config dataclass).
_LULESH_BUILDER_PARAMS = ("taskwait_around_comm", "offload")
_CHOLESKY_BUILDER_PARAMS = ("sync_iterations",)


def derive_config(spec: ExperimentSpec) -> RuntimeConfig:
    """The effective per-run config: spec seed wins, costs get scaled."""
    cfg = spec.config
    if cfg.seed != spec.seed:
        cfg = replace(cfg, seed=spec.seed)
    if spec.scale != 1.0:
        from repro.analysis.calibration import scale_costs

        cfg = scale_costs(cfg, spec.scale)
    return cfg


def _split_params(params: dict, builder_names: tuple[str, ...]) -> tuple[dict, dict]:
    builder = {k: params.pop(k) for k in builder_names if k in params}
    return params, builder


def build_programs(spec: ExperimentSpec, *, grid=None) -> list:
    """Build one program per rank for ``spec`` (task or fork-join).

    ``grid`` overrides the default cubic rank layout (legacy helpers pass
    arbitrary :class:`~repro.cluster.mapping.RankGrid` shapes); it is not
    part of the spec, so spec-keyed caching always uses the cubic default.
    """
    params = spec.params_dict
    if spec.app == "lulesh":
        from repro.apps.lulesh import LuleshConfig, build_for_program, build_task_program

        params, builder = _split_params(params, _LULESH_BUILDER_PARAMS)
        app_cfg = LuleshConfig(**params)
        neighbors_of = _neighbors_factory(spec, grid)
        if spec.engine == "forloop":
            return [
                build_for_program(app_cfg, neighbors=neighbors_of(r))
                for r in range(spec.ranks)
            ]
        return [
            build_task_program(
                app_cfg, opt_a=spec.opts.a, neighbors=neighbors_of(r), **builder
            )
            for r in range(spec.ranks)
        ]
    if spec.app == "hpcg":
        from repro.apps.hpcg import HpcgConfig, build_for_program, build_task_program

        app_cfg = HpcgConfig(**params)
        neighbors_of = _neighbors_factory(spec, grid)
        build = build_for_program if spec.engine == "forloop" else build_task_program
        return [build(app_cfg, neighbors=neighbors_of(r)) for r in range(spec.ranks)]
    # cholesky
    from repro.apps.cholesky import CholeskyConfig, build_task_programs

    params, builder = _split_params(params, _CHOLESKY_BUILDER_PARAMS)
    app_cfg = CholeskyConfig(**params)
    if app_cfg.n_ranks != spec.ranks:
        raise ValueError(
            f"cholesky pr*pc={app_cfg.n_ranks} must equal spec.ranks={spec.ranks}"
        )
    return build_task_programs(app_cfg, **builder)


def _neighbors_factory(spec: ExperimentSpec, grid=None):
    """Per-rank frontier neighbors: empty for intra-node, cubic grid else."""
    if grid is not None:
        return grid.neighbors
    if spec.ranks == 1:
        return lambda r: ()
    from repro.cluster.mapping import RankGrid

    return RankGrid.cubic(spec.ranks).neighbors


def run_experiment_cluster(
    spec: ExperimentSpec,
    *,
    profiled_rank: Optional[int] = None,
    grid=None,
    bus=None,
) -> "ClusterResult":
    """Execute a coupled run and return every rank's result.

    Only ``profiled_rank`` (default: an interior rank) records a full
    task trace — and only if the spec's config asks for tracing at all —
    keeping memory bounded like the paper's single-rank profiling.
    ``grid`` overrides the cubic rank layout (see :func:`build_programs`).
    ``bus`` is handed to the cluster as the shared per-rank
    :class:`~repro.sim.InstrumentationBus` — attach observers *before*
    calling, so they see each runtime's ``register`` event.
    """
    from repro.cluster.cluster import Cluster
    from repro.cluster.mapping import RankGrid
    from repro.mpi.network import bxi_like

    if grid is not None and grid.n_ranks != spec.ranks:
        raise ValueError(
            f"grid has {grid.n_ranks} ranks but spec.ranks={spec.ranks}"
        )
    cfg = derive_config(spec)
    programs = build_programs(spec, grid=grid)
    if profiled_rank is not None:
        profiled = profiled_rank
    elif spec.app == "cholesky":
        profiled = 0
    elif grid is not None:
        profiled = grid.interior_rank()
    else:
        profiled = RankGrid.cubic(spec.ranks).interior_rank()
    configs = [
        replace(cfg, trace=(cfg.trace and r == profiled))
        for r in range(spec.ranks)
    ]
    network = spec.network if spec.network is not None else bxi_like()
    cluster = Cluster(spec.ranks, network=network, bus=bus)
    out = cluster.run(programs, configs)
    out.results[profiled].extra["profiled"] = True
    return out


def _artifact_alias(spec: ExperimentSpec) -> str:
    """Cache-alias key for the spec's compiled TDG.

    Hashes exactly what determines the artifact — the workload and the
    discovery optimization set — so the cheap tiers can map a spec
    straight to a stored artifact without building the program at all.
    The seed and the (scaled) cost model are left out: an artifact holds
    no cost model, and the seed only drives the DES scheduler.
    """
    from repro.util.serde import content_key

    return content_key(
        {
            "app": spec.app,
            "params": spec.params_dict,
            "opts": spec.opts.to_dict(),
        }
    )


def _compiled_artifact(
    spec: ExperimentSpec,
    cfg: RuntimeConfig,
    *,
    compiled_cache: Optional["CompiledGraphCache"] = None,
    bus=None,
) -> tuple:
    """The spec's :class:`CompiledTDG` and whether it came from the cache.

    A warm cache hit resolves through the alias index and skips the
    program build entirely — the fast path the replay/analytic tiers
    exist for.  A miss compiles the program and stores the artifact and
    its alias: this is the only writer of compiled artifacts.
    """
    from repro.core.compiled import compile_program

    alias = None
    if compiled_cache is not None:
        alias = _artifact_alias(spec)
        key = compiled_cache.get_alias(alias)
        if key is not None:
            art = compiled_cache.get(key)
            if art is not None:
                return art, True
    program = build_programs(spec)[0]
    art = compile_program(program, cfg.opts, costs=cfg.discovery, bus=bus)
    if compiled_cache is not None:
        compiled_cache.put(art)
        compiled_cache.put_alias(alias, art.key)
    return art, False


def _run_tier(
    spec: ExperimentSpec,
    *,
    compiled_cache: Optional["CompiledGraphCache"] = None,
    bus=None,
) -> RunResult:
    """Execute a cheap-tier (``analytic``/``replay``) spec."""
    from repro.sim.tiers import simulate

    cfg = derive_config(spec)
    art, hit = _compiled_artifact(
        spec, cfg, compiled_cache=compiled_cache, bus=bus
    )
    res = simulate(art, cfg, fidelity=spec.fidelity)
    res.extra.setdefault("compiled_tdg", {})["cache_hit"] = hit
    return res


def run_experiment(
    spec: ExperimentSpec,
    *,
    compiled_cache: Optional["CompiledGraphCache"] = None,
    bus=None,
) -> RunResult:
    """Execute one :class:`ExperimentSpec` to completion.

    Deterministic: equal specs produce bitwise-equal serialized results,
    in any process — the contract the campaign cache and the parallel
    fan-out engine are built on.  ``compiled_cache`` (a
    :class:`~repro.core.compiled.CompiledGraphCache`) serves the
    ``analytic`` and ``replay`` tiers only: they load the spec's compiled
    graph from it, or compile and store it, and report whether it was a
    hit under ``extra["compiled_tdg"]["cache_hit"]``.  DES runs never
    touch it, so their results are the same with or without a cache.
    ``bus`` is handed to the runtime(s) as their
    :class:`~repro.sim.InstrumentationBus`; attach observers before
    calling (the bus carries no state, so a quiet bus keeps the
    determinism contract).
    """
    if spec.fidelity != "des":
        res = _run_tier(spec, compiled_cache=compiled_cache, bus=bus)
        res.extra["spec_key"] = spec.key
        return res
    if spec.ranks == 1:
        cfg = derive_config(spec)
        program = build_programs(spec)[0]
        if spec.engine == "forloop":
            from repro.cluster.cluster import Cluster
            from repro.mpi.network import bxi_like

            network = spec.network if spec.network is not None else bxi_like()
            res = Cluster(1, network=network, bus=bus).run(
                [program], [cfg]
            ).results[0]
        else:
            rt = TaskRuntime(program, cfg, bus=bus)
            res = rt.run()
            if rt.accelerator is not None:
                st = rt.accelerator.stats
                res.extra["accelerator"] = {
                    "kernels": st.kernels,
                    "busy_time": st.busy_time,
                    "h2d_bytes": st.h2d_bytes,
                    "resident_hits": st.resident_hits,
                    "resident_bytes": st.resident_bytes,
                    "utilization": rt.accelerator.utilization(res.makespan),
                }
    else:
        out = run_experiment_cluster(spec, bus=bus)
        profiled = next(
            r for r, rr in enumerate(out.results) if rr.extra.get("profiled")
        )
        res = out.results[profiled]
        res.extra["cluster"] = {
            "n_ranks": out.n_ranks,
            "makespan": out.makespan,
            "rank_makespans": [rr.makespan for rr in out.results],
            "profiled_rank": profiled,
        }
    # RunResult unification: every tier reports its fidelity and bounds
    # explicitly (DES has no analytic bounds — that is a None, not a
    # missing key).
    res.extra.setdefault("fidelity", "des")
    res.extra.setdefault("bounds", None)
    res.extra["spec_key"] = spec.key
    return res
