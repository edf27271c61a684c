"""Spec-based cluster runs (Fig 7/9 plumbing) and shim-removal checks.

The legacy ``run_lulesh_cluster``/``run_hpcg_cluster`` helpers are gone
(see MIGRATION.md): a coupled run is now an :class:`ExperimentSpec` with
``ranks > 1`` handed to :func:`run_experiment_cluster`.  These tests keep
the behaviours the old helper tests pinned — all ranks return, exactly
one profiled (traced) rank, grid/profiled-rank overrides, the fork-join
variant and matched collectives.
"""

from dataclasses import asdict, replace

import pytest

from repro.analysis.calibration import scaled_epyc, scaled_mpc, scaled_network
from repro.apps.hpcg import HpcgConfig
from repro.apps.lulesh import LuleshConfig
from repro.campaign.runner import run_experiment_cluster
from repro.campaign.spec import ExperimentSpec
from repro.cluster import RankGrid


GRID = RankGrid(2, 2, 1)
LCFG = LuleshConfig(s=12, iterations=2, tpl=8, flops_per_item=25.0)
HCFG = HpcgConfig(n_rows=2048, iterations=2, tpl=8, spmv_sub=2)


def cluster_spec(app, app_cfg, grid, *, opts="abc", engine="task",
                 base_config=None, n_threads=2):
    """A spec mirroring the retired per-app cluster helpers' defaults."""
    cfg = (
        base_config
        if base_config is not None
        else scaled_mpc(scaled_epyc(), opts=opts, n_threads=n_threads)
    )
    return ExperimentSpec(
        app=app,
        config=replace(cfg, trace=True),
        params=asdict(app_cfg),
        engine=engine,
        ranks=grid.n_ranks,
        seed=cfg.seed,
        network=scaled_network(),
    )


class TestLuleshCluster:
    def test_all_ranks_return(self):
        res = run_experiment_cluster(cluster_spec("lulesh", LCFG, GRID), grid=GRID)
        assert res.n_ranks == 4
        assert all(r.n_tasks > 0 for r in res.results)

    def test_exactly_one_profiled_rank(self):
        res = run_experiment_cluster(cluster_spec("lulesh", LCFG, GRID), grid=GRID)
        profiled = [r for r in res.results if r.extra.get("profiled")]
        assert len(profiled) == 1
        assert profiled[0].trace is not None
        assert profiled[0].trace.n_spans > 0

    def test_unprofiled_ranks_have_no_trace(self):
        res = run_experiment_cluster(cluster_spec("lulesh", LCFG, GRID), grid=GRID)
        for r in res.results:
            if not r.extra.get("profiled"):
                assert r.trace is None

    def test_explicit_profiled_rank(self):
        res = run_experiment_cluster(
            cluster_spec("lulesh", LCFG, GRID), grid=GRID, profiled_rank=3
        )
        assert res.results[3].extra.get("profiled")

    def test_opts_accepted_as_string(self):
        res = run_experiment_cluster(
            cluster_spec("lulesh", LCFG, GRID, opts="abcp"), grid=GRID
        )
        assert res.makespan > 0

    def test_parallel_for_variant(self):
        res = run_experiment_cluster(
            cluster_spec("lulesh", LCFG, GRID, engine="forloop"), grid=GRID
        )
        assert all(r.n_tasks == 0 for r in res.results)
        assert res.makespan > 0

    def test_base_config_respected(self):
        from repro.analysis.calibration import scaled_skylake

        base = scaled_mpc(scaled_skylake(4), opts="abc", n_threads=4)
        res = run_experiment_cluster(
            cluster_spec("lulesh", LCFG, GRID, base_config=base), grid=GRID
        )
        assert res.makespan > 0


class TestHpcgCluster:
    def test_runs(self):
        res = run_experiment_cluster(cluster_spec("hpcg", HCFG, GRID), grid=GRID)
        assert res.n_ranks == 4
        assert all(r.n_tasks > 0 for r in res.results)

    def test_collectives_matched_across_ranks(self):
        res = run_experiment_cluster(cluster_spec("hpcg", HCFG, GRID), grid=GRID)
        # 2 Iallreduce per CG iteration per rank.
        for r in res.results:
            colls = [c for c in r.comm if c.kind == "iallreduce"]
            assert len(colls) == 2 * HCFG.iterations


class TestShimsRemoved:
    """The PR-3 deprecation shims are deleted, not just deprecated."""

    def test_distributed_module_gone(self):
        with pytest.raises(ImportError):
            import repro.analysis.distributed  # noqa: F401

    def test_run_sweep_gone(self):
        import repro.analysis
        import repro.analysis.sweep

        assert not hasattr(repro.analysis.sweep, "run_sweep")
        assert not hasattr(repro.analysis, "run_sweep")
        assert "run_sweep" not in repro.analysis.__all__
