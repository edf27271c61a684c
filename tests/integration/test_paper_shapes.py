"""Integration tests: the paper's qualitative results at miniature scale.

Each test is a miniature of one experiment and asserts the paper's
*conclusion* (who wins, what bounds what), not absolute numbers.  The full
experiments live in ``benchmarks/``.
"""

from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.analysis.calibration import scaled_mpc, scaled_skylake
from repro.analysis.sweep import run_spec_sweep
from repro.apps.lulesh import LuleshConfig, build_for_program, build_task_program
from repro.campaign.runner import run_experiment_cluster
from repro.campaign.spec import ExperimentSpec
from repro.cluster import Cluster, RankGrid
from repro.obs import comm_metrics, gantt_of
from repro.runtime import TaskRuntime


# Workset at s=32 is ~8 MB, comfortably above the scaled 4 MB L3, so the
# DRAM-vs-cache effects the paper measures are visible.
S, ITERS, FPI = 32, 4, 25.0


def lulesh_prog(tpl, opt_a=True, **kw):
    return build_task_program(
        LuleshConfig(s=S, iterations=ITERS, tpl=tpl, flops_per_item=FPI), opt_a=opt_a, **kw
    )


def mpc(opts="abc", **kw):
    return scaled_mpc(scaled_skylake(8), opts=opts, n_threads=8, **kw)


@pytest.fixture(scope="module")
def sweep_abc():
    base = ExperimentSpec(
        app="lulesh",
        config=mpc("abc"),
        params={"s": S, "iterations": ITERS, "tpl": 2, "flops_per_item": FPI},
    )
    return run_spec_sweep(base, [2, 4, 8, 16, 32, 64, 128])


class TestFig1DiscoveryBound:
    def test_discovery_grows_with_tpl(self, sweep_abc):
        disc = sweep_abc.series("discovery")
        assert disc[-1] > 3 * disc[0]

    def test_becomes_discovery_bound(self, sweep_abc):
        assert sweep_abc.crossover_tpl() is not None

    def test_total_is_v_shaped(self, sweep_abc):
        totals = sweep_abc.series("total")
        best = int(np.argmin(totals))
        assert 0 < best < len(totals) - 1

    def test_finest_point_discovery_dominates(self, sweep_abc):
        p = sweep_abc.points[-1]
        assert p.discovery >= 0.9 * p.total


class TestFig2CacheBehaviour:
    def test_idle_high_at_coarse_grain(self, sweep_abc):
        coarse, mid = sweep_abc.points[0], sweep_abc.best("total")
        assert coarse.idle_avg > mid.idle_avg

    def test_dram_traffic_drops_with_refinement(self, sweep_abc):
        """Fig 2e: L3 misses fall from coarse to best grain (reuse)."""
        coarse = sweep_abc.points[0].result.mem.bytes_dram
        best = sweep_abc.best("total").result.mem.bytes_dram
        assert best < coarse

    def test_discovery_bound_degrades_cache_use(self, sweep_abc):
        """Breadth-first fallback at the finest grain raises DRAM traffic
        back up (Fig 2e right side)."""
        best = sweep_abc.best("total").result.mem.bytes_dram
        finest = sweep_abc.points[-1].result.mem.bytes_dram
        assert finest > best


class TestTable1NonOverlapped:
    def test_full_tdg_knowledge_reduces_misses_and_idle(self):
        # The paper runs Table 1 at the *finest* grain (4,608 TPL), where
        # normal execution is discovery-bound — that is where full TDG
        # knowledge recovers the depth-first locality.
        tpl = 128
        prog = lulesh_prog(tpl)
        r_norm = TaskRuntime(prog, mpc("abc")).run()
        r_non = TaskRuntime(prog, mpc("abc", non_overlapped=True)).run()
        # §2.3.4: non-overlapped has less idle + fewer L3 misses...
        assert r_non.mem.bytes_dram < r_norm.mem.bytes_dram
        # ...but a slower total because discovery is serialized first.
        assert r_non.makespan > r_norm.makespan


class TestTable2Optimizations:
    def test_abc_discovery_faster_than_none(self):
        prog_none = lulesh_prog(32, opt_a=False)
        prog_a = lulesh_prog(32, opt_a=True)
        d_none = TaskRuntime(prog_none, mpc("")).run().discovery_busy
        d_abc = TaskRuntime(prog_a, mpc("abc")).run().discovery_busy
        assert d_abc < d_none

    def test_persistence_slashes_discovery(self):
        prog = lulesh_prog(32)
        d_abc = TaskRuntime(prog, mpc("abc")).run().discovery_busy
        d_p = TaskRuntime(prog, mpc("abcp")).run().discovery_busy
        assert d_abc / d_p > 4.0  # paper: 15x at 16 iterations

    def test_first_persistent_iteration_dominates_its_discovery(self):
        # Replay iterations cost ~nothing compared to iteration 0, so the
        # 4-iteration persistent discovery barely exceeds a 1-iteration one.
        prog_1 = build_task_program(
            LuleshConfig(s=S, iterations=1, tpl=32, flops_per_item=FPI), opt_a=True
        )
        prog_4 = lulesh_prog(32)
        d1 = TaskRuntime(prog_1, mpc("abcp")).run().discovery_busy
        d4 = TaskRuntime(prog_4, mpc("abcp")).run().discovery_busy
        assert d4 < 1.5 * d1


class TestFig6TaskVsParallelFor:
    def test_optimized_tasks_beat_parallel_for(self, sweep_abc):
        cfg = LuleshConfig(s=S, iterations=ITERS, tpl=4, flops_per_item=FPI)
        res = Cluster(1).run([build_for_program(cfg)], [mpc()])
        t_for = res.results[0].makespan
        t_task = sweep_abc.best("total").total
        assert t_task < t_for

    def test_work_time_improves_over_parallel_for(self, sweep_abc):
        cfg = LuleshConfig(s=S, iterations=ITERS, tpl=4, flops_per_item=FPI)
        res = Cluster(1).run([build_for_program(cfg)], [mpc()])
        w_for = res.results[0].work_avg
        w_task = sweep_abc.best("total").work_avg
        assert w_task < w_for


class TestFig7Fig8Distributed:
    @pytest.fixture(scope="class")
    def cluster_runs(self):
        from repro.analysis.calibration import scaled_epyc, scaled_network

        grid = RankGrid.cubic(8)
        cfg = LuleshConfig(s=16, iterations=4, tpl=16, flops_per_item=FPI)
        out = {}
        for label, opts in (("opt", "abcp"), ("noopt", "")):
            rc = scaled_mpc(scaled_epyc(), opts=opts, n_threads=4)
            spec = ExperimentSpec(
                app="lulesh",
                config=replace(rc, trace=True),
                params=asdict(cfg),
                ranks=grid.n_ranks,
                seed=rc.seed,
                network=scaled_network(),
            )
            out[label] = run_experiment_cluster(spec, grid=grid)
        return out

    def test_all_ranks_complete(self, cluster_runs):
        for res in cluster_runs.values():
            assert all(r.n_tasks > 0 for r in res.results)

    def test_optimized_overlap_not_worse(self, cluster_runs):
        def ratio(res):
            pr = [r for r in res.results if r.extra.get("profiled")][0]
            return comm_metrics(pr.comm, pr.trace, pr.n_threads).overlap_ratio

        assert ratio(cluster_runs["opt"]) >= ratio(cluster_runs["noopt"]) - 0.15

    def test_gantt_shows_persistent_barrier(self, cluster_runs):
        pr = [r for r in cluster_runs["opt"].results if r.extra.get("profiled")][0]
        g = gantt_of(pr.trace, pr.n_threads, width=200)
        assert not g.iterations_interleaved()


class TestHpcgShape:
    def test_low_overlap_potential(self):
        """§4.3: little work is available concurrent with the dots'
        allreduces — overlap ratio stays low."""
        from repro.analysis.calibration import scaled_network
        from repro.apps.hpcg import HpcgConfig

        grid = RankGrid(2, 1, 1)
        cfg = HpcgConfig(n_rows=4096, iterations=4, tpl=16, spmv_sub=4)
        rc = scaled_mpc(opts="abc", n_threads=4)
        spec = ExperimentSpec(
            app="hpcg",
            config=replace(rc, trace=True),
            params=asdict(cfg),
            ranks=grid.n_ranks,
            seed=rc.seed,
            network=scaled_network(),
        )
        res = run_experiment_cluster(spec, grid=grid)
        pr = [r for r in res.results if r.extra.get("profiled")][0]
        m = comm_metrics(pr.comm, pr.trace, pr.n_threads)
        assert m.overlap_ratio < 0.5


class TestCholeskyShape:
    def test_discovery_negligible_fraction(self):
        """§4.4: coarse regular tasks — discovery <2% of total."""
        from repro.apps.cholesky import CholeskyConfig, build_task_programs

        c = CholeskyConfig(n=1024, b=128, iterations=2)
        prog = build_task_programs(c)[0]
        r = TaskRuntime(prog, scaled_mpc(scaled_skylake(8), opts="abc", n_threads=8)).run()
        assert r.discovery_busy < 0.05 * r.makespan
