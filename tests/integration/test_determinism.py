"""Determinism: identical configs must produce bit-identical simulations.

EXPERIMENTS.md promises reruns reproduce every number exactly; these tests
hold the simulator to it (the event queue is tie-broken by sequence number
and all randomness flows through seeded generators).
"""

from dataclasses import asdict, replace

import numpy as np

from repro.analysis.calibration import (
    scaled_epyc,
    scaled_mpc,
    scaled_network,
    scaled_skylake,
)
from repro.apps.lulesh import LuleshConfig, build_task_program
from repro.campaign.runner import run_experiment_cluster
from repro.campaign.spec import ExperimentSpec
from repro.cluster import RankGrid
from repro.runtime import TaskRuntime


def single_rank_run():
    cfg = LuleshConfig(s=16, iterations=3, tpl=16, flops_per_item=25.0)
    prog = build_task_program(cfg, opt_a=True)
    return TaskRuntime(prog, scaled_mpc(scaled_skylake(8), opts="abcp",
                                        n_threads=8, trace=True)).run()


class TestDeterminism:
    def test_single_rank_bitwise_repeatable(self):
        a, b = single_rank_run(), single_rank_run()
        assert a.makespan == b.makespan
        assert a.discovery_busy == b.discovery_busy
        assert np.array_equal(a.work, b.work)
        assert np.array_equal(a.overhead, b.overhead)
        assert a.edges.created == b.edges.created
        assert a.mem.l3_misses == b.mem.l3_misses
        assert a.to_dict()["trace"] == b.to_dict()["trace"]

    def test_cluster_bitwise_repeatable(self):
        def run():
            cfg = scaled_mpc(scaled_epyc(), opts="abc", n_threads=4)
            spec = ExperimentSpec(
                app="lulesh",
                config=replace(cfg, trace=True),
                params=asdict(
                    LuleshConfig(s=12, iterations=2, tpl=8, flops_per_item=25.0)
                ),
                ranks=8,
                seed=cfg.seed,
                network=scaled_network(),
            )
            return run_experiment_cluster(spec, grid=RankGrid.cubic(8))

        a, b = run(), run()
        assert a.makespan == b.makespan
        for ra, rb in zip(a.results, b.results):
            assert ra.makespan == rb.makespan
            assert ra.edges.created == rb.edges.created

    def test_seed_changes_steal_decisions_not_correctness(self):
        from dataclasses import replace

        cfg = LuleshConfig(s=16, iterations=2, tpl=16, flops_per_item=25.0)
        prog = build_task_program(cfg, opt_a=True)
        base = scaled_mpc(scaled_skylake(8), opts="abc", n_threads=8)
        r1 = TaskRuntime(prog, replace(base, seed=1)).run()
        r2 = TaskRuntime(prog, replace(base, seed=2)).run()
        assert r1.n_tasks == r2.n_tasks
        # Timing may differ slightly through steal victims, but stays close.
        assert abs(r1.makespan - r2.makespan) < 0.5 * r1.makespan
