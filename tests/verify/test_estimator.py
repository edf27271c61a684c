"""Discovery estimator: exact edge prediction and the Fig-1 bound direction."""

import pytest

from repro.analysis.calibration import scaled_llvm, scaled_skylake
from repro.apps.lulesh import LuleshConfig, build_task_program
from repro.core.optimizations import OptimizationSet
from repro.core.program import ProgramBuilder
from repro.memory.machine import tiny_test_machine
from repro.runtime import presets
from repro.runtime.runtime import TaskRuntime
from repro.verify.estimator import check_discovery_bound, estimate_discovery
from repro.verify.static_graph import discover_static

ABCP = OptimizationSet.parse("abcp")


class TestExactEdgeCounts:
    """The acceptance bar: static counts == DES counts, to the edge."""

    @pytest.mark.parametrize("tpl", [8, 32])
    def test_lulesh_persistent_matches_des(self, tpl):
        prog = build_task_program(
            LuleshConfig(s=16, iterations=3, tpl=tpl), opt_a=True
        )
        tdg = discover_static(prog, ABCP)
        cfg = presets.mpc_omp(tiny_test_machine(4), opts=ABCP, n_threads=4)
        res = TaskRuntime(prog, cfg).run()
        assert tdg.compiled.stats.created == res.edges.created
        assert res.edges.pruned == 0
        assert tdg.compiled.stats.duplicates_skipped == res.edges.duplicates_skipped
        assert tdg.compiled.stats.redirect_nodes == res.edges.redirect_nodes

    def test_lulesh_non_overlapped_matches_des(self):
        from dataclasses import replace

        opts = OptimizationSet.parse("abc")
        prog = build_task_program(
            LuleshConfig(s=16, iterations=2, tpl=8), opt_a=True
        )
        tdg = discover_static(prog, opts)
        cfg = replace(
            presets.mpc_omp(tiny_test_machine(4), opts=opts, n_threads=4),
            non_overlapped=True,
        )
        res = TaskRuntime(prog, cfg).run()
        assert tdg.compiled.stats.created == res.edges.created
        assert res.edges.pruned == 0


class TestEstimate:
    def test_shape_and_costs_populated(self):
        prog = build_task_program(
            LuleshConfig(s=16, iterations=3, tpl=8), opt_a=True
        )
        est, tdg = estimate_discovery(prog, ABCP, scaled_skylake())
        assert est.persistent
        assert est.n_tasks == tdg.compiled.n_user_tasks
        assert est.edges_created == tdg.compiled.stats.created
        assert est.discovery_total == pytest.approx(sum(tdg.iteration_costs))
        assert est.steady_iteration_cost < est.first_iteration_cost
        assert est.t1 > est.t_inf > 0
        assert est.depth > 1
        assert est.exec_estimate > 0

    def test_threads_default_to_machine_cores(self):
        prog = build_task_program(
            LuleshConfig(s=8, iterations=1, tpl=8), opt_a=True
        )
        m = scaled_skylake()
        est, _ = estimate_discovery(prog, ABCP, m)
        assert est.threads == m.n_cores

    def test_to_dict_roundtrips_counts(self):
        prog = build_task_program(
            LuleshConfig(s=8, iterations=1, tpl=8), opt_a=True
        )
        est, _ = estimate_discovery(prog, ABCP, scaled_skylake())
        d = est.to_dict()
        assert d["edges"]["created"] == est.edges_created
        assert d["discovery"]["total"] == est.discovery_total


class TestDiscoveryBoundDirection:
    """Fig. 1: the static warning agrees with the DES crossover direction."""

    @pytest.mark.parametrize("tpl,expect_bound", [(4, False), (256, True)])
    def test_direction_agreement(self, tpl, expect_bound):
        machine = scaled_skylake()
        cfg = scaled_llvm(machine, name="llvm")
        prog = build_task_program(
            LuleshConfig(s=48, iterations=8, tpl=tpl), opt_a=False
        )
        res = TaskRuntime(prog, cfg).run()
        des_bound = res.discovery_busy >= res.execution_time
        est, _ = estimate_discovery(
            prog, cfg.opts, machine,
            threads=cfg.n_threads or machine.n_cores, costs=cfg.discovery,
        )
        # Coarse grains: neither sees a discovery bound; fine grains: both do.
        assert est.discovery_bound is expect_bound
        assert des_bound is expect_bound

    def test_warning_carries_numbers(self):
        b = ProgramBuilder("tiny-tasks")
        with b.iteration():
            for i in range(50):
                b.task(f"t{i}", out=[i], flops=1.0)
        est, _ = estimate_discovery(
            b.build(), OptimizationSet.parse("ab"), scaled_skylake()
        )
        assert est.discovery_bound
        [f] = check_discovery_bound(est)
        assert f.rule == "V-DISC-BOUND"
        assert f.data["ratio"] > 1

    def test_no_warning_when_execution_dominates(self):
        b = ProgramBuilder("fat-tasks")
        with b.iteration():
            for i in range(4):
                b.task(f"t{i}", out=[i], flops=1e9)
        est, _ = estimate_discovery(
            b.build(), OptimizationSet.parse("ab"), scaled_skylake()
        )
        assert not est.discovery_bound
        assert check_discovery_bound(est) == []


class TestDegenerateGraphs:
    """The estimator must stay total on empty and trivial programs."""

    def test_empty_program(self):
        prog = ProgramBuilder("empty").build()
        est, tdg = estimate_discovery(
            prog, OptimizationSet.parse("ab"), scaled_skylake()
        )
        assert est.n_tasks == 0
        assert est.edges_created == 0
        assert est.discovery_total == 0.0
        assert tdg.compiled.stats.created == 0
        assert check_discovery_bound(est) == []

    def test_single_task(self):
        b = ProgramBuilder("one")
        with b.iteration():
            b.task("only", out=["x"], flops=1e6)
        est, tdg = estimate_discovery(
            b.build(), OptimizationSet.parse("ab"), scaled_skylake()
        )
        assert est.n_tasks == 1
        assert est.edges_created == 0
        assert est.exec_estimate > 0
        assert not est.discovery_bound

    def test_all_independent_tasks(self):
        # A pure fan: no dependences at all; the critical path is one
        # task and the edge count must stay zero.
        b = ProgramBuilder("fan")
        with b.iteration():
            for i in range(32):
                b.task(f"t{i}", out=[("x", i)], flops=1e7)
        est, tdg = estimate_discovery(
            b.build(), OptimizationSet.parse("ab"), scaled_skylake()
        )
        assert est.n_tasks == 32
        assert est.edges_created == 0
        assert tdg.compiled.stats.created == 0
        # Perfectly parallel: the exec estimate is bounded by the
        # work-law term, not a chain.
        assert est.exec_estimate > 0
