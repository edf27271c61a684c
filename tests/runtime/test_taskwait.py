"""Tests for the taskwait marker (§4.1 ablation support)."""

import pytest

from repro.core import OptimizationSet
from repro.core.program import CommKind, CommSpec, IterationSpec, Program, TaskSpec
from repro.core.task import DepMode
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig, TaskRuntime


def cfg(**kw):
    kw.setdefault("machine", tiny_test_machine(4))
    return RuntimeConfig(**kw)


def program_with_taskwait(iterations=1):
    specs = [
        TaskSpec(name="a", depends=((0, DepMode.OUT),), flops=5000.0),
        TaskSpec(name="b", depends=((1, DepMode.OUT),), flops=5000.0),
        TaskSpec(name="taskwait", barrier=True),
        TaskSpec(name="c", depends=((2, DepMode.OUT),), flops=5000.0),
    ]
    return Program.from_template(specs, iterations, persistent_candidate=True)


class TestTaskwaitSpec:
    def test_barrier_cannot_carry_deps(self):
        with pytest.raises(ValueError, match="taskwait"):
            TaskSpec(name="tw", barrier=True, depends=((0, DepMode.IN),))

    def test_barrier_cannot_carry_comm(self):
        with pytest.raises(ValueError, match="taskwait"):
            TaskSpec(name="tw", barrier=True,
                     comm=CommSpec(CommKind.IALLREDUCE, 8))


class TestTaskwaitExecution:
    def test_blocks_producer(self):
        prog = program_with_taskwait()
        rt = TaskRuntime(prog, cfg(trace=True))
        r = rt.run()
        assert r.n_tasks == 3
        t = r.trace
        names = t.span_names()
        start_c = t.span_start[names.index("c")]
        end_ab = max(t.span_end[names.index("a")], t.span_end[names.index("b")])
        assert start_c >= end_ab - 1e-12

    def test_marker_only_program_walks_its_markers(self):
        """A program of markers alone counts no task but is not empty: the
        producer still walks every marker and emits its barrier hook."""
        marker_only = Program.from_template(
            [TaskSpec(name="taskwait", barrier=True)], 2
        )
        empty = Program([IterationSpec(index=0), IterationSpec(index=1)])
        hooks = {}
        for label, prog in (("markers", marker_only), ("empty", empty)):
            assert prog.n_tasks == 0
            rt = TaskRuntime(prog, cfg())
            seen = hooks[label] = []
            rt.bus.subscribe("barrier", lambda kind, now: seen.append(kind))
            r = rt.run()
            assert r.n_tasks == 0 and r.makespan == 0.0
        assert hooks == {"markers": ["taskwait", "taskwait"], "empty": []}

    def test_without_taskwait_c_runs_concurrently(self):
        specs = [
            TaskSpec(name="a", depends=((0, DepMode.OUT),), flops=50_000.0),
            TaskSpec(name="c", depends=((2, DepMode.OUT),), flops=50_000.0),
        ]
        prog = Program.from_template(specs, 1)
        r = TaskRuntime(prog, cfg(trace=True)).run()
        t = r.trace
        names = t.span_names()
        assert t.span_start[names.index("c")] < t.span_end[names.index("a")]

    def test_persistent_replay_honors_taskwait(self):
        prog = program_with_taskwait(iterations=3)
        r = TaskRuntime(prog, cfg(opts=OptimizationSet.parse("abcp"), trace=True)).run()
        assert r.n_tasks == 9
        t = r.trace
        spans = list(zip(t.span_names(), t.span_iteration, t.span_start, t.span_end))
        for it in range(3):
            start = {n: s for n, i, s, _ in spans if i == it}
            end = {n: e for n, i, _, e in spans if i == it}
            assert start["c"] >= max(end["a"], end["b"]) - 1e-12

    def test_taskwait_position_change_detected(self):
        from repro.core.persistent import PersistentStructureError

        it0 = [
            TaskSpec(name="a", depends=((0, DepMode.OUT),)),
            TaskSpec(name="taskwait", barrier=True),
            TaskSpec(name="b", depends=((1, DepMode.OUT),)),
        ]
        it1 = [
            TaskSpec(name="a", depends=((0, DepMode.OUT),)),
            TaskSpec(name="b", depends=((1, DepMode.OUT),)),
            TaskSpec(name="taskwait", barrier=True),
        ]
        prog = Program(
            [IterationSpec(index=0, tasks=it0), IterationSpec(index=1, tasks=it1)],
            persistent_candidate=True,
        )
        rt = TaskRuntime(prog, cfg(opts=OptimizationSet.parse("p")))
        rt.start()
        with pytest.raises(PersistentStructureError, match="taskwait"):
            rt.engine.run()


class TestLuleshTaskwaitAblation:
    def test_taskwait_variant_not_faster(self):
        """§4.1: bracketing communications with taskwait loses the overlap.

        The full effect (the paper's ~7%, reproduced at 7.4% by
        bench_fig7_distributed) needs the 26-neighbor communication volume
        of an interior rank; this 8-rank smoke config only checks the
        direction (taskwait never helps).
        """
        from repro.analysis.calibration import scaled_mpc, scaled_epyc
        from repro.apps.lulesh import LuleshConfig, build_task_program
        from repro.cluster import Cluster, RankGrid
        from repro.mpi.network import bxi_like

        grid = RankGrid.cubic(8)
        cfg_l = LuleshConfig(s=32, iterations=3, tpl=32, flops_per_item=25.0)
        times = {}
        for tw in (False, True):
            programs = [
                build_task_program(
                    cfg_l, opt_a=True, neighbors=grid.neighbors(r),
                    taskwait_around_comm=tw,
                )
                for r in range(8)
            ]
            cluster = Cluster(8, network=bxi_like())
            res = cluster.run(
                programs,
                [scaled_mpc(scaled_epyc(), opts="abc", n_threads=4) for _ in range(8)],
            )
            times[tw] = res.makespan
        assert times[True] >= times[False] * 0.99
