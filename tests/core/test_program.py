"""Unit tests for the program builder API."""

import pytest

from repro.core.program import (
    CommKind,
    CommSpec,
    IterationSpec,
    Program,
    ProgramBuilder,
    TaskSpec,
)
from repro.core.task import DepMode


class TestTaskSpec:
    def test_defaults(self):
        s = TaskSpec(name="t")
        assert s.depends == ()
        assert s.flops == 0.0
        assert s.comm is None

    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec(name="t", flops=-1.0)

    def test_negative_fp_bytes_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec(name="t", fp_bytes=-1)


class TestCommSpec:
    def test_allreduce_needs_no_peer(self):
        CommSpec(kind=CommKind.IALLREDUCE, nbytes=8)

    def test_p2p_needs_peer(self):
        with pytest.raises(ValueError, match="peer"):
            CommSpec(kind=CommKind.ISEND, nbytes=8)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            CommSpec(kind=CommKind.IALLREDUCE, nbytes=-1)


class TestProgramBuilder:
    def test_simple_build(self):
        b = ProgramBuilder("p")
        with b.iteration():
            b.task("t0", out=["x"])
            b.task("t1", inp=["x"])
        prog = b.build()
        assert prog.n_iterations == 1
        assert prog.n_tasks == 2

    def test_dep_modes_lowered_in_order(self):
        b = ProgramBuilder("p")
        with b.iteration():
            spec = b.task("t", inp=["a"], out=["b"], inout=["c"], inoutset=["d"])
        modes = [m for _, m in spec.depends]
        assert modes == [DepMode.IN, DepMode.OUT, DepMode.INOUT, DepMode.INOUTSET]

    def test_addresses_interned(self):
        b = ProgramBuilder("p")
        with b.iteration():
            s0 = b.task("t0", out=["x"])
            s1 = b.task("t1", inp=["x"])
        assert s0.depends[0][0] == s1.depends[0][0]

    def test_task_outside_iteration_rejected(self):
        b = ProgramBuilder("p")
        with pytest.raises(RuntimeError, match="iteration"):
            b.task("t")

    def test_nested_iterations_rejected(self):
        b = ProgramBuilder("p")
        with pytest.raises(RuntimeError, match="nested"):
            with b.iteration():
                with b.iteration():
                    pass

    def test_build_inside_iteration_rejected(self):
        b = ProgramBuilder("p")
        ctx = b.iteration()
        ctx.__enter__()
        with pytest.raises(RuntimeError):
            b.build()

    def test_failed_iteration_discarded(self):
        b = ProgramBuilder("p")
        with pytest.raises(KeyError):
            with b.iteration():
                b.task("t")
                raise KeyError("boom")
        assert b.build().n_iterations == 0

    def test_loop_labels(self):
        b = ProgramBuilder("p")
        with b.iteration():
            b.task("t0", loop="alpha")
            b.task("t1", loop="beta")
            b.task("t2", loop="alpha")
        assert b.loop_labels == {"alpha": 0, "beta": 1}

    def test_taskloop(self):
        b = ProgramBuilder("p")
        with b.iteration():
            specs = b.taskloop(
                "work",
                4,
                dep_fn=lambda i: {"inp": [("x", i)], "out": [("y", i)]},
                flops_per_task=10.0,
            )
        assert len(specs) == 4
        assert all(s.flops == 10.0 for s in specs)
        assert specs[0].loop_id == specs[3].loop_id

    def test_taskloop_bad_clause_rejected(self):
        b = ProgramBuilder("p")
        with pytest.raises(ValueError, match="unknown clauses"):
            with b.iteration():
                b.taskloop("w", 2, dep_fn=lambda i: {"bogus": [1]})

    def test_taskloop_zero_tasks_rejected(self):
        b = ProgramBuilder("p")
        with pytest.raises(ValueError):
            with b.iteration():
                b.taskloop("w", 0, dep_fn=lambda i: {})


class TestProgram:
    def test_from_template_shares_specs(self):
        specs = [TaskSpec(name="t")]
        prog = Program.from_template(specs, 4)
        assert prog.n_iterations == 4
        assert prog.n_tasks == 4
        assert prog.iterations[0].tasks is prog.iterations[3].tasks

    def test_n_tasks_skips_taskwait_markers(self):
        """A ``taskwait`` marker submits no task, so it is not counted."""
        from repro.apps.lulesh import (
            LuleshConfig,
            build_task_program,
            tasks_per_iteration,
        )
        from repro.cluster.mapping import RankGrid

        cfg = LuleshConfig(s=12, iterations=2, tpl=8)
        nbs = RankGrid.cubic(8).neighbors(0)
        prog = build_task_program(cfg, neighbors=nbs, taskwait_around_comm=True)
        n_markers = sum(s.barrier for _, s in prog.specs())
        assert n_markers == 4
        assert prog.n_tasks == 2 * tasks_per_iteration(cfg, len(nbs)) == 586
        marker = TaskSpec(name="taskwait", barrier=True)
        assert Program.from_template([marker], 3).n_tasks == 0

    def test_from_template_bad_iterations(self):
        with pytest.raises(ValueError):
            Program.from_template([TaskSpec(name="t")], 0)

    def test_specs_order(self):
        b = ProgramBuilder("p")
        for _ in range(2):
            with b.iteration():
                b.task("a")
                b.task("b")
        prog = b.build()
        order = [(it, s.name) for it, s in prog.specs()]
        assert order == [(0, "a"), (0, "b"), (1, "a"), (1, "b")]

    def test_type_checked_iterations(self):
        with pytest.raises(TypeError):
            Program([("not", "an", "iteration")])

    def test_iteration_index_must_match_position(self):
        """The DES, the static compile and the verifier all read an
        iteration's index as its position, so any other numbering is
        refused up front instead of each layer reading it differently."""
        it = IterationSpec(index=1, tasks=[TaskSpec("a", depends=((0, DepMode.OUT),))])
        with pytest.raises(ValueError, match="position 0 has index 1"):
            Program([it], persistent_candidate=True)
        assert Program.from_template([TaskSpec("a")], 3).n_iterations == 3
        b = ProgramBuilder("p")
        for _ in range(3):
            with b.iteration():
                b.task("a")
        prog = b.build()
        assert [it.index for it in prog.iterations] == [0, 1, 2]


class TestDuplicateDependGuard:
    def test_duplicate_same_clause_rejected(self):
        b = ProgramBuilder("p")
        with b.iteration():
            with pytest.raises(ValueError, match="duplicate depend item"):
                b.task("t", inp=["x", "x"])

    def test_failing_task_not_submitted(self):
        b = ProgramBuilder("p")
        with b.iteration():
            b.task("ok", out=["x"])
            with pytest.raises(ValueError, match="duplicate depend item"):
                b.task("t", inout=["y", "y"])
        prog = b.build()
        assert prog.n_tasks == 1

    def test_same_addr_different_modes_allowed(self):
        b = ProgramBuilder("p")
        with b.iteration():
            spec = b.task("t", inp=["x"], out=["x"])
        assert len(spec.depends) == 2

    def test_taskloop_duplicates_rejected(self):
        b = ProgramBuilder("p")
        with b.iteration():
            with pytest.raises(ValueError, match="duplicate depend item"):
                b.taskloop("l", 2, dep_fn=lambda i: {"inp": ["x", "x"]})


class TestTaskwait:
    def test_taskwait_marker(self):
        b = ProgramBuilder("p")
        with b.iteration():
            b.task("a")
            spec = b.taskwait()
            b.task("b")
        assert spec.barrier
        prog = b.build()
        assert [s.name for s in prog.iterations[0].tasks] == ["a", "taskwait", "b"]

    def test_taskwait_outside_iteration_rejected(self):
        b = ProgramBuilder("p")
        with pytest.raises(RuntimeError, match="iteration"):
            b.taskwait()


class TestInoutsetEdgeAccounting:
    """Program-level m*n vs m+n accounting for optimization (c) (Fig. 4)."""

    def build(self, m=4, n=6):
        b = ProgramBuilder("fanin")
        with b.iteration():
            for i in range(m):
                b.task(f"w{i}", inoutset=["force"])
            for i in range(n):
                b.task(f"r{i}", inp=["force"])
        return b.build()

    def discover(self, opts, m, n):
        from repro.core.optimizations import OptimizationSet
        from repro.verify.static_graph import discover_static

        return discover_static(self.build(m, n), OptimizationSet.parse(opts))

    def test_m_times_n_without_c(self):
        tdg = self.discover("ab", m=4, n=6)
        assert tdg.compiled.stats.created == 4 * 6
        assert tdg.compiled.stats.redirect_nodes == 0

    def test_m_plus_n_with_c(self):
        tdg = self.discover("abc", m=4, n=6)
        assert tdg.compiled.stats.created == 4 + 6
        assert tdg.compiled.stats.redirect_nodes == 1
        assert tdg.compiled.n_stubs == 1
