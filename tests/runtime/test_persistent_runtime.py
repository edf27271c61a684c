"""Persistent-TDG runtime behavior (§3.2 semantics)."""

import pytest

from repro.core import OptimizationSet, ProgramBuilder
from repro.core.persistent import PersistentStructureError
from repro.core.program import IterationSpec, Program, TaskSpec
from repro.core.task import DepMode
from repro.memory import tiny_test_machine
from repro.obs import iteration_spans
from repro.runtime import RuntimeConfig, TaskRuntime


def cfg(**kw):
    kw.setdefault("machine", tiny_test_machine(4))
    kw.setdefault("opts", OptimizationSet.parse("abcp"))
    return RuntimeConfig(**kw)


def iterative_program(iterations=4, width=8, persistent=True):
    b = ProgramBuilder("iter", persistent_candidate=persistent)
    for _ in range(iterations):
        with b.iteration():
            b.task("head", out=["x"], flops=500.0, fp_bytes=16)
            for i in range(width):
                b.task(f"w{i}", inp=["x"], out=[("y", i)], flops=2000.0, fp_bytes=32)
            b.task("tail", inp=[("y", i) for i in range(width)], flops=500.0, fp_bytes=16)
    return b.build()


class TestReplaySemantics:
    def test_all_iterations_execute(self):
        prog = iterative_program(5, 8)
        r = TaskRuntime(prog, cfg()).run()
        assert r.n_tasks == 5 * 10

    def test_edges_created_once(self):
        prog = iterative_program(5, 8)
        r = TaskRuntime(prog, cfg()).run()
        # One iteration's worth of edges only.
        assert r.edges.created == 8 + 8
        # But released (traversed) once per iteration that used them.
        assert r.extra["edges_released"] >= r.edges.created

    def test_replay_discovery_cheaper(self):
        prog_p = iterative_program(8, 8, persistent=True)
        r_p = TaskRuntime(prog_p, cfg(opts=OptimizationSet.parse("abcp"))).run()
        r_np = TaskRuntime(prog_p, cfg(opts=OptimizationSet.parse("abc"))).run()
        assert r_p.discovery_busy < 0.6 * r_np.discovery_busy

    def test_opt_p_requires_candidate_program(self):
        """A non-annotated program never persists, even with (p) enabled."""
        prog = iterative_program(4, 4, persistent=False)
        rt = TaskRuntime(prog, cfg(opts=OptimizationSet.parse("abcp")))
        r = rt.run()
        assert rt.table.persistent is False
        assert r.n_tasks == 4 * 6

    def test_barrier_no_iteration_interleaving(self):
        """The implicit barrier forbids tasks of iteration n+1 starting
        before iteration n completes (Fig. 8 bottom)."""
        prog = iterative_program(4, 8)
        r = TaskRuntime(prog, cfg(trace=True)).run()
        spans = iteration_spans(r.trace)
        for (_, _, end_n), (_, start_n1, _) in zip(spans, spans[1:]):
            assert start_n1 >= end_n - 1e-12

    def test_non_persistent_can_interleave(self):
        """Without (p), iteration n+1 work may start before n fully ends
        (only the dataflow serializes), so pipelining is possible."""
        b = ProgramBuilder("pipelined", persistent_candidate=True)
        for _ in range(3):
            with b.iteration():
                # Two independent chains: no cross-chain deps, so chains of
                # iteration n+1 can start while the other chain of n runs.
                b.task("a", inout=["xa"], flops=50_000.0)
                b.task("b", inout=["xb"], flops=1000.0)
        prog = b.build()
        r = TaskRuntime(prog, cfg(opts=OptimizationSet.parse("abc"), trace=True, n_threads=4)).run()
        (_, _, end_prev), (_, start_next, _) = iteration_spans(r.trace)[:2]
        assert start_next < end_prev

    def test_structure_divergence_detected(self):
        base = [
            TaskSpec(name="a", depends=((0, DepMode.INOUT),), flops=100.0),
            TaskSpec(name="b", depends=((0, DepMode.IN),), flops=100.0),
        ]
        diverged = [
            TaskSpec(name="a", depends=((0, DepMode.INOUT),), flops=100.0),
            TaskSpec(name="c", depends=((1, DepMode.IN),), flops=100.0),
        ]
        prog = Program(
            [
                IterationSpec(index=0, tasks=base),
                IterationSpec(index=1, tasks=diverged),
            ],
            persistent_candidate=True,
        )
        rt = TaskRuntime(prog, cfg())
        rt.start()
        with pytest.raises(PersistentStructureError):
            rt.engine.run()

    def test_firstprivate_cost_scales_replay(self):
        """Bigger firstprivate payloads make replay proportionally costlier."""
        def make(fp):
            b = ProgramBuilder("fp", persistent_candidate=True)
            for _ in range(6):
                with b.iteration():
                    for i in range(16):
                        b.task(f"t{i}", inout=[("x", i)], flops=100.0, fp_bytes=fp)
            return b.build()

        r_small = TaskRuntime(make(8), cfg()).run()
        r_big = TaskRuntime(make(4096), cfg()).run()
        assert r_big.discovery_busy > r_small.discovery_busy

    def test_bodies_refresh_per_iteration(self):
        log = []
        specs_by_iter = []
        for it in range(3):
            specs_by_iter.append(
                [TaskSpec(name="t", depends=((0, DepMode.INOUT),),
                          body=(lambda it=it: log.append(it)))]
            )
        prog = Program(
            [IterationSpec(index=k, tasks=specs_by_iter[k]) for k in range(3)],
            persistent_candidate=True,
        )
        TaskRuntime(prog, cfg(execute_bodies=True)).run()
        assert log == [0, 1, 2]

    def test_inter_iteration_edges_dropped(self):
        """The resolver reset at the barrier removes inter-iteration edges:
        a persistent run's materialized edge count equals one iteration."""
        prog = iterative_program(6, 4)
        r_p = TaskRuntime(prog, cfg()).run()
        prog1 = iterative_program(1, 4)
        r_1 = TaskRuntime(prog1, cfg(opts=OptimizationSet.parse("abc"), non_overlapped=True)).run()
        assert r_p.edges.created == r_1.edges.created
