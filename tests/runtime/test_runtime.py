"""Behavioral tests of the task runtime simulator."""

import gc

import numpy as np
import pytest

from repro.core import OptimizationSet, ProgramBuilder, ThrottleConfig
from repro.core.program import CommKind, CommSpec, Program
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig, TaskRuntime
from repro.sim.table import TaskTable


def cfg(**kw):
    kw.setdefault("machine", tiny_test_machine(4))
    return RuntimeConfig(**kw)


def chain_program(n, iterations=1, flops=1000.0):
    b = ProgramBuilder("chain", persistent_candidate=True)
    for _ in range(iterations):
        with b.iteration():
            for i in range(n):
                b.task(f"t{i}", inp=["x"] if i else [], inout=["x"], flops=flops)
    return b.build()


def wide_program(n, flops=10_000.0):
    b = ProgramBuilder("wide")
    with b.iteration():
        for i in range(n):
            b.task(f"t{i}", out=[("y", i)], flops=flops)
    return b.build()


class TestExecutionOrdering:
    def test_chain_executes_in_order(self):
        prog = chain_program(10)
        rc = cfg(trace=True)
        r = TaskRuntime(prog, rc).run()
        order = np.asarray(r.trace.span_start)[np.argsort(r.trace.span_tid)]
        assert np.all(np.diff(order) > 0)

    def test_edges_respected(self):
        """Every materialized edge orders completion before start."""
        b = ProgramBuilder("diamond")
        with b.iteration():
            b.task("src", out=["x"], flops=500.0)
            for i in range(6):
                b.task(f"mid{i}", inp=["x"], out=[("y", i)], flops=500.0)
            b.task("sink", inp=[("y", i) for i in range(6)], flops=500.0)
        rt = TaskRuntime(b.build(), cfg(trace=True))
        r = rt.run()
        tb = rt.table
        for pred, succ in tb.iter_edges():
            assert tb.completed_at[pred] <= tb.started_at[succ] + 1e-12

    def test_all_tasks_complete(self):
        prog = wide_program(50)
        r = TaskRuntime(prog, cfg()).run()
        assert r.n_tasks == 50

    def test_empty_program(self):
        prog = Program([], name="empty")
        r = TaskRuntime(prog, cfg()).run()
        assert r.n_tasks == 0
        assert r.makespan == 0.0


class TestTraceLifetime:
    def test_kept_traced_result_frees_task_table(self):
        """``RunResult.trace`` holds no reference to the run's TDG."""

        def live_tables():
            # TaskTable has __slots__ and no __weakref__: count instances.
            gc.collect()
            return sum(isinstance(o, TaskTable) for o in gc.get_objects())

        before = live_tables()
        rt = TaskRuntime(chain_program(6, iterations=2), cfg(trace=True))
        result = rt.run()
        del rt
        assert result.trace.n_spans > 0
        assert live_tables() == before


class TestParallelism:
    def test_independent_tasks_run_in_parallel(self):
        n_threads = 4
        prog = wide_program(40, flops=100_000.0)
        r = TaskRuntime(prog, cfg(n_threads=n_threads)).run()
        # Sequential work time is ~40 * 100us = 4ms; with 4 threads the
        # makespan must be well under half the serial time.
        serial = r.work_total
        assert r.makespan < 0.5 * serial

    def test_chain_has_no_parallelism(self):
        prog = chain_program(20, flops=50_000.0)
        r = TaskRuntime(prog, cfg(n_threads=4)).run()
        assert r.makespan >= r.work_total * 0.95

    def test_single_thread(self):
        prog = wide_program(10)
        r = TaskRuntime(prog, cfg(n_threads=1)).run()
        assert r.n_tasks == 10

    def test_work_conserved_across_thread_counts(self):
        flops_total = []
        for n in (1, 2, 4):
            r = TaskRuntime(wide_program(20, flops=50_000.0), cfg(n_threads=n)).run()
            flops_total.append(r.work_total)
        # Same tasks, same flop time; memory time may differ slightly with
        # contention, so allow 30%.
        assert max(flops_total) < 1.3 * min(flops_total)


class TestAccounting:
    def test_breakdown_identity(self):
        prog = wide_program(30)
        r = TaskRuntime(prog, cfg(n_threads=4)).run()
        per_thread = r.work + r.overhead
        per_thread = per_thread.copy()
        per_thread[0] += r.discovery_busy
        assert np.all(per_thread <= r.makespan + 1e-9)
        assert np.allclose(r.idle, r.makespan - per_thread, atol=1e-12)

    def test_idle_non_negative(self):
        r = TaskRuntime(chain_program(5), cfg(n_threads=4)).run()
        assert np.all(r.idle >= 0)

    def test_discovery_span_within_makespan(self):
        r = TaskRuntime(wide_program(20), cfg()).run()
        a, b = r.discovery_span
        assert 0 <= a <= b <= r.makespan + 1e-12

    def test_tasks_edges_counted(self):
        rt = TaskRuntime(chain_program(10), cfg())
        r = rt.run()
        assert r.n_tasks == 10
        assert r.edges.created <= 9  # chain, possibly pruned

    def test_result_before_finish_raises(self):
        from repro.runtime.runtime import DeadlockError

        rt = TaskRuntime(wide_program(5), cfg())
        rt.start()
        with pytest.raises(DeadlockError):
            rt.result()

    def test_run_twice_rejected(self):
        rt = TaskRuntime(wide_program(5), cfg())
        rt.run()
        with pytest.raises(RuntimeError, match="twice"):
            rt.start()


class TestNonOverlapped:
    """Table 1's complementary experiment: discovery fully precedes execution."""

    def test_execution_starts_after_discovery(self):
        prog = wide_program(20)
        r = TaskRuntime(prog, cfg(non_overlapped=True, trace=True)).run()
        _, disc_end = r.discovery_span
        exec_start, _ = r.execution_span
        assert exec_start >= disc_end - 1e-12

    def test_no_pruning_of_race(self):
        """Non-overlapped discovery sees no completed predecessors."""
        prog = chain_program(20)
        r = TaskRuntime(prog, cfg(non_overlapped=True)).run()
        assert r.edges.pruned == 0
        assert r.edges.created == 19

    def test_total_exceeds_overlapped(self):
        prog = chain_program(30, flops=20_000.0)
        r_norm = TaskRuntime(prog, cfg()).run()
        r_non = TaskRuntime(prog, cfg(non_overlapped=True)).run()
        assert r_non.makespan >= r_norm.makespan * 0.99

    def test_incompatible_with_persistent(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            cfg(non_overlapped=True, opts=OptimizationSet.parse("p"))


class TestThrottling:
    def test_total_cap_bounds_live_tasks(self):
        prog = wide_program(100, flops=100_000.0)
        rc = cfg(throttle=ThrottleConfig(total_cap=8), n_threads=2)
        rt = TaskRuntime(prog, rc)
        live_high_water = 0
        orig = rt._task_armed

        def spy(*a, **k):
            nonlocal live_high_water
            orig(*a, **k)
            live_high_water = max(live_high_water, rt._alive)

        rt._task_armed = spy
        rt.start()
        rt.engine.run()
        r = rt.result()
        assert r.n_tasks == 100
        assert live_high_water <= 9  # cap + the one being created

    def test_producer_consumes_when_throttled(self):
        prog = wide_program(50, flops=100_000.0)
        rc = cfg(throttle=ThrottleConfig(total_cap=4), n_threads=2, trace=True)
        r = TaskRuntime(prog, rc).run()
        # Thread 0 (producer) must have executed some tasks.
        assert 0 in r.trace.span_worker

    def test_disabled_throttle_runs(self):
        prog = wide_program(50)
        rc = cfg(throttle=ThrottleConfig.disabled())
        assert TaskRuntime(prog, rc).run().n_tasks == 50


class TestDetachedComm:
    def test_allreduce_task_completes(self):
        b = ProgramBuilder("coll")
        with b.iteration():
            b.task("red", out=["dt"], flops=100.0,
                   comm=CommSpec(CommKind.IALLREDUCE, nbytes=8))
            b.task("work", inp=["dt"], flops=100.0)
        r = TaskRuntime(b.build(), cfg()).run()
        assert r.n_tasks == 2
        assert len(r.comm) == 1
        assert r.comm[0].kind == "iallreduce"
        assert r.comm[0].complete_time >= r.comm[0].post_time

    def test_successor_waits_for_detach(self):
        b = ProgramBuilder("coll")
        with b.iteration():
            b.task("red", out=["dt"], comm=CommSpec(CommKind.IALLREDUCE, nbytes=8))
            b.task("work", inp=["dt"], flops=100.0)
        rt = TaskRuntime(b.build(), cfg(trace=True))
        r = rt.run()
        tb = rt.table
        red, work = 0, 1
        assert tb.started_at[work] >= tb.completed_at[red] - 1e-12
        # Detached completion happens strictly after the body returned.
        assert tb.completed_at[red] > tb.started_at[red]


class TestSchedulerPolicies:
    def test_fifo_and_lifo_both_complete(self):
        prog = chain_program(10, iterations=2)
        for sched in ("lifo-df", "fifo-bf"):
            r = TaskRuntime(prog, cfg(scheduler=sched)).run()
            assert r.n_tasks == 20

    def test_depth_first_improves_locality(self):
        """Successor-on-same-worker reuse: LIFO-DF must generate fewer
        DRAM bytes than FIFO-BF on a producer-consumer loop nest."""
        b = ProgramBuilder("locality")
        with b.iteration():
            for loop in range(8):
                for i in range(16):
                    b.task(
                        f"L{loop}[{i}]",
                        inp=[("v", loop - 1, i)] if loop else [],
                        out=[("v", loop, i)],
                        flops=2000.0,
                        footprint=((i, 4096),),
                    )
        prog = b.build()
        dram = {}
        for sched in ("lifo-df", "fifo-bf"):
            r = TaskRuntime(prog, cfg(scheduler=sched, n_threads=4)).run()
            dram[sched] = r.mem.bytes_dram
        assert dram["lifo-df"] <= dram["fifo-bf"]


class TestStubs:
    def test_redirect_stub_not_counted_as_task(self):
        b = ProgramBuilder("ioset")
        with b.iteration():
            for i in range(4):
                b.task(f"X{i}", inoutset=["x"], flops=100.0)
            for j in range(4):
                b.task(f"Y{j}", inp=["x"], flops=100.0)
        rc = cfg(opts=OptimizationSet.parse("c"), non_overlapped=True)
        r = TaskRuntime(b.build(), rc).run()
        assert r.n_tasks == 8
        assert r.edges.redirect_nodes == 1
