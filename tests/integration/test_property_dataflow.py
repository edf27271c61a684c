"""Property-based tests: the runtime is sequentially consistent.

For randomly generated dependent-task programs, executing through the
simulated runtime (any scheduler, any thread count, any optimization set)
must observe exactly the dataflow of a sequential execution in submission
order.  Shadow-memory bodies check this:

- an ``out``/``inout`` access replaces the address's writer set with
  {tid};
- an ``inoutset`` access adds tid to the writer set (commutative, so any
  group execution order is fine);
- an ``in`` access snapshots the writer set, which must equal the set a
  sequential walk predicts.

Any missing or misdirected edge reorders a read/write pair and trips the
assertion.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import OptimizationSet
from repro.core.graph_stats import topological_order
from repro.core.program import IterationSpec, Program, TaskSpec
from repro.core.task import DepMode
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig, TaskRuntime
from tests.strategies import program_shape

shapes = program_shape(n_addrs=4, max_deps=4, max_tasks=24)


def sequential_expectations(all_deps: list[list[tuple[int, DepMode]]]):
    """Predict, per task, the writer set an IN access must observe."""
    shadow: dict[int, frozenset[int]] = {}
    ioset_open: dict[int, bool] = {}
    expectations: list[dict[int, frozenset[int]]] = []
    for tid, deps in enumerate(all_deps):
        exp: dict[int, frozenset[int]] = {}
        for addr, mode in deps:
            if mode == DepMode.IN:
                exp[addr] = shadow.get(addr, frozenset())
                ioset_open[addr] = False
            elif mode == DepMode.INOUTSET:
                if ioset_open.get(addr):
                    shadow[addr] = shadow.get(addr, frozenset()) | {tid}
                else:
                    shadow[addr] = frozenset({tid})
                    ioset_open[addr] = True
            else:
                shadow[addr] = frozenset({tid})
                ioset_open[addr] = False
        expectations.append(exp)
    return expectations


def build_program(all_deps, iterations=1):
    """A program whose bodies maintain and check shadow memory."""
    shadow: dict[int, set[int]] = {}
    ioset_open: dict[int, bool] = {}
    expectations = sequential_expectations(all_deps)
    failures: list[str] = []

    def make_body(tid, deps):
        def body():
            for addr, mode in deps:
                if mode == DepMode.IN:
                    got = frozenset(shadow.get(addr, set()))
                    want = expectations[tid][addr]
                    if got != want:
                        failures.append(
                            f"task {tid} read addr {addr}: got {sorted(got)}, "
                            f"want {sorted(want)}"
                        )
                    ioset_open[addr] = False
                elif mode == DepMode.INOUTSET:
                    if ioset_open.get(addr):
                        shadow.setdefault(addr, set()).add(tid)
                    else:
                        shadow[addr] = {tid}
                        ioset_open[addr] = True
                else:
                    shadow[addr] = {tid}
                    ioset_open[addr] = False

        return body

    specs = [
        TaskSpec(name=f"t{tid}", depends=tuple(deps), body=make_body(tid, deps))
        for tid, deps in enumerate(all_deps)
    ]
    prog = Program([IterationSpec(index=0, tasks=specs)])
    return prog, failures


class TestSequentialConsistency:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=shapes,
        opts=st.sampled_from(["", "a", "b", "c", "bc", "abc"]),
        threads=st.integers(1, 4),
        sched=st.sampled_from(["lifo-df", "fifo-bf"]),
    )
    def test_random_programs_sequentially_consistent(self, shape, opts, threads, sched):
        prog, failures = build_program(shape)
        cfg = RuntimeConfig(
            machine=tiny_test_machine(4),
            n_threads=threads,
            opts=OptimizationSet.parse(opts),
            scheduler=sched,
            execute_bodies=True,
        )
        r = TaskRuntime(prog, cfg).run()
        assert r.n_tasks == len(shape)
        assert failures == [], failures

    @settings(max_examples=30, deadline=None)
    @given(shape=shapes, threads=st.integers(1, 4))
    def test_non_overlapped_mode_consistent(self, shape, threads):
        prog, failures = build_program(shape)
        cfg = RuntimeConfig(
            machine=tiny_test_machine(4),
            n_threads=threads,
            non_overlapped=True,
            execute_bodies=True,
        )
        TaskRuntime(prog, cfg).run()
        assert failures == [], failures

    @settings(max_examples=30, deadline=None)
    @given(shape=shapes)
    def test_throttled_producer_consistent(self, shape):
        prog, failures = build_program(shape)
        from repro.core import ThrottleConfig

        cfg = RuntimeConfig(
            machine=tiny_test_machine(2),
            n_threads=2,
            throttle=ThrottleConfig(total_cap=3),
            execute_bodies=True,
        )
        TaskRuntime(prog, cfg).run()
        assert failures == [], failures


class TestEdgeOrderingInvariant:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=shapes,
        opts=st.sampled_from(["", "abc"]),
        threads=st.integers(1, 4),
    )
    def test_every_edge_orders_completion_before_start(self, shape, opts, threads):
        specs = [
            TaskSpec(name=f"t{i}", depends=tuple(deps), flops=100.0)
            for i, deps in enumerate(shape)
        ]
        prog = Program([IterationSpec(index=0, tasks=specs)])
        rt = TaskRuntime(
            prog,
            RuntimeConfig(
                machine=tiny_test_machine(4),
                n_threads=threads,
                opts=OptimizationSet.parse(opts),
            ),
        )
        rt.run()
        tb = rt.table
        for pred, succ in tb.iter_edges():
            if tb.is_stub[succ]:
                continue
            assert tb.completed_at[pred] <= tb.started_at[succ] + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, opts=st.sampled_from(["", "b", "c", "abc"]))
    def test_graph_always_acyclic(self, shape, opts):
        specs = [
            TaskSpec(name=f"t{i}", depends=tuple(deps)) for i, deps in enumerate(shape)
        ]
        prog = Program([IterationSpec(index=0, tasks=specs)])
        rt = TaskRuntime(
            prog,
            RuntimeConfig(
                machine=tiny_test_machine(2),
                opts=OptimizationSet.parse(opts),
                non_overlapped=True,
            ),
        )
        rt.run()
        topological_order(*rt.table.build_csr())  # raises on a cycle
