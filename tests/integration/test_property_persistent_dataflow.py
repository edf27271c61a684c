"""Property test: the persistent runtime is sequentially consistent over
multiple iterations of random programs.

Extends the single-iteration shadow-memory test to the replay path: the
same random task list repeated N times (the PTSG premise) must observe,
iteration after iteration, exactly the dataflow of the sequential
submission order — including cross-iteration reads, which the persistent
barrier must protect despite dropping inter-iteration edges.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import OptimizationSet
from repro.core.program import Program, TaskSpec
from repro.core.task import DepMode
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig, TaskRuntime
from tests.strategies import program_shape

shapes = program_shape(n_addrs=3, max_deps=3, max_tasks=10)


def build_iterated_program(all_deps, iterations):
    """Shadow-memory program whose expectations span all iterations."""
    shadow: dict[int, set[int]] = {}
    ioset_open: dict[int, bool] = {}
    failures: list[str] = []

    # Sequential expectations across the full unrolled run.  Task instance
    # (it, tid) is identified by its global index.
    exp_shadow: dict[int, frozenset] = {}
    exp_open: dict[int, bool] = {}
    expectations: list[dict[int, frozenset]] = []
    for it in range(iterations):
        for tid, deps in enumerate(all_deps):
            gid = it * len(all_deps) + tid
            exp: dict[int, frozenset] = {}
            for addr, mode in deps:
                if mode == DepMode.IN:
                    exp[addr] = exp_shadow.get(addr, frozenset())
                    exp_open[addr] = False
                elif mode == DepMode.INOUTSET:
                    if exp_open.get(addr):
                        exp_shadow[addr] = exp_shadow.get(addr, frozenset()) | {gid}
                    else:
                        exp_shadow[addr] = frozenset({gid})
                        exp_open[addr] = True
                else:
                    exp_shadow[addr] = frozenset({gid})
                    exp_open[addr] = False
            expectations.append(exp)

    def make_iteration_specs(it):
        specs = []
        for tid, deps in enumerate(all_deps):
            gid = it * len(all_deps) + tid

            def body(gid=gid, deps=deps):
                for addr, mode in deps:
                    if mode == DepMode.IN:
                        got = frozenset(shadow.get(addr, set()))
                        want = expectations[gid][addr]
                        if got != want:
                            failures.append(
                                f"instance {gid} read {addr}: got {sorted(got)}, "
                                f"want {sorted(want)}"
                            )
                        ioset_open[addr] = False
                    elif mode == DepMode.INOUTSET:
                        if ioset_open.get(addr):
                            shadow.setdefault(addr, set()).add(gid)
                        else:
                            shadow[addr] = {gid}
                            ioset_open[addr] = True
                    else:
                        shadow[addr] = {gid}
                        ioset_open[addr] = False

            specs.append(TaskSpec(name=f"t{tid}", depends=tuple(deps), body=body))
        return specs

    from repro.core.program import IterationSpec

    prog = Program(
        [IterationSpec(index=it, tasks=make_iteration_specs(it))
         for it in range(iterations)],
        persistent_candidate=True,
    )
    return prog, failures


class TestPersistentSequentialConsistency:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=shapes,
        iterations=st.integers(2, 4),
        threads=st.integers(1, 4),
    )
    def test_persistent_replay_consistent(self, shape, iterations, threads):
        prog, failures = build_iterated_program(shape, iterations)
        cfg = RuntimeConfig(
            machine=tiny_test_machine(4),
            n_threads=threads,
            opts=OptimizationSet.parse("abcp"),
            execute_bodies=True,
        )
        r = TaskRuntime(prog, cfg).run()
        assert r.n_tasks == len(shape) * iterations
        assert failures == [], failures

    @settings(max_examples=25, deadline=None)
    @given(shape=shapes, iterations=st.integers(2, 3))
    def test_non_persistent_multi_iteration_consistent(self, shape, iterations):
        prog, failures = build_iterated_program(shape, iterations)
        cfg = RuntimeConfig(
            machine=tiny_test_machine(4),
            opts=OptimizationSet.parse("bc"),
            execute_bodies=True,
        )
        TaskRuntime(prog, cfg).run()
        assert failures == [], failures
