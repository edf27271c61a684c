"""Measured critical-path tests (repro.obs.critical_path)."""

import pytest

from repro.core import ProgramBuilder
from repro.core.compiled import compile_program
from repro.core.graph_stats import shape_from_csr, topological_order
from repro.core.optimizations import OptimizationSet
from repro.memory import tiny_test_machine
from repro.obs import TraceRecorder, measured_critical_path
from repro.obs.critical_path import _longest_path
from repro.runtime import RuntimeConfig, TaskRuntime
from repro.sim import InstrumentationBus


def diamond_program(iterations=2):
    """src -> {mid0, mid1, mid2} -> sink, per iteration."""
    b = ProgramBuilder("cp", persistent_candidate=True)
    for _ in range(iterations):
        with b.iteration():
            b.task("src", out=["x"], flops=400.0)
            for i in range(3):
                # Footprints add memory-hierarchy time, keeping the
                # measured durations strictly above the static weights.
                b.task(f"mid{i}", inp=["x"], out=[("y", i)],
                       flops=200.0 + 100.0 * i,
                       footprint=[(i, 4096)])
            b.task("sink", inp=[("y", i) for i in range(3)], flops=300.0)
            b.taskwait()
    return b.build()


def profile(opts):
    machine = tiny_test_machine(4)
    cfg = RuntimeConfig(machine=machine, opts=opts, seed=5)
    bus = InstrumentationBus()
    recorder = bus.attach(TraceRecorder())
    prog = diamond_program()
    TaskRuntime(prog, cfg, bus=bus).run()
    compiled = compile_program(prog, opts, owner=0)
    cp = measured_critical_path(
        compiled, recorder, flops_per_core=machine.flops_per_core
    )
    return compiled, cp


def longest_path(offsets, targets, dur):
    return _longest_path(
        offsets, targets, dur, topological_order(offsets, targets)
    )


class TestLongestPath:
    def test_chain(self):
        # 0 -> 1 -> 2 with durations 1, 2, 3.
        length, finish, tail, path = longest_path(
            [0, 1, 2, 2], [1, 2], [1.0, 2.0, 3.0]
        )
        assert length == pytest.approx(6.0)
        assert path == [0, 1, 2]
        assert finish == pytest.approx([1.0, 3.0, 6.0])
        assert tail == pytest.approx([6.0, 5.0, 3.0])

    def test_diamond_picks_heavier_branch(self):
        # 0 -> {1, 2} -> 3; branch 2 is heavier.
        length, _, _, path = longest_path(
            [0, 2, 3, 4, 4], [1, 2, 3, 3], [1.0, 1.0, 5.0, 1.0]
        )
        assert length == pytest.approx(7.0)
        assert path == [0, 2, 3]

    def test_empty_graph(self):
        assert longest_path([0], [], []) == (0.0, [], [], [])

    def test_cycle_detected(self):
        with pytest.raises(ValueError, match="cycle"):
            longest_path([0, 1, 2], [1, 0], [1.0, 1.0])


class TestMeasuredCriticalPath:
    def test_measured_at_least_static(self):
        _, cp = profile(OptimizationSet.none())
        assert cp.static_t_inf > 0.0
        assert cp.length >= cp.static_t_inf * (1.0 - 1e-9)
        assert cp.inflation >= 1.0 - 1e-9
        cp.check()  # structural invariants hold

    def test_slack_consistency(self):
        _, cp = profile(OptimizationSet.none())
        for it in cp.iterations:
            eps = 1e-9 * max(1.0, it.length)
            for s, th in zip(it.slack, it.through):
                assert s >= -eps
                assert th + s == pytest.approx(it.length)
            for t in it.path:
                assert it.slack[t] == pytest.approx(0.0, abs=eps)

    def test_path_follows_edges(self):
        compiled, cp = profile(OptimizationSet.none())
        for pred, succ in cp.path_edges():
            lo, hi = compiled.succ_offsets[pred], compiled.succ_offsets[pred + 1]
            assert succ in compiled.succ_targets[lo:hi]

    def test_persistent_iterations_sum(self):
        compiled, cp = profile(OptimizationSet.parse("p"))
        assert compiled.persistent and cp.persistent
        assert len(cp.iterations) == 2  # one measured pass per iteration
        assert cp.length == pytest.approx(
            sum(it.length for it in cp.iterations)
        )
        cp.check()

    def test_by_name_owns_path_seconds(self):
        _, cp = profile(OptimizationSet.none())
        assert cp.by_name
        total = sum(secs for _, secs in cp.by_name)
        assert total == pytest.approx(cp.length)
        # Descending by seconds.
        secs = [s for _, s in cp.by_name]
        assert secs == sorted(secs, reverse=True)

    @pytest.mark.parametrize("opts", ["", "abc", "abcp"])
    def test_static_t_inf_is_the_shape_critical_path(self, opts):
        # Same max-plus recurrence over the static weights: bitwise equal.
        compiled, cp = profile(OptimizationSet.parse(opts))
        flops_per_core = tiny_test_machine(4).flops_per_core
        shape = shape_from_csr(
            compiled.succ_offsets, compiled.succ_targets,
            [f / flops_per_core for f in compiled.flops], compiled.topo_order,
        )
        assert cp.static_t_inf == (
            shape.critical_path_weight * len(cp.iterations)
        )

    def test_check_rejects_tampering(self):
        _, cp = profile(OptimizationSet.none())
        cp.static_t_inf = cp.length * 2.0
        with pytest.raises(ValueError, match="critical path"):
            cp.check()

    def test_check_rejects_negative_slack(self):
        _, cp = profile(OptimizationSet.none())
        cp.iterations[0].slack[0] = -1.0
        with pytest.raises(ValueError, match="slack"):
            cp.check()

    def test_to_dict_roundtrips_json(self):
        import json

        _, cp = profile(OptimizationSet.none())
        doc = json.loads(json.dumps(cp.to_dict(), allow_nan=False))
        assert doc["inflation"] >= 1.0 - 1e-9
        assert doc["n_tasks"] == 10  # 2 iterations x 5 tasks
