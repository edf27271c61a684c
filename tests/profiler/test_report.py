"""Tests for per-loop aggregation."""

import pytest

from repro.core import ProgramBuilder
from repro.memory import tiny_test_machine
from repro.obs.recorder import TraceRecorder
from repro.obs.loops import iteration_spans, loop_profiles
from repro.runtime import RuntimeConfig, TaskRuntime


@pytest.fixture()
def traced_result():
    b = ProgramBuilder("p", persistent_candidate=True)
    for _ in range(3):
        with b.iteration():
            for i in range(4):
                b.task(f"alpha[{i}]", inout=[("a", i)], flops=20_000.0, loop="alpha")
            for i in range(4):
                b.task(f"beta[{i}]", inp=[("a", i)], out=[("b", i)],
                       flops=5_000.0, loop="beta")
    return TaskRuntime(
        b.build(), RuntimeConfig(machine=tiny_test_machine(4), trace=True)
    ).run()


class TestLoopProfiles:
    def test_grouping(self, traced_result):
        profiles = loop_profiles(traced_result.trace)
        assert len(profiles) == 2
        by_name = {p.name: p for p in profiles}
        assert by_name["alpha"].n_tasks == 12
        assert by_name["beta"].n_tasks == 12

    def test_sorted_by_work(self, traced_result):
        profiles = loop_profiles(traced_result.trace)
        assert profiles[0].work_total >= profiles[1].work_total
        assert profiles[0].name == "alpha"  # 4x the flops

    def test_grain_bounds(self, traced_result):
        for p in loop_profiles(traced_result.trace):
            assert p.grain_min <= p.grain_mean <= p.grain_max
            assert p.span >= p.grain_max

    def test_explicit_names(self, traced_result):
        profiles = loop_profiles(traced_result.trace, names={0: "ALPHA"})
        assert any(p.name == "ALPHA" for p in profiles)

    def test_empty_trace(self):
        assert loop_profiles(TraceRecorder()) == []


class TestIterationSpans:
    def test_ordered_and_complete(self, traced_result):
        spans = iteration_spans(traced_result.trace)
        assert [it for it, _, _ in spans] == [0, 1, 2]
        for _, a, b in spans:
            assert a < b

