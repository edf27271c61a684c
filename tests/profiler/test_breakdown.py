"""Unit tests for the §2.3.1 time breakdown a RunResult carries."""

import pytest

from repro.core import ProgramBuilder
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig, TaskRuntime


def run(n_tasks=20, n_threads=4):
    b = ProgramBuilder("p")
    with b.iteration():
        for i in range(n_tasks):
            b.task(f"t{i}", out=[("y", i)], flops=10_000.0)
    return TaskRuntime(
        b.build(), RuntimeConfig(machine=tiny_test_machine(n_threads))
    ).run()


class TestBreakdown:
    def test_accounting_identity(self):
        """work + overhead + idle (+ discovery / threads) == makespan."""
        r = run()
        accounted = (
            r.work_avg + r.overhead_avg + r.idle_avg
            + r.discovery_busy / r.n_threads
        )
        assert accounted == pytest.approx(r.makespan, rel=1e-6)

    def test_components_non_negative(self):
        r = run()
        assert r.work_avg >= 0
        assert r.idle_avg >= 0
        assert r.overhead_avg >= 0
        assert r.discovery_busy >= 0

    def test_totals_scale_with_threads(self):
        r = run(n_threads=4)
        assert r.work_total == pytest.approx(r.work_avg * 4)

    def test_str_smoke(self):
        line = run().summary()
        for field in ("makespan=", "work/thr=", "idle/thr=", "ovh/thr=", "disc="):
            assert field in line
