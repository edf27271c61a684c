"""Tests for the accelerator-offloading extension (§7 future work)."""

import pytest

from repro.accel import Accelerator, AcceleratorSpec
from repro.core import OptimizationSet
from repro.core.program import Program, TaskSpec
from repro.core.task import DepMode
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig, TaskRuntime
from repro.sim.events import EventQueue


def spec(**kw):
    return AcceleratorSpec(**kw)


class TestAcceleratorSpec:
    def test_defaults_valid(self):
        spec()

    def test_validation(self):
        with pytest.raises(ValueError):
            spec(n_streams=0)
        with pytest.raises(ValueError):
            spec(launch_overhead=-1.0)

    def test_scaled(self):
        s = spec().scaled(0.1)
        assert s.launch_overhead == pytest.approx(spec().launch_overhead * 0.1)


class TestAcceleratorModel:
    def make(self, **kw):
        engine = EventQueue()
        return Accelerator(spec(**kw), engine), engine

    def kernel(self, flops=1e6, footprint=((1, 1024),)):
        """``(flops, footprint)`` of one offloaded task."""
        return flops, footprint

    def test_kernel_duration_components(self):
        acc, _ = self.make(n_streams=1)
        d, h2d = acc.kernel_duration(*self.kernel())
        assert h2d == 1024
        expected = (
            acc.spec.launch_overhead
            + 1024 / acc.spec.xfer_bw
            + max(1e6 / acc.spec.flops_per_stream, 1024 / acc.spec.mem_bw)
        )
        assert d == pytest.approx(expected)

    def test_device_residency_skips_transfer(self):
        acc, _ = self.make(n_streams=1)
        _, h2d1 = acc.kernel_duration(*self.kernel())
        _, h2d2 = acc.kernel_duration(*self.kernel())
        assert h2d1 == 1024
        assert h2d2 == 0
        assert acc.stats.resident_hits == 1

    def test_streams_run_concurrently(self):
        acc, engine = self.make(n_streams=2)
        done = []
        f1 = acc.submit(*self.kernel(footprint=((1, 64),)), 0.0, done.append)
        f2 = acc.submit(*self.kernel(footprint=((2, 64),)), 0.0, done.append)
        # Two streams: both start at t=0 (similar finish times).
        assert abs(f1 - f2) < 1e-6

    def test_single_stream_serializes(self):
        acc, engine = self.make(n_streams=1)
        f1 = acc.submit(*self.kernel(footprint=((1, 64),)), 0.0, lambda t: None)
        f2 = acc.submit(*self.kernel(footprint=((2, 64),)), 0.0, lambda t: None)
        assert f2 > f1

    def test_utilization_bounds(self):
        acc, _ = self.make()
        acc.submit(*self.kernel(), 0.0, lambda t: None)
        assert 0.0 <= acc.utilization(1.0) <= 1.0
        assert acc.utilization(0.0) == 0.0


class TestOffloadedExecution:
    def program(self, n=8, device=True, iterations=1):
        specs = [
            TaskSpec(name=f"k{i}", depends=(((i, DepMode.INOUT)),),
                     flops=2e6, footprint=((i, 4096),), device=device)
            for i in range(n)
        ]
        specs.append(TaskSpec(
            name="sink",
            depends=tuple((i, DepMode.IN) for i in range(n)),
            flops=100.0,
        ))
        return Program.from_template(specs, iterations)

    def cfg(self, **kw):
        kw.setdefault("machine", tiny_test_machine(4))
        kw.setdefault("accelerator", spec())
        return RuntimeConfig(**kw)

    def test_offloaded_tasks_complete(self):
        rt = TaskRuntime(self.program(), self.cfg())
        r = rt.run()
        assert r.n_tasks == 9
        assert rt.accelerator.stats.kernels == 8

    def test_sink_waits_for_kernels(self):
        rt = TaskRuntime(self.program(), self.cfg(trace=True))
        rt.run()
        tb = rt.table
        sink = len(tb) - 1
        for k in range(sink):
            assert tb.completed_at[k] <= tb.started_at[sink] + 1e-12

    def test_device_flag_ignored_without_accelerator(self):
        rt = TaskRuntime(
            self.program(),
            RuntimeConfig(machine=tiny_test_machine(4)),
        )
        r = rt.run()
        assert r.n_tasks == 9
        assert rt.accelerator is None

    def test_host_only_pays_launch(self):
        """Workers are free while kernels run: host work ~= launch costs."""
        r = TaskRuntime(self.program(), self.cfg()).run()
        launches = 8 * spec().launch_overhead
        assert r.work_total < launches + 8 * 2e6 / 1e9 * 0.5

    def test_offload_with_persistent_graph(self):
        prog = self.program(iterations=4)
        rt = TaskRuntime(
            prog, self.cfg(opts=OptimizationSet.parse("abcp"))
        )
        r = rt.run()
        assert r.n_tasks == 4 * 9
        assert rt.accelerator.stats.kernels == 4 * 8

    def test_residency_reuse_across_iterations(self):
        """Device-resident chunks skip H2D on later iterations — the §7
        offload analogue of cache reuse."""
        prog = self.program(iterations=3)
        rt = TaskRuntime(prog, self.cfg(opts=OptimizationSet.parse("abcp")))
        rt.run()
        st = rt.accelerator.stats
        assert st.h2d_bytes == 8 * 4096          # only the first iteration
        assert st.resident_hits == 2 * 8


class TestLuleshOffload:
    def test_elem_loops_marked_device(self):
        from repro.apps.lulesh import LuleshConfig, build_task_program

        prog = build_task_program(
            LuleshConfig(s=12, iterations=1, tpl=4), offload=True
        )
        elem = [s for s in prog.iterations[0].tasks
                if s.name.startswith("CalcKinematicsForElems")]
        node = [s for s in prog.iterations[0].tasks
                if s.name.startswith("CalcPositionForNodes")]
        assert all(s.device for s in elem)
        assert not any(s.device for s in node)

    def test_offloaded_lulesh_runs(self):
        from repro.apps.lulesh import LuleshConfig, build_task_program

        prog = build_task_program(
            LuleshConfig(s=12, iterations=2, tpl=8), offload=True, opt_a=True
        )
        rt = TaskRuntime(
            prog,
            RuntimeConfig(
                machine=tiny_test_machine(4),
                opts=OptimizationSet.parse("abc"),
                accelerator=spec(),
            ),
        )
        r = rt.run()
        assert r.n_tasks > 0
        assert rt.accelerator.stats.kernels > 0
