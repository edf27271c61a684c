"""Cross-feature integration: persistence x comm x throttling x priority."""

import numpy as np
import pytest

from repro.core import OptimizationSet, ProgramBuilder, ThrottleConfig
from repro.core.program import CommKind, CommSpec, Program, TaskSpec
from repro.core.task import DepMode
from repro.cluster import Cluster
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig, TaskRuntime


def cfg(**kw):
    kw.setdefault("machine", tiny_test_machine(4))
    return RuntimeConfig(**kw)


class TestPersistentWithComm:
    def exchange_program(self, rank, iterations):
        peer = 1 - rank
        specs = [
            TaskSpec(name="compute", depends=((0, DepMode.INOUT),), flops=2000.0),
            TaskSpec(
                name="recv",
                depends=((1, DepMode.OUT),),
                comm=CommSpec(CommKind.IRECV, 256, peer=peer, tag=0),
            ),
            TaskSpec(
                name="send",
                depends=((0, DepMode.IN),),
                comm=CommSpec(CommKind.ISEND, 256, peer=peer, tag=0),
            ),
            TaskSpec(
                name="use",
                depends=((1, DepMode.IN), (0, DepMode.INOUT)),
                flops=2000.0,
            ),
        ]
        return Program.from_template(specs, iterations, persistent_candidate=True)

    @pytest.mark.parametrize("opts", ["abc", "abcp"])
    def test_comm_reposted_every_iteration(self, opts):
        """Persistent replay must re-post MPI requests each iteration."""
        iters = 4
        cluster = Cluster(2)
        res = cluster.run(
            [self.exchange_program(0, iters), self.exchange_program(1, iters)],
            [cfg(opts=OptimizationSet.parse(opts)) for _ in range(2)],
        )
        for r in res.results:
            sends = [c for c in r.comm if c.kind == "isend"]
            recvs = [c for c in r.comm if c.kind == "irecv"]
            assert len(sends) == iters
            assert len(recvs) == iters
            for c in sends + recvs:
                assert not np.isnan(c.complete_time)

    def test_persistent_collective_ordering(self):
        """Collective slots stay aligned across persistent iterations."""
        def prog(rank):
            specs = [
                TaskSpec(name="w", depends=((0, DepMode.INOUT),),
                         flops=1000.0 * (1 + rank)),
                TaskSpec(name="red", depends=((1, DepMode.OUT),),
                         comm=CommSpec(CommKind.IALLREDUCE, 8)),
            ]
            return Program.from_template(specs, 3, persistent_candidate=True)

        res = Cluster(2).run(
            [prog(0), prog(1)],
            [cfg(opts=OptimizationSet.parse("abcp")) for _ in range(2)],
        )
        c0 = sorted(c.complete_time for c in res.results[0].comm)
        c1 = sorted(c.complete_time for c in res.results[1].comm)
        assert np.allclose(c0, c1)


class TestThrottlingCombos:
    def test_throttled_persistent_replay(self):
        b = ProgramBuilder("p", persistent_candidate=True)
        for _ in range(4):
            with b.iteration():
                for i in range(30):
                    b.task(f"t{i}", out=[("y", i)], flops=5000.0)
        prog = b.build()
        rc = cfg(
            opts=OptimizationSet.parse("abcp"),
            throttle=ThrottleConfig(total_cap=5),
            n_threads=2,
        )
        r = TaskRuntime(prog, rc).run()
        assert r.n_tasks == 120

    def test_throttled_with_comm(self):
        def prog(rank):
            peer = 1 - rank
            specs = []
            for i in range(20):
                specs.append(TaskSpec(name=f"w{i}", depends=(((10 + i), DepMode.OUT),),
                                      flops=2000.0))
            specs.append(TaskSpec(
                name="recv", depends=((0, DepMode.OUT),),
                comm=CommSpec(CommKind.IRECV, 64, peer=peer, tag=0),
            ))
            specs.append(TaskSpec(
                name="send", depends=((1, DepMode.OUT),),
                comm=CommSpec(CommKind.ISEND, 64, peer=peer, tag=0),
            ))
            return Program.from_template(specs, 2)

        res = Cluster(2).run(
            [prog(0), prog(1)],
            [cfg(throttle=ThrottleConfig(total_cap=4), n_threads=2)] * 2,
        )
        assert all(r.n_tasks == 44 for r in res.results)


class TestPriorityInteractions:
    def test_priority_task_scheduled_first(self):
        specs = []
        for i in range(20):
            specs.append(TaskSpec(name=f"bulk{i}", depends=(((10 + i), DepMode.OUT),),
                                  flops=50_000.0))
        specs.append(TaskSpec(name="urgent", depends=((0, DepMode.OUT),),
                              flops=100.0, priority=True))
        prog = Program.from_template(specs, 1)
        r = TaskRuntime(prog, cfg(trace=True, n_threads=2)).run()
        names = r.trace.span_names()
        starts = r.trace.span_start
        urgent_start = starts[names.index("urgent")]
        # Despite being submitted last, the priority task starts before
        # most of the bulk (it jumps the spawn queue).
        bulk_starts = sorted(
            s for n, s in zip(names, starts) if n.startswith("bulk")
        )
        assert urgent_start < bulk_starts[len(bulk_starts) // 2]

    def test_priority_preserved_on_replay(self):
        specs = [
            TaskSpec(name="a", depends=((0, DepMode.INOUT),), flops=1000.0),
            TaskSpec(name="pri", depends=((1, DepMode.INOUT),), flops=100.0,
                     priority=True),
        ]
        prog = Program.from_template(specs, 3, persistent_candidate=True)
        rt = TaskRuntime(prog, cfg(opts=OptimizationSet.parse("abcp")))
        rt.run()
        assert rt.table.priority[rt.table.name.index("pri")]


class TestDeviceCombos:
    def test_device_task_with_throttling(self):
        from repro.accel import AcceleratorSpec

        specs = [
            TaskSpec(name=f"k{i}", depends=((i, DepMode.INOUT),),
                     flops=1e6, footprint=((i, 2048),), device=True)
            for i in range(16)
        ]
        prog = Program.from_template(specs, 2)
        rc = cfg(
            accelerator=AcceleratorSpec(n_streams=2),
            throttle=ThrottleConfig(total_cap=4),
            n_threads=2,
        )
        rt = TaskRuntime(prog, rc)
        r = rt.run()
        assert r.n_tasks == 32
        assert rt.accelerator.stats.kernels == 32
