"""Coupled multi-rank simulation tests."""

import pytest

from repro.cluster.cluster import Cluster
from repro.core import ProgramBuilder
from repro.core.program import CommKind, CommSpec
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig


def cfg(**kw):
    kw.setdefault("machine", tiny_test_machine(2))
    return RuntimeConfig(**kw)


def pingpong_program(rank: int, rounds: int = 3):
    """Rank 0 sends, rank 1 receives, then reversed — per round."""
    peer = 1 - rank
    b = ProgramBuilder(f"pingpong-r{rank}")
    for rnd in range(rounds):
        with b.iteration():
            if rank == 0:
                b.task("send", inout=["buf"], flops=100.0,
                       comm=CommSpec(CommKind.ISEND, 256, peer=peer, tag=0))
                b.task("recv", inout=["buf"], flops=100.0,
                       comm=CommSpec(CommKind.IRECV, 256, peer=peer, tag=1))
            else:
                b.task("recv", inout=["buf"], flops=100.0,
                       comm=CommSpec(CommKind.IRECV, 256, peer=peer, tag=0))
                b.task("send", inout=["buf"], flops=100.0,
                       comm=CommSpec(CommKind.ISEND, 256, peer=peer, tag=1))
    return b.build()


class TestCoupledRun:
    def test_pingpong(self):
        cluster = Cluster(2)
        res = cluster.run(
            [pingpong_program(0), pingpong_program(1)],
            [cfg(), cfg()],
        )
        assert res.n_ranks == 2
        assert all(r.n_tasks == 6 for r in res.results)
        assert res.makespan > 0

    def test_allreduce_couples_ranks(self):
        def prog(rank):
            b = ProgramBuilder(f"r{rank}")
            with b.iteration():
                # Rank 1 computes longer before joining the collective.
                b.task("work", out=["x"], flops=1000.0 * (1 + rank * 50))
                b.task("red", inp=["x"], out=["dt"],
                       comm=CommSpec(CommKind.IALLREDUCE, 8))
            return b.build()

        res = Cluster(2).run([prog(0), prog(1)], [cfg(), cfg()])
        c0 = res.results[0].comm[0]
        c1 = res.results[1].comm[0]
        # Both complete at the same instant, gated by the slow rank.
        assert c0.complete_time == pytest.approx(c1.complete_time)
        assert c0.duration > c1.duration  # rank 0 posted earlier, waits more

    def test_mismatched_counts_rejected(self):
        cluster = Cluster(2)
        with pytest.raises(ValueError, match="exactly"):
            cluster.run([pingpong_program(0)], [cfg()])

    def test_unmatched_comm_detected(self):
        def prog(rank):
            b = ProgramBuilder(f"r{rank}")
            with b.iteration():
                if rank == 0:
                    b.task("send", inout=["b"],
                           comm=CommSpec(CommKind.ISEND, 100, peer=1, tag=9))
                else:
                    b.task("noop", inout=["b"], flops=10.0)
            return b.build()

        cluster = Cluster(2)
        with pytest.raises(RuntimeError, match="quiescent"):
            cluster.run([prog(0), prog(1)], [cfg(), cfg()])

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            Cluster(0)


class TestMixedModels:
    def test_task_and_for_ranks_interoperate(self):
        from repro.core.program import CommKind
        from repro.runtime.parallel_for import (
            BlockingCollectiveSpec,
            ForIteration,
            ForProgram,
            LoopSpec,
        )

        b = ProgramBuilder("task-side")
        with b.iteration():
            b.task("w", out=["x"], flops=500.0)
            b.task("red", inp=["x"], out=["d"], comm=CommSpec(CommKind.IALLREDUCE, 8))
        task_prog = b.build()
        for_prog = ForProgram(
            [ForIteration(phases=[LoopSpec("l", 1000.0, 4096), BlockingCollectiveSpec(8)])]
        )
        cluster = Cluster(2)
        res = cluster.run([task_prog, for_prog], [cfg(), cfg()])
        assert res.results[0].comm[0].complete_time == pytest.approx(
            res.results[1].comm[0].complete_time
        )
