"""Per-rank MPI operations, read off the compiled comm columns.

``build_cluster_tdg`` makes one op record per compiled comm row; these
tests pin how a record binds to its row: post ordinal, kind, peer, tag,
size, posting task and iteration.
"""

from repro.core.program import CommKind, CommSpec, ProgramBuilder
from repro.verify.mpi import build_cluster_tdg


def two_rank_task_programs(iterations=2, *, persistent=False):
    progs = []
    for rank in range(2):
        peer = 1 - rank
        b = ProgramBuilder(f"r{rank}", persistent_candidate=persistent)
        for _ in range(iterations):
            with b.iteration():
                b.task("compute", out=["x"], flops=10.0)
                b.task(
                    "send",
                    inp=["x"],
                    out=["s"],
                    comm=CommSpec(CommKind.ISEND, 128, peer=peer, tag=rank),
                )
                b.task(
                    "recv",
                    out=["r"],
                    comm=CommSpec(CommKind.IRECV, 256, peer=peer, tag=peer),
                )
        progs.append(b.build())
    return progs


class TestTaskProgramWalk:
    def test_submission_order_and_fields(self):
        ctdg = build_cluster_tdg(two_rank_task_programs(), "abc")
        assert len(ctdg.ops) == 8  # 2 ranks x 2 iterations x (send+recv)
        r0 = [ctdg.ops[i] for i in ctdg.rank_ops[0]]
        assert [op.rank for op in r0] == [0, 0, 0, 0]
        assert [op.op_index for op in r0] == [0, 1, 2, 3]
        assert [op.kind for op in r0[:2]] == [CommKind.ISEND, CommKind.IRECV]
        assert r0[0].peer == 1 and r0[0].tag == 0 and r0[0].nbytes == 128
        assert r0[1].peer == 1 and r0[1].tag == 1 and r0[1].nbytes == 256
        assert [op.name for op in r0] == ["send", "recv"] * 2
        assert [op.iteration for op in r0] == [0, 0, 1, 1]
        # Each record names the compiled row that posts it.
        names = ctdg.tdgs[0].compiled.name
        assert [names[op.tid] for op in r0] == [op.name for op in r0]
        # Non-comm tasks contribute nothing.
        assert all(op.name != "compute" for op in ctdg.ops)
        r1 = [ctdg.ops[i] for i in ctdg.rank_ops[1]]
        assert [op.idx for op in r1] == [4, 5, 6, 7]
        assert r1[0].peer == 0 and r1[0].tag == 1

    def test_template_only_takes_first_iteration(self):
        progs = two_rank_task_programs(iterations=3, persistent=True)
        ctdg = build_cluster_tdg(progs, "abcp")
        assert len(ctdg.rank_ops[0]) == 2
        assert all(op.iteration == 0 for op in ctdg.ops)
        assert [op.op_index for op in ctdg.ops] == [0, 1, 0, 1]
