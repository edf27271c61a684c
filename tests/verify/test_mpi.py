"""Cross-rank MPI verification: matching, deadlock, tag ambiguity, and
the cross-rank race pass — all without a single DES event.

Every seeded-defect test asserts the *exact* rule id the defect must
trip, per the acceptance criteria.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.core.program import CommKind, CommSpec, ProgramBuilder
from repro.core.task import AccessMode
from repro.memory import tiny_test_machine
from repro.mpi.network import bxi_like
from repro.runtime import RuntimeConfig
from repro.verify import verify_cluster
from repro.verify.mpi import build_cluster_tdg, check_mpi, find_cluster_races

BIG = 1 << 20  # over the eager threshold -> rendezvous protocol
SMALL = 256  # eager


def _send(b, name, peer, tag, nbytes=SMALL, **kw):
    return b.task(
        name, comm=CommSpec(CommKind.ISEND, nbytes, peer=peer, tag=tag), **kw
    )


def _recv(b, name, peer, tag, nbytes=SMALL, **kw):
    return b.task(
        name, comm=CommSpec(CommKind.IRECV, nbytes, peer=peer, tag=tag), **kw
    )


def exchange_programs():
    """Healthy 2-rank exchange: both sides post send + matching recv."""
    progs = []
    for rank in range(2):
        peer = 1 - rank
        b = ProgramBuilder(f"xchg-r{rank}")
        with b.iteration():
            _recv(b, "recv", peer, tag=rank, out=["rbuf"])
            _send(b, "send", peer, tag=peer, inp=[], out=["sent"])
        progs.append(b.build())
    return progs


class TestMatching:
    def test_healthy_exchange_is_clean(self):
        ctdg = build_cluster_tdg(exchange_programs())
        assert check_mpi(ctdg) == []
        assert len(ctdg.pairs) == 2
        assert ctdg.unmatched_p2p == []

    def test_missing_recv_is_unmatched(self, monkeypatch):
        # Acceptance: a two-rank program with a missing receive must fail
        # citing V-MPI-UNMATCHED with zero DES events executed.
        import repro.runtime.runtime as rt

        def boom(self, *a, **kw):  # pragma: no cover - would fail the test
            raise AssertionError("static verification must not run the DES")

        monkeypatch.setattr(rt.TaskRuntime, "run", boom)

        progs = []
        b = ProgramBuilder("r0")
        with b.iteration():
            _send(b, "send", peer=1, tag=7, nbytes=100)
        progs.append(b.build())
        b = ProgramBuilder("r1")
        with b.iteration():
            b.task("compute", out=["x"], flops=10.0)
        progs.append(b.build())

        report = verify_cluster(progs)
        findings = report.by_rule("V-MPI-UNMATCHED")
        assert len(findings) == 1
        f = findings[0]
        assert f.rank == 0
        assert "never matches" in f.message
        assert "rank 1 posts no corresponding Irecv" in f.message
        assert f.data["tag"] == 7

    def test_missing_collective_rank(self):
        progs = []
        b = ProgramBuilder("r0")
        with b.iteration():
            b.task(
                "allred",
                out=["acc"],
                comm=CommSpec(CommKind.IALLREDUCE, nbytes=8),
            )
        progs.append(b.build())
        b = ProgramBuilder("r1")
        with b.iteration():
            b.task("compute", out=["x"])
        progs.append(b.build())
        findings = check_mpi(build_cluster_tdg(progs))
        assert [f.rule for f in findings] == ["V-MPI-UNMATCHED"]
        assert "1/2 ranks" in findings[0].message

    def test_persistence_mismatch_guard(self):
        b0 = ProgramBuilder("r0", persistent_candidate=True)
        with b0.iteration():
            b0.task("t", out=["x"])
        b1 = ProgramBuilder("r1")  # not a persistent candidate
        with b1.iteration():
            b1.task("t", out=["x"])
        ctdg = build_cluster_tdg([b0.build(), b1.build()], opts="abcp")
        findings = check_mpi(ctdg)
        assert [f.rule for f in findings] == ["V-MPI-UNMATCHED"]
        assert "persistent" in findings[0].message
        # Matching was skipped, not done unsoundly.
        assert ctdg.ops == []


class TestDeadlock:
    def test_crossed_rendezvous_sends_cycle(self):
        # Both ranks: big send first, then the matching recv — each send
        # blocks (rendezvous) on a recv posted only after the local send
        # completes.  The classic crossed-send deadlock.
        progs = []
        for rank in range(2):
            peer = 1 - rank
            b = ProgramBuilder(f"dead-r{rank}")
            with b.iteration():
                _send(b, "send", peer, tag=peer, nbytes=BIG, out=["buf"])
                _recv(b, "recv", peer, tag=rank, nbytes=BIG, inp=["buf"])
            progs.append(b.build())
        findings = check_mpi(build_cluster_tdg(progs))
        cycles = [f for f in findings if f.rule == "V-MPI-CYCLE"]
        assert len(cycles) == 1
        f = cycles[0]
        assert "static deadlock" in f.message
        assert f.data["ranks"] == [0, 1]
        assert f.data["n_ops"] == 4
        assert "rendezvous" in f.data["protocols"]

    def test_eager_crossed_sends_do_not_deadlock(self):
        # Same post order under the eager protocol: sends buffer and
        # complete, so there is no cycle.
        progs = []
        for rank in range(2):
            peer = 1 - rank
            b = ProgramBuilder(f"ok-r{rank}")
            with b.iteration():
                _send(b, "send", peer, tag=peer, nbytes=SMALL, out=["buf"])
                _recv(b, "recv", peer, tag=rank, nbytes=SMALL, inp=["buf"])
            progs.append(b.build())
        findings = check_mpi(build_cluster_tdg(progs))
        assert [f for f in findings if f.rule == "V-MPI-CYCLE"] == []


class TestTagAmbiguity:
    def test_unordered_same_channel_sends(self):
        b0 = ProgramBuilder("r0")
        with b0.iteration():
            _send(b0, "sendA", peer=1, tag=3, out=["a"])
            _send(b0, "sendB", peer=1, tag=3, out=["b"])  # unordered vs A
        b1 = ProgramBuilder("r1")
        with b1.iteration():
            _recv(b1, "recv1", peer=0, tag=3, out=["r1"])
            _recv(b1, "recv2", peer=0, tag=3, inp=["r1"], out=["r2"])
        findings = check_mpi(build_cluster_tdg([b0.build(), b1.build()]))
        dups = [f for f in findings if f.rule == "V-MPI-TAGDUP"]
        assert len(dups) == 1
        assert dups[0].rank == 0
        assert set(dups[0].tasks) == {"sendA", "sendB"}

    def test_ordered_same_channel_sends_are_fine(self):
        b0 = ProgramBuilder("r0")
        with b0.iteration():
            _send(b0, "sendA", peer=1, tag=3, out=["a"])
            _send(b0, "sendB", peer=1, tag=3, inp=["a"], out=["b"])
        b1 = ProgramBuilder("r1")
        with b1.iteration():
            _recv(b1, "recv1", peer=0, tag=3, out=["r1"])
            _recv(b1, "recv2", peer=0, tag=3, inp=["r1"], out=["r2"])
        findings = check_mpi(build_cluster_tdg([b0.build(), b1.build()]))
        assert [f for f in findings if f.rule == "V-MPI-TAGDUP"] == []


def roundtrip_programs(*, close_window: bool):
    """Rank 0: A writes x, sends; rank 1 bounces the message back; rank 0:
    B reads x after the return recv.  With the bounce chain, the network
    orders A before B even though rank 0's own TDG does not."""
    b0 = ProgramBuilder("rt-r0")
    with b0.iteration():
        b0.task(
            "A",
            out=["x"],
            flops=50.0,
            footprint=[("x", 64, AccessMode.WRITE)],
        )
        _send(b0, "send0", peer=1, tag=0, inp=["x"], out=["s0"])
        deps = {"out": ["rbuf"]} if close_window else {"out": ["rbuf"], "inp": []}
        _recv(b0, "recv0", peer=1, tag=1, **deps)
        b_deps = {"inp": ["rbuf"]} if close_window else {"inp": []}
        b0.task(
            "B",
            flops=50.0,
            footprint=[("x", 64, AccessMode.READ)],
            **b_deps,
        )
    b1 = ProgramBuilder("rt-r1")
    with b1.iteration():
        _recv(b1, "recv1", peer=0, tag=0, out=["m"])
        _send(b1, "send1", peer=0, tag=1, inp=["m"], out=["s1"])
    return [b0.build(), b1.build()]


class TestCrossRankRaces:
    def test_comm_chain_suppresses_race(self):
        progs = roundtrip_programs(close_window=True)
        ctdg = build_cluster_tdg(progs)
        tdg0 = ctdg.tdgs[0]
        a = tdg0.compiled.name.index("A")
        bb = tdg0.compiled.name.index("B")
        # Rank 0 alone cannot order A and B ...
        assert not tdg0.happens_before(a, bb)
        # ... but the bounce through rank 1 does.
        assert ctdg.happens_before(0, a, bb)
        assert find_cluster_races(ctdg) == []

    def test_open_window_is_a_cross_rank_race(self):
        progs = roundtrip_programs(close_window=False)
        ctdg = build_cluster_tdg(progs)
        races = find_cluster_races(ctdg)
        assert races, "unordered A/B on a shared chunk must race"
        assert all(f.rule in ("V-RACE", "V-RACE-XRANK") for f in races)
        rank0 = [f for f in races if f.rank == 0]
        assert any(set(f.tasks) == {"A", "B"} for f in rank0)

    def test_verify_agrees_with_des_trace(self):
        # Acceptance: where the static pass claims a cross-rank ordering,
        # the coupled-cluster DES trace must show the same order.
        progs = roundtrip_programs(close_window=True)
        ctdg = build_cluster_tdg(progs)
        tdg0 = ctdg.tdgs[0]
        a = tdg0.compiled.name.index("A")
        bb = tdg0.compiled.name.index("B")
        assert ctdg.happens_before(0, a, bb)

        machine = tiny_test_machine(2)
        res = Cluster(2, network=bxi_like()).run(
            progs,
            [RuntimeConfig(machine=machine, trace=True) for _ in range(2)],
        )
        t0 = res.results[0].trace
        end_a = max(
            e for n, e in zip(t0.span_names(), t0.span_end) if n == "A"
        )
        start_b = min(
            s for n, s in zip(t0.span_names(), t0.span_start) if n == "B"
        )
        assert end_a <= start_b


class TestClusterReport:
    def test_verify_cluster_report_shape(self):
        report = verify_cluster(exchange_programs())
        assert report.ranks == 2
        assert report.summary["comm_ops"] == 4
        assert report.summary["comm_pairs"] == 2
        assert report.program.startswith("cluster[2]:")
        assert report.by_rule("V-MPI-UNMATCHED") == []

    def test_pass_selection(self):
        report = verify_cluster(exchange_programs(), passes=["mpi"])
        assert report.passes == ["mpi"]

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            verify_cluster(exchange_programs(), passes=["des"])
