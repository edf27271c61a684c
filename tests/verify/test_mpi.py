"""Cross-rank MPI verification: matching, deadlock, tag ambiguity, and
the cross-rank race pass — all without a single DES event.

Every seeded-defect test asserts the *exact* rule id the defect must
trip, per the acceptance criteria.
"""

import pytest

from repro.analysis.calibration import scaled_mpc
from repro.campaign.runner import build_programs
from repro.campaign.spec import ExperimentSpec
from repro.cluster.cluster import Cluster
from repro.core.program import CommKind, CommSpec, ProgramBuilder
from repro.core.task import AccessMode
from repro.memory import tiny_test_machine
from repro.mpi.network import bxi_like
from repro.runtime import RuntimeConfig
from repro.verify import REGISTRY, verify_cluster
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


def missing_recv_programs():
    """Rank 0 sends to rank 1, which never posts the receive."""
    b0 = ProgramBuilder("r0")
    with b0.iteration():
        _send(b0, "send", peer=1, tag=7, nbytes=100)
    b1 = ProgramBuilder("r1")
    with b1.iteration():
        b1.task("compute", out=["x"], flops=10.0)
    return [b0.build(), b1.build()]


def missing_collective_programs():
    """Rank 0 posts an Iallreduce that rank 1 never joins."""
    b0 = ProgramBuilder("r0")
    with b0.iteration():
        b0.task(
            "allred", out=["acc"], comm=CommSpec(CommKind.IALLREDUCE, nbytes=8)
        )
    b1 = ProgramBuilder("r1")
    with b1.iteration():
        b1.task("compute", out=["x"])
    return [b0.build(), b1.build()]


def persistence_mismatch_programs():
    """Rank 0 is a persistent candidate, rank 1 is not."""
    b0 = ProgramBuilder("r0", persistent_candidate=True)
    with b0.iteration():
        b0.task("t", out=["x"])
    b1 = ProgramBuilder("r1")  # not a persistent candidate
    with b1.iteration():
        b1.task("t", out=["x"])
    return [b0.build(), b1.build()]


def crossed_programs(nbytes):
    """Both ranks send first, then post the matching recv."""
    progs = []
    for rank in range(2):
        peer = 1 - rank
        b = ProgramBuilder(f"crossed-r{rank}")
        with b.iteration():
            _send(b, "send", peer, tag=peer, nbytes=nbytes, out=["buf"])
            _recv(b, "recv", peer, tag=rank, nbytes=nbytes, inp=["buf"])
        progs.append(b.build())
    return progs


def same_channel_programs(*, ordered):
    """Rank 0 posts two sends on one channel, ordered or not."""
    b0 = ProgramBuilder("r0")
    with b0.iteration():
        _send(b0, "sendA", peer=1, tag=3, out=["a"])
        _send(b0, "sendB", peer=1, tag=3, inp=["a"] if ordered else [], out=["b"])
    b1 = ProgramBuilder("r1")
    with b1.iteration():
        _recv(b1, "recv1", peer=0, tag=3, out=["r1"])
        _recv(b1, "recv2", peer=0, tag=3, inp=["r1"], out=["r2"])
    return [b0.build(), b1.build()]


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

        report = verify_cluster(missing_recv_programs())
        findings = report.by_rule("V-MPI-UNMATCHED")
        assert len(findings) == 1
        f = findings[0]
        assert f.rank == 0
        assert "never matches" in f.message
        assert "rank 1 posts no corresponding Irecv" in f.message
        assert f.data["tag"] == 7

    def test_missing_collective_rank(self):
        findings = check_mpi(build_cluster_tdg(missing_collective_programs()))
        assert [f.rule for f in findings] == ["V-MPI-UNMATCHED"]
        assert "1/2 ranks" in findings[0].message

    def test_persistence_mismatch_guard(self):
        ctdg = build_cluster_tdg(persistence_mismatch_programs(), opts="abcp")
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
        findings = check_mpi(build_cluster_tdg(crossed_programs(BIG)))
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
        findings = check_mpi(build_cluster_tdg(crossed_programs(SMALL)))
        assert [f for f in findings if f.rule == "V-MPI-CYCLE"] == []


class TestTagAmbiguity:
    def test_unordered_same_channel_sends(self):
        progs = same_channel_programs(ordered=False)
        findings = check_mpi(build_cluster_tdg(progs))
        dups = [f for f in findings if f.rule == "V-MPI-TAGDUP"]
        assert len(dups) == 1
        assert dups[0].rank == 0
        assert set(dups[0].tasks) == {"sendA", "sendB"}

    def test_ordered_same_channel_sends_are_fine(self):
        progs = same_channel_programs(ordered=True)
        findings = check_mpi(build_cluster_tdg(progs))
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

    def test_findings_report_registry_severity(self):
        seen = set()
        for build in TEST_CLUSTERS.values():
            for f in verify_cluster(build()):
                rule = REGISTRY.get(f.rule)
                assert f.severity is rule.severity
                assert f.to_dict()["severity"] == rule.severity.name.lower()
                seen.add(f.rule)
        assert {"V-MPI-UNMATCHED", "V-MPI-CYCLE", "V-MPI-TAGDUP", "V-RACE"} <= seen


#: Every cluster this module builds, by name.
TEST_CLUSTERS = {
    "exchange": exchange_programs,
    "missing-recv": missing_recv_programs,
    "missing-collective": missing_collective_programs,
    "persistence-mismatch": persistence_mismatch_programs,
    "crossed-rendezvous": lambda: crossed_programs(BIG),
    "crossed-eager": lambda: crossed_programs(SMALL),
    "same-channel-unordered": lambda: same_channel_programs(ordered=False),
    "same-channel-ordered": lambda: same_channel_programs(ordered=True),
    "roundtrip-closed": lambda: roundtrip_programs(close_window=True),
    "roundtrip-open": lambda: roundtrip_programs(close_window=False),
}


def rescan_happens_before(ctdg, rank, a, b):
    """The reference cross-rank happens-before: rescans the rank's comm
    ops on every query instead of reusing memoized event lists."""
    tdg = ctdg.tdgs[rank]
    if tdg.happens_before(a, b):
        return True
    if not ctdg.ops:
        return False
    reach = ctdg.events()
    srcs = []
    for i in ctdg.rank_ops[rank]:
        tid = ctdg.ops[i].tid
        if tid == a:
            srcs.append(2 * i + 1)
        elif tdg.happens_before(a, tid):
            srcs.append(2 * i)
    if not srcs:
        return False
    dsts = [
        2 * j + 1
        for j in ctdg.rank_ops[rank]
        if ctdg.ops[j].tid != b and tdg.happens_before(ctdg.ops[j].tid, b)
    ]
    return any(reach.reaches(s, d) for s in srcs for d in dsts)


class TestMemoizedHappensBefore:
    @pytest.mark.parametrize("name", sorted(TEST_CLUSTERS))
    def test_agrees_with_rescan_on_every_pair(self, name):
        ctdg = build_cluster_tdg(TEST_CLUSTERS[name]())
        for r, tdg in enumerate(ctdg.tdgs):
            n = tdg.compiled.n_tasks
            for a in range(n):
                for b in range(n):
                    assert ctdg.happens_before(r, a, b) == rescan_happens_before(
                        ctdg, r, a, b
                    ), (name, r, a, b)

    def test_agrees_on_a_shipped_app_cluster(self):
        # HPCG's halo exchange orders tasks of one rank that its own TDG
        # leaves unordered, so the memoized event lists carry real paths.
        spec = ExperimentSpec(
            app="hpcg",
            config=scaled_mpc(opts="abc"),
            params={"n_rows": 4096, "iterations": 1, "tpl": 4},
            ranks=8,
        )
        ctdg = build_cluster_tdg(build_programs(spec), "abc")
        through_network = 0
        for r, tdg in enumerate(ctdg.tdgs):
            n = tdg.compiled.n_tasks
            for a in range(n):
                for b in range(n):
                    hb = ctdg.happens_before(r, a, b)
                    assert hb == rescan_happens_before(ctdg, r, a, b), (r, a, b)
                    through_network += hb and not tdg.happens_before(a, b)
        assert through_network > 0
