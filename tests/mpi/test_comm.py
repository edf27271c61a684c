"""Unit tests for the simulated communicator (matching + protocols)."""

import pytest

from repro.mpi.comm import Communicator
from repro.mpi.network import NetworkSpec
from repro.sim.events import EventQueue


def make(n_ranks=2, **net_kw):
    net_kw.setdefault("latency", 1e-6)
    net_kw.setdefault("bandwidth", 1e9)
    net_kw.setdefault("eager_threshold", 1024)
    engine = EventQueue()
    comm = Communicator(engine, NetworkSpec(**net_kw), n_ranks)
    return engine, comm


class TestEager:
    def test_send_completes_without_recv(self):
        engine, comm = make()
        s = comm.isend(0, 1, tag=0, nbytes=100)
        engine.run()
        assert s.done
        # Buffered send: completes after injection only.
        assert s.complete_time == pytest.approx(100 / 1e9)

    def test_recv_after_arrival(self):
        engine, comm = make()
        s = comm.isend(0, 1, tag=0, nbytes=100)
        r = comm.irecv(1, 0, tag=0, nbytes=100)
        engine.run()
        assert r.done
        assert r.complete_time == pytest.approx(1e-6 + 100 / 1e9)

    def test_late_recv_completes_at_post(self):
        engine, comm = make()
        s = comm.isend(0, 1, tag=0, nbytes=100)
        engine.run()
        # Post the receive "later" — after the payload has arrived.
        engine.push(1.0, lambda: comm.irecv(1, 0, tag=0, nbytes=100))
        engine.run()
        r = comm.requests[-1]
        assert r.complete_time == pytest.approx(1.0)


class TestRendezvous:
    def test_send_waits_for_recv(self):
        engine, comm = make()
        nbytes = 1_000_000  # above threshold
        s = comm.isend(0, 1, tag=0, nbytes=nbytes)
        engine.push(0.5, lambda: comm.irecv(1, 0, tag=0, nbytes=nbytes))
        engine.run()
        assert s.done
        expected = 0.5 + 1e-6 + 1e-6 + nbytes / 1e9
        assert s.complete_time == pytest.approx(expected)
        r = comm.requests[-1]
        assert r.complete_time == pytest.approx(expected)

    def test_rendezvous_slower_than_eager_for_same_lateness(self):
        engine, comm = make()
        s_e = comm.isend(0, 1, tag=0, nbytes=512)
        s_r = comm.isend(0, 1, tag=1, nbytes=2048)
        comm.irecv(1, 0, tag=0, nbytes=512)
        comm.irecv(1, 0, tag=1, nbytes=2048)
        engine.run()
        assert s_e.complete_time < s_r.complete_time


class TestMatching:
    def test_fifo_matching_same_key(self):
        engine, comm = make()
        s1 = comm.isend(0, 1, tag=0, nbytes=10)
        s2 = comm.isend(0, 1, tag=0, nbytes=20)
        r1 = comm.irecv(1, 0, tag=0, nbytes=10)
        r2 = comm.irecv(1, 0, tag=0, nbytes=20)
        engine.run()
        assert r1.done and r2.done

    def test_tag_separation(self):
        engine, comm = make()
        comm.isend(0, 1, tag=5, nbytes=10)
        r = comm.irecv(1, 0, tag=6, nbytes=10)
        engine.run()
        assert not r.done
        assert comm.unmatched()["recvs"] == 1
        assert comm.unmatched()["sends"] == 1

    def test_recv_first_then_send(self):
        engine, comm = make()
        r = comm.irecv(1, 0, tag=0, nbytes=10)
        s = comm.isend(0, 1, tag=0, nbytes=10)
        engine.run()
        assert r.done and s.done

    def test_assert_quiescent(self):
        engine, comm = make()
        comm.isend(0, 1, tag=0, nbytes=10)
        engine.run()
        with pytest.raises(RuntimeError, match="not quiescent"):
            comm.assert_quiescent()

    def test_rank_bounds_checked(self):
        engine, comm = make()
        with pytest.raises(ValueError):
            comm.isend(0, 5, tag=0, nbytes=10)
        with pytest.raises(ValueError):
            comm.irecv(-1, 0, tag=0, nbytes=10)


class TestAllreduce:
    def test_completes_when_all_join(self):
        engine, comm = make(n_ranks=3)
        r0 = comm.iallreduce(0, 8)
        engine.run()
        assert not r0.done
        r1 = comm.iallreduce(1, 8)
        engine.push(0.25, lambda: comm.iallreduce(2, 8))
        engine.run()
        assert r0.done and r1.done
        # Completion is gated by the last joiner (the skew effect of §4.1).
        assert r0.complete_time >= 0.25

    def test_all_ranks_complete_together(self):
        engine, comm = make(n_ranks=4)
        reqs = [comm.iallreduce(r, 8) for r in range(4)]
        engine.run()
        times = {r.complete_time for r in reqs}
        assert len(times) == 1

    def test_slot_ordering(self):
        """Each rank's k-th call joins slot k, even posted out of phase."""
        engine, comm = make(n_ranks=2)
        a0 = comm.iallreduce(0, 8)
        b0 = comm.iallreduce(0, 8)  # rank 0's second collective
        a1 = comm.iallreduce(1, 8)
        engine.run()
        assert a0.done and a1.done
        assert not b0.done
        b1 = comm.iallreduce(1, 8)
        engine.run()
        assert b0.done and b1.done
        assert b0.complete_time >= a0.complete_time

    def test_single_rank_world(self):
        engine, comm = make(n_ranks=1)
        r = comm.iallreduce(0, 8)
        engine.run()
        assert r.done


class TestRequest:
    def test_callback_after_completion_fires_immediately(self):
        engine, comm = make()
        s = comm.isend(0, 1, tag=0, nbytes=10)
        engine.run()
        fired = []
        s.on_complete(lambda r: fired.append(r.rid))
        assert fired == [s.rid]

    def test_double_completion_rejected(self):
        engine, comm = make()
        s = comm.isend(0, 1, tag=0, nbytes=10)
        engine.run()
        with pytest.raises(RuntimeError, match="twice"):
            s.fire_completion(99.0)
