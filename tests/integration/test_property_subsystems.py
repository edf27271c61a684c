"""Property-based tests of the substrates: MPI matching, LRU cache,
persistent-replay equivalence."""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.memory.cache import LRUCache
from repro.mpi.comm import Communicator
from repro.mpi.network import NetworkSpec
from repro.sim.events import EventQueue


class TestCommProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        msgs=st.lists(
            st.tuples(
                st.integers(0, 2),          # tag
                st.integers(1, 200_000),    # nbytes (spans eager/rendezvous)
                st.floats(0.0, 1e-3),       # send post delay
                st.floats(0.0, 1e-3),       # recv post delay
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_all_messages_match_and_complete(self, msgs):
        engine = EventQueue()
        comm = Communicator(engine, NetworkSpec(eager_threshold=64 * 1024), 2)
        reqs = []
        for tag, nbytes, ts, tr in msgs:
            engine.push(ts, lambda t=tag, n=nbytes: reqs.append(comm.isend(0, 1, t, n)))
            engine.push(tr, lambda t=tag, n=nbytes: reqs.append(comm.irecv(1, 0, t, n)))
        engine.run()
        comm.assert_quiescent()
        for r in reqs:
            assert r.done
            # Completion never precedes posting.
            assert r.complete_time >= r.post_time - 1e-15

    @settings(max_examples=30, deadline=None)
    @given(
        joins=st.lists(st.floats(0.0, 1e-3), min_size=2, max_size=8),
    )
    def test_allreduce_completion_gated_by_last(self, joins):
        n = len(joins)
        engine = EventQueue()
        comm = Communicator(engine, NetworkSpec(), n)
        reqs = []
        for rank, t in enumerate(joins):
            engine.push(t, lambda r=rank: reqs.append(comm.iallreduce(r, 8)))
        engine.run()
        times = {r.complete_time for r in reqs}
        assert len(times) == 1
        assert times.pop() >= max(joins)


class _RefLRU:
    """Reference LRU model to check the production implementation against."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()

    def used(self):
        return sum(self.entries.values())

    def touch(self, k):
        if k in self.entries:
            self.entries.move_to_end(k)
            return True
        return False

    def insert(self, k, n):
        self.entries.pop(k, None)
        if n > self.capacity:
            return
        while self.used() + n > self.capacity and self.entries:
            self.entries.popitem(last=False)
        self.entries[k] = n


class TestLRUAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["touch", "insert", "invalidate"]),
                st.integers(0, 6),            # chunk id
                st.integers(0, 600),          # bytes
            ),
            max_size=60,
        )
    )
    def test_matches_reference_model(self, ops):
        real = LRUCache(1000)
        ref = _RefLRU(1000)
        for op, k, n in ops:
            if op == "touch":
                assert real.touch(k) == ref.touch(k)
            elif op == "insert":
                real.insert(k, n)
                ref.insert(k, n)
            else:
                real.invalidate(k)
                ref.entries.pop(k, None)
            assert real.used_bytes == ref.used()
            assert list(real.chunks()) == list(ref.entries)
            assert real.used_bytes <= 1000


class TestPersistentReplayEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        width=st.integers(1, 6),
        iterations=st.integers(2, 5),
        seed=st.integers(0, 10_000),
    )
    def test_numeric_equality_persistent_vs_not(self, width, iterations, seed):
        """Running N iterations with the persistent graph must produce the
        same numbers as without it — the extension is purely a runtime
        caching optimization."""
        from repro.apps.hpcg import NumericCG, laplacian_27pt
        from repro.core import OptimizationSet
        from repro.memory import tiny_test_machine
        from repro.runtime import RuntimeConfig, TaskRuntime

        a = laplacian_27pt(4, 4, 4)
        b = np.random.default_rng(seed).normal(size=a.shape[0])
        results = {}
        for opts in ("abc", "abcp"):
            cg = NumericCG(a, b, n_blocks=width)
            cfg = RuntimeConfig(
                machine=tiny_test_machine(4),
                opts=OptimizationSet.parse(opts),
                execute_bodies=True,
            )
            TaskRuntime(cg.build_program(iterations), cfg).run()
            results[opts] = cg.st.x.copy()
        assert np.array_equal(results["abc"], results["abcp"])
