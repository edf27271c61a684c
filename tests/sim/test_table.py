"""Unit tests for the struct-of-arrays task table."""

import math

from repro.core.task import AccessMode, split_footprint
from repro.sim.table import COMPLETED, CREATED, TaskTable


class TestAllocation:
    def test_new_rows_are_created_state(self):
        t = TaskTable()
        tid = t.new("a", flops=10.0)
        assert t.state[tid] == CREATED
        assert t.npred[tid] == 0
        assert list(t.succs[tid]) == []
        assert math.isnan(t.started_at[tid])

    def test_footprint_normalized_to_chunks_and_modes(self):
        footprint = [(1, 100), (2, 200, AccessMode.READ)]
        t = TaskTable()
        tid = t.new("a", footprint=footprint)
        assert t.footprint[tid] == ((1, 100), (2, 200))
        # The modes feed the static analyses (TaskSpec.accesses), not the
        # table; a bare 2-tuple defaults to read-modify-write.
        assert split_footprint(footprint) == (
            ((1, 100), (2, 200)),
            (AccessMode.READWRITE, AccessMode.READ),
        )

    def test_new_stub_counts_redirects(self):
        t = TaskTable()
        s = t.new_stub()
        assert t.is_stub[s]
        assert t.stats.redirect_nodes == 1


class TestEdges:
    def test_add_edge_increments_npred(self):
        t = TaskTable()
        a, b = t.new("a"), t.new("b")
        assert t.add_edge(a, b, dedup=True)
        assert t.npred[b] == 1
        assert t.succs[a] == [b]
        assert t.stats.created == 1

    def test_self_edge_rejected(self):
        t = TaskTable()
        a = t.new("a")
        assert not t.add_edge(a, a, dedup=True)
        assert t.stats.created == 0

    def test_dedup_skips_adjacent_duplicate(self):
        t = TaskTable()
        a, b = t.new("a"), t.new("b")
        t.add_edge(a, b, dedup=True)
        assert not t.add_edge(a, b, dedup=True)
        assert t.stats.duplicates_skipped == 1
        assert t.npred[b] == 1

    def test_no_dedup_creates_duplicate_with_multiplicity(self):
        t = TaskTable()
        a, b = t.new("a"), t.new("b")
        t.add_edge(a, b, dedup=False)
        assert t.add_edge(a, b, dedup=False)
        assert t.stats.duplicates_created == 1
        assert t.npred[b] == 2  # two satisfies needed -> correctness without (b)

    def test_completed_pred_pruned(self):
        t = TaskTable()
        a, b = t.new("a"), t.new("b")
        t.state[a] = COMPLETED
        assert not t.add_edge(a, b, dedup=True)
        assert t.stats.pruned == 1
        assert t.npred[b] == 0

    def test_completed_pred_presat_when_persistent(self):
        t = TaskTable(persistent=True)
        a, b = t.new("a"), t.new("b")
        t.state[a] = COMPLETED
        assert t.add_edge(a, b, dedup=True)
        assert t.presat[b] == 1
        assert t.npred[b] == 0  # satisfied for the current iteration

    def test_iter_edges_and_count(self):
        t = TaskTable()
        a, b, c = t.new("a"), t.new("b"), t.new("c")
        t.add_edge(a, b, dedup=True)
        t.add_edge(a, c, dedup=True)
        t.add_edge(b, c, dedup=True)
        assert list(t.iter_edges()) == [(a, b), (a, c), (b, c)]
        assert t.n_edges == 3


class TestCsr:
    def test_build_csr_matches_adjacency(self):
        t = TaskTable()
        tids = [t.new(str(i)) for i in range(4)]
        t.add_edge(tids[0], tids[1], dedup=True)
        t.add_edge(tids[0], tids[2], dedup=True)
        t.add_edge(tids[2], tids[3], dedup=True)
        offsets, targets = t.build_csr()
        assert offsets == [0, 2, 2, 3, 3]
        assert targets == [1, 2, 3]
        for tid in tids:
            assert targets[offsets[tid]:offsets[tid + 1]] == list(t.succs[tid])


class TestReplay:
    def test_reset_for_replay_restores_counters_keeps_edges(self):
        t = TaskTable(persistent=True)
        a, b = t.new("a"), t.new("b")
        t.add_edge(a, b, dedup=True)
        t.npred_initial[a] = 0
        t.npred_initial[b] = 1
        for tid in (a, b):
            t.state[tid] = COMPLETED
            t.npred[tid] = 0
        t.reset_for_replay()
        assert t.state[b] != COMPLETED
        assert t.npred[b] == 1
        assert t.succs[a] == [b]  # the expensive part survives

