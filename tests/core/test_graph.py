"""Unit tests for TDG edge accounting and acyclicity over the task table."""

import pytest

from repro.core.graph_stats import EdgeStats, topological_order
from repro.sim.table import COMPLETED, CREATED, TaskTable


class TestEdgeCreation:
    def test_simple_edge(self):
        g = TaskTable()
        a, b = g.new(name="a"), g.new(name="b")
        assert g.add_edge(a, b, dedup=False)
        assert g.npred[b] == 1
        assert g.succs[a] == [b]
        assert g.n_edges == 1

    def test_self_edge_rejected(self):
        g = TaskTable()
        a = g.new()
        assert not g.add_edge(a, a, dedup=False)
        assert g.n_edges == 0

    def test_duplicate_skipped_with_dedup(self):
        g = TaskTable()
        a, b = g.new(), g.new()
        g.add_edge(a, b, dedup=True)
        assert not g.add_edge(a, b, dedup=True)
        assert g.npred[b] == 1
        assert g.stats.duplicates_skipped == 1

    def test_duplicate_created_without_dedup(self):
        g = TaskTable()
        a, b = g.new(), g.new()
        g.add_edge(a, b, dedup=False)
        assert g.add_edge(a, b, dedup=False)
        assert g.npred[b] == 2
        assert g.stats.duplicates_created == 1
        assert g.n_edges == 2

    def test_nonadjacent_duplicate_not_detected(self):
        # O(1) detection only catches adjacent duplicates; interleaving a
        # different successor resets last_succ.
        g = TaskTable()
        a, b, c = g.new(), g.new(), g.new()
        g.add_edge(a, b, dedup=True)
        g.add_edge(a, c, dedup=True)
        assert g.add_edge(a, b, dedup=True)
        assert g.npred[b] == 2

    def test_prune_completed(self):
        g = TaskTable()
        a, b = g.new(), g.new()
        g.state[a] = COMPLETED
        assert not g.add_edge(a, b, dedup=False)
        assert g.stats.pruned == 1
        assert g.npred[b] == 0

    def test_persistent_presatisfied(self):
        g = TaskTable(persistent=True)
        a, b = g.new(), g.new()
        g.state[a] = COMPLETED
        assert g.add_edge(a, b, dedup=False)
        assert g.npred[b] == 0
        assert g.presat[b] == 1
        assert g.succs[a] == [b]


class TestGraphLifecycle:
    def test_tids_sequential(self):
        g = TaskTable()
        tids = [g.new() for _ in range(3)] + [g.new_stub()] + [g.new()]
        assert tids == list(range(5))

    def test_stub_counted(self):
        g = TaskTable()
        s = g.new_stub()
        assert g.is_stub[s]
        assert g.stats.redirect_nodes == 1

    def test_persistent_flag_propagates(self):
        assert TaskTable().prune_completed
        g = TaskTable(persistent=True)
        assert g.persistent
        assert not g.prune_completed

    def test_reset_for_replay(self):
        g = TaskTable(persistent=True)
        a, b = g.new(), g.new()
        g.add_edge(a, b, dedup=False)
        g.npred_initial[a], g.npred_initial[b] = 0, 1
        g.state[a] = g.state[b] = COMPLETED
        g.npred[b] = 0
        g.reset_for_replay()
        assert g.state[a] == CREATED
        assert g.npred[b] == 1

    def test_validate_acyclic_ok(self):
        g = TaskTable()
        a, b, c = g.new(), g.new(), g.new()
        g.add_edge(a, b, dedup=False)
        g.add_edge(b, c, dedup=False)
        assert topological_order(*g.build_csr()) == [a, b, c]

    def test_validate_acyclic_detects_cycle(self):
        g = TaskTable()
        a, b = g.new(), g.new()
        # Force a cycle (the resolver can never produce one: it only adds
        # edges towards the task currently being submitted).
        g.add_edge(a, b, dedup=False)
        g.add_edge(b, a, dedup=False)
        with pytest.raises(ValueError, match="cycle"):
            topological_order(*g.build_csr())


class TestTopologicalOrder:
    def test_fifo_from_sources_in_tid_order(self):
        # 2 -> 0 and 3 -> 1: sources 2, 3 first, then their successors in
        # the order they were released (a stack would give 3, 1, 2, 0).
        assert topological_order([0, 0, 0, 1, 2], [0, 1]) == [2, 3, 0, 1]

    def test_duplicate_edges(self):
        assert topological_order([0, 2, 2], [1, 1]) == [0, 1]

    def test_empty_graph(self):
        assert topological_order([0], []) == []

    def test_cycle_detected(self):
        with pytest.raises(ValueError, match="cycle"):
            topological_order([0, 1, 2], [1, 0])


class TestEdgeStats:
    def test_merge(self):
        a = EdgeStats(created=1, pruned=2, duplicates_skipped=3)
        b = EdgeStats(created=10, redirect_nodes=1, duplicates_created=4)
        a.merge(b)
        assert a.created == 11
        assert a.pruned == 2
        assert a.duplicates_skipped == 3
        assert a.duplicates_created == 4
        assert a.redirect_nodes == 1
