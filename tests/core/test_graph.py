"""Unit tests for TaskGraph storage and edge accounting."""

import pytest

from repro.core.graph import EdgeStats, TaskGraph
from repro.core.graph_stats import topological_order
from repro.core.task import TaskState


class TestEdgeCreation:
    def test_simple_edge(self):
        g = TaskGraph()
        a, b = g.new_task(name="a"), g.new_task(name="b")
        assert g.add_edge(a, b, dedup=False)
        assert b.npred == 1
        assert a.successors == [b]
        assert g.n_edges == 1

    def test_self_edge_rejected(self):
        g = TaskGraph()
        a = g.new_task()
        assert not g.add_edge(a, a, dedup=False)
        assert g.n_edges == 0

    def test_duplicate_skipped_with_dedup(self):
        g = TaskGraph()
        a, b = g.new_task(), g.new_task()
        g.add_edge(a, b, dedup=True)
        assert not g.add_edge(a, b, dedup=True)
        assert b.npred == 1
        assert g.stats.duplicates_skipped == 1

    def test_duplicate_created_without_dedup(self):
        g = TaskGraph()
        a, b = g.new_task(), g.new_task()
        g.add_edge(a, b, dedup=False)
        assert g.add_edge(a, b, dedup=False)
        assert b.npred == 2
        assert g.stats.duplicates_created == 1
        assert g.n_edges == 2

    def test_nonadjacent_duplicate_not_detected(self):
        # O(1) detection only catches adjacent duplicates; interleaving a
        # different successor resets last_successor.
        g = TaskGraph()
        a, b, c = g.new_task(), g.new_task(), g.new_task()
        g.add_edge(a, b, dedup=True)
        g.add_edge(a, c, dedup=True)
        assert g.add_edge(a, b, dedup=True)
        assert b.npred == 2

    def test_prune_completed(self):
        g = TaskGraph()
        a, b = g.new_task(), g.new_task()
        a.state = TaskState.COMPLETED
        assert not g.add_edge(a, b, dedup=False)
        assert g.stats.pruned == 1
        assert b.npred == 0

    def test_persistent_presatisfied(self):
        g = TaskGraph(persistent=True)
        a, b = g.new_task(), g.new_task()
        a.state = TaskState.COMPLETED
        assert g.add_edge(a, b, dedup=False)
        assert b.npred == 0
        assert b.presat == 1
        assert a.successors == [b]


class TestGraphLifecycle:
    def test_tids_sequential(self):
        g = TaskGraph()
        tasks = [g.new_task() for _ in range(5)]
        assert [t.tid for t in tasks] == list(range(5))

    def test_stub_counted(self):
        g = TaskGraph()
        s = g.new_stub()
        assert s.is_stub
        assert g.stats.redirect_nodes == 1

    def test_persistent_flag_propagates(self):
        g = TaskGraph(persistent=True)
        t = g.new_task()
        assert t.persistent

    def test_reset_for_replay(self):
        g = TaskGraph(persistent=True)
        a, b = g.new_task(), g.new_task()
        g.add_edge(a, b, dedup=False)
        a.npred_initial, b.npred_initial = 0, 1
        a.state = b.state = TaskState.COMPLETED
        b.npred = 0
        g.reset_for_replay()
        assert a.state == TaskState.CREATED
        assert b.npred == 1

    def test_validate_acyclic_ok(self):
        g = TaskGraph()
        a, b, c = g.new_task(), g.new_task(), g.new_task()
        g.add_edge(a, b, dedup=False)
        g.add_edge(b, c, dedup=False)
        g.validate_acyclic()  # no raise

    def test_validate_acyclic_detects_cycle(self):
        g = TaskGraph()
        a, b = g.new_task(), g.new_task()
        # Force a cycle (the resolver can never produce one: it only adds
        # edges towards the task currently being submitted).
        g.add_edge(a, b, dedup=False)
        g.add_edge(b, a, dedup=False)
        with pytest.raises(ValueError, match="cycle"):
            g.validate_acyclic()


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
