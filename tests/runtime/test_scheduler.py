"""Unit tests for the ready-task schedulers."""

import pytest

from repro.runtime.scheduler import (
    FifoBreadthFirstScheduler,
    LifoDepthFirstScheduler,
    make_scheduler,
)


def tasks(n):
    return list(range(n))


class TestLifoDepthFirst:
    def test_local_pop_is_lifo(self):
        s = LifoDepthFirstScheduler(2, seed=0)
        a, b, c = tasks(3)
        s.push_local(0, a)
        s.push_local(0, b)
        s.push_local(0, c)
        assert s.pop(0) == (c, "local")
        assert s.pop(0) == (b, "local")
        assert s.pop(0) == (a, "local")

    def test_spawn_queue_is_fifo(self):
        s = LifoDepthFirstScheduler(2, seed=0)
        a, b = tasks(2)
        s.push_spawn(a)
        s.push_spawn(b)
        assert s.pop(0) == (a, "spawn")
        assert s.pop(1) == (b, "spawn")

    def test_own_deque_preferred_over_spawn(self):
        s = LifoDepthFirstScheduler(2, seed=0)
        a, b = tasks(2)
        s.push_spawn(a)
        s.push_local(0, b)
        assert s.pop(0) == (b, "local")

    def test_steal_from_victim_bottom(self):
        s = LifoDepthFirstScheduler(2, seed=0)
        a, b = tasks(2)
        s.push_local(0, a)
        s.push_local(0, b)
        task, src = s.pop(1)
        assert src == "steal"
        assert task == a  # bottom = oldest

    def test_priority_pops_first(self):
        s = LifoDepthFirstScheduler(2, seed=0)
        a, b, c = tasks(3)
        s.push_local(0, a)
        s.push_spawn(b)
        s.push_local(0, c, priority=True)
        assert s.pop(1) == (c, "spawn")
        assert s.pop(0) == (a, "local")

    def test_empty_pop(self):
        s = LifoDepthFirstScheduler(2, seed=0)
        assert s.pop(0) == (None, "none")

    def test_n_ready_accounting(self):
        s = LifoDepthFirstScheduler(2, seed=0)
        a, b, c = tasks(3)
        s.push_local(0, a)
        s.push_spawn(b)
        s.push_local(1, c)
        assert s.n_ready == 3
        s.pop(0)
        s.pop(0)
        s.pop(0)
        assert s.n_ready == 0

    def test_stats(self):
        s = LifoDepthFirstScheduler(2, seed=0)
        a, b = tasks(2)
        s.push_local(1, a)
        s.push_spawn(b)
        s.pop(0)  # spawn
        s.pop(0)  # steal
        assert s.stats.pops_spawn == 1
        assert s.stats.steals == 1

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            LifoDepthFirstScheduler(0)


class TestFifoBreadthFirst:
    def test_global_fifo(self):
        s = FifoBreadthFirstScheduler(2)
        a, b, c = tasks(3)
        s.push_local(0, a)
        s.push_spawn(b)
        s.push_local(1, c)
        assert s.pop(0)[0] == a
        assert s.pop(1)[0] == b
        assert s.pop(0)[0] == c

    def test_n_ready(self):
        s = FifoBreadthFirstScheduler(2)
        s.push_spawn(0)
        assert s.n_ready == 1


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_scheduler("lifo-df", 2), LifoDepthFirstScheduler)
        assert isinstance(make_scheduler("fifo-bf", 2), FifoBreadthFirstScheduler)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("magic", 2)
