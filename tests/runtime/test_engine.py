"""Unit tests for the DES event queue."""

import pytest

from repro.sim.events import EventQueue


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        log = []
        q.push(2.0, log.append, "b")
        q.push(1.0, log.append, "a")
        q.push(3.0, log.append, "c")
        q.run()
        assert log == ["a", "b", "c"]

    def test_fifo_ties(self):
        q = EventQueue()
        log = []
        for i in range(5):
            q.push(1.0, log.append, i)
        q.run()
        assert log == list(range(5))

    def test_clock_advances(self):
        q = EventQueue()
        seen = []
        q.push(0.5, lambda: seen.append(q.now))
        q.push(1.5, lambda: seen.append(q.now))
        q.run()
        assert seen == [0.5, 1.5]

    def test_push_now_runs_after_current_ties(self):
        q = EventQueue()
        log = []
        def first():
            log.append("first")
            q.push_now(lambda: log.append("chained"))
        q.push(1.0, first)
        q.push(1.0, lambda: log.append("second"))
        q.run()
        assert log == ["first", "second", "chained"]

    def test_events_scheduled_from_handlers(self):
        q = EventQueue()
        log = []
        def recurse(n):
            log.append(n)
            if n < 3:
                q.push(q.now + 1.0, recurse, n + 1)
        q.push(0.0, recurse, 0)
        q.run()
        assert log == [0, 1, 2, 3]
        assert q.now == 3.0


class TestGuards:
    def test_push_in_past_rejected(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.step()
        with pytest.raises(ValueError, match="before current time"):
            q.push(0.5, lambda: None)

    def test_step_on_empty(self):
        q = EventQueue()
        assert not q.step()

    def test_max_events_budget(self):
        q = EventQueue()
        def forever():
            q.push(q.now + 1.0, forever)
        q.push(0.0, forever)
        with pytest.raises(RuntimeError, match="budget"):
            q.run(max_events=100)

    def test_max_events_sufficient(self):
        q = EventQueue()
        for i in range(5):
            q.push(float(i), lambda: None)
        q.run(max_events=10)
        assert len(q) == 0
        assert q.n_dispatched == 5
