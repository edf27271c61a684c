"""Unit tests for the span columns the profiler analyses read."""

import numpy as np

from repro.obs.recorder import CommRecord, TraceRecorder
from repro.obs.comm_metrics import _work_intervals


class _Table:
    """The three task-table columns ``on_task_end`` reads."""

    def __init__(self, name):
        self.name = [name]
        self.loop_id = [0]
        self.iteration = [0]


class TestSpanColumns:
    def test_record_and_columns(self):
        t = TraceRecorder()
        t.add_span(0, "a", 1, 0, 0, 2, 0.0, 1.0)
        t.add_span(1, "b", 1, 0, 0, 3, 1.0, 2.0)
        assert t.span_tid == [0, 1]
        assert t.span_worker == [2, 3]
        assert t.span_names() == ["a", "b"]
        assert t.n_spans == 2

    def test_rank_filter_keeps_only_that_rank(self):
        t = TraceRecorder(rank=1)
        mine, other, unregistered = _Table("mine"), _Table("other"), _Table("x")
        t.on_register(other, 0)
        t.on_register(mine, 1)
        for worker, table in enumerate((other, mine, unregistered)):
            t.on_task_end(table, 0, worker, 0.0, 1.0)
        assert t.span_names() == ["mine"]
        assert t.span_rank == [1]
        assert t.span_worker == [1]

    def test_work_intervals_sorted_per_worker(self):
        t = TraceRecorder()
        t.add_span(0, "a", 0, 0, 0, 0, 5.0, 6.0)
        t.add_span(1, "b", 0, 0, 0, 0, 1.0, 2.0)
        t.add_span(2, "c", 0, 0, 0, 1, 3.0, 4.0)
        ivs = _work_intervals(t, 2)
        assert np.allclose(ivs[0], [[1.0, 2.0], [5.0, 6.0]])
        assert np.allclose(ivs[1], [[3.0, 4.0]])

    def test_empty_columns(self):
        t = TraceRecorder()
        assert t.n_spans == 0
        assert t.span_names() == []
        assert _work_intervals(t, 1)[0].shape == (0, 2)


class TestCommRecord:
    def test_duration(self):
        r = CommRecord("isend", 0, 1, 100, 2.0, 5.0)
        assert r.duration == 3.0
