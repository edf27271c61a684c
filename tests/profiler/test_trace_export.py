"""Trace serialization: the NDJSON event log and the result dict."""

import json

from repro.obs import TraceRecorder, iter_ndjson
from repro.runtime import RunResult
from repro.util.serde import canonical_json


def sample_trace():
    t = TraceRecorder()
    t.add_span(0, "a[0]", 1, 0, 0, 2, 0.0, 1.5)
    t.add_span(1, "b[0]", 2, 1, 0, 3, 1.5, 2.25)
    return t


def traced_run():
    from repro.core import ProgramBuilder
    from repro.memory import tiny_test_machine
    from repro.runtime import RuntimeConfig, TaskRuntime

    b = ProgramBuilder("p")
    with b.iteration():
        for i in range(5):
            b.task(f"t{i}", out=[("y", i)], flops=1000.0)
    return TaskRuntime(
        b.build(), RuntimeConfig(machine=tiny_test_machine(2), trace=True)
    ).run()


class TestJsonLines:
    def test_round_trip(self):
        r = traced_run()
        clone = RunResult.from_dict(json.loads(canonical_json(r.to_dict())))
        assert clone.trace.span_names() == r.trace.span_names()
        for col in ("span_tid", "span_loop", "span_iteration", "span_rank",
                    "span_worker", "span_start", "span_end"):
            assert getattr(clone.trace, col) == getattr(r.trace, col), col

    def test_one_line_per_record(self):
        # Header line, then one line per span.
        assert len(list(iter_ndjson(sample_trace()))) == 1 + 2

    def test_empty_trace(self):
        (header,) = iter_ndjson(TraceRecorder())
        assert json.loads(header)["ev"] == "header"

    def test_runtime_trace_exports(self):
        events = [json.loads(line) for line in iter_ndjson(traced_run().trace)]
        tasks = [e for e in events if e["ev"] == "task"]
        assert len(tasks) == 5
        assert all("worker" in e for e in tasks)
