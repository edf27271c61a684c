"""Exporter tests: Perfetto/Chrome trace JSON and NDJSON (repro.obs.export)."""

import json

import pytest

from repro.core import ProgramBuilder
from repro.memory import tiny_test_machine
from repro.obs import (
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
    iter_ndjson,
    to_perfetto,
    validate_perfetto,
    write_ndjson,
    write_perfetto,
)
from repro.obs.recorder import CommRecord
from repro.runtime import RuntimeConfig, TaskRuntime
from repro.sim import InstrumentationBus


def small_program():
    b = ProgramBuilder("exp")
    for _ in range(2):
        with b.iteration():
            b.task("src", out=["x"], flops=200.0)
            b.task("left", inp=["x"], flops=100.0)
            b.task("right", inp=["x"], flops=150.0)
            b.taskwait()
    return b.build()


@pytest.fixture()
def recorder():
    bus = InstrumentationBus()
    rec = bus.attach(TraceRecorder())
    TaskRuntime(
        small_program(),
        RuntimeConfig(machine=tiny_test_machine(2), seed=1),
        bus=bus,
    ).run()
    return rec


class TestPerfetto:
    def test_valid_document(self, recorder):
        doc = validate_perfetto(to_perfetto(recorder))
        assert doc["otherData"]["version"] == TRACE_SCHEMA_VERSION
        phases = {ev["ph"] for ev in doc["traceEvents"]}
        assert "M" in phases and "X" in phases

    def test_one_span_per_task_end(self, recorder):
        doc = to_perfetto(recorder)
        spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert len(spans) == recorder.n_spans == 6
        names = {ev["name"] for ev in spans}
        assert names == {"src", "left", "right"}

    def test_flow_events_along_edges(self, recorder):
        # src is tid 0/3, left tid 1/4 per iteration: one flow per iteration.
        doc = to_perfetto(recorder, edges=[(0, 1)])
        starts = [ev for ev in doc["traceEvents"] if ev["ph"] == "s"]
        finishes = [ev for ev in doc["traceEvents"] if ev["ph"] == "f"]
        assert len(starts) == len(finishes) >= 1
        assert all(ev["bp"] == "e" for ev in finishes)
        validate_perfetto(doc)

    def test_in_flight_request_becomes_instant(self, recorder):
        recorder.comm_records.append(
            CommRecord("isend", 0, 1, 4096, 0.5, float("nan"))
        )
        doc = validate_perfetto(to_perfetto(recorder))
        instants = [
            ev for ev in doc["traceEvents"]
            if ev["ph"] == "i" and ev.get("cat") == "mpi"
        ]
        assert len(instants) == 1
        assert "in flight" in instants[0]["name"]
        # Strict serialization must not see a NaN token anywhere.
        assert "NaN" not in json.dumps(doc, allow_nan=False)

    def test_completed_request_becomes_span(self, recorder):
        recorder.comm_records.append(CommRecord("isend", 0, 1, 4096, 0.5, 0.9))
        doc = validate_perfetto(to_perfetto(recorder))
        mpi = [
            ev for ev in doc["traceEvents"]
            if ev["ph"] == "X" and ev.get("cat") == "mpi"
        ]
        assert len(mpi) == 1
        assert mpi[0]["dur"] == pytest.approx(0.4e6)

    def test_write_roundtrip(self, recorder, tmp_path):
        path = write_perfetto(tmp_path / "trace.json", to_perfetto(recorder))
        loaded = json.loads(path.read_text())
        validate_perfetto(loaded)


class TestValidateRejections:
    def test_wrong_schema(self):
        with pytest.raises(ValueError, match="not a repro trace"):
            validate_perfetto({"traceEvents": [], "otherData": {}})

    def test_wrong_version(self):
        with pytest.raises(ValueError, match="version"):
            validate_perfetto(
                {"traceEvents": [],
                 "otherData": {"schema": "repro.obs.trace",
                               "version": TRACE_SCHEMA_VERSION + 1}}
            )

    def test_missing_required_field(self, recorder):
        doc = to_perfetto(recorder)
        span = next(ev for ev in doc["traceEvents"] if ev["ph"] == "X")
        del span["ts"]
        with pytest.raises(ValueError, match="missing"):
            validate_perfetto(doc)

    def test_nan_timestamp_rejected(self, recorder):
        doc = to_perfetto(recorder)
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X":
                ev["ts"] = float("nan")
                break
        with pytest.raises(ValueError, match="non-finite"):
            validate_perfetto(doc)

    def test_unknown_phase_rejected(self, recorder):
        doc = to_perfetto(recorder)
        doc["traceEvents"].append({"ph": "Z"})
        with pytest.raises(ValueError, match="unknown phase"):
            validate_perfetto(doc)


class TestNdjson:
    def test_every_line_is_strict_json(self, recorder):
        recorder.comm_records.append(
            CommRecord("irecv", 0, 1, 64, 0.1, float("nan"))
        )
        lines = list(iter_ndjson(recorder))
        assert len(lines) == 1 + recorder.n_spans + len(
            recorder.barrier_kind
        ) + 1
        for line in lines:
            assert "NaN" not in line
            json.loads(line)

    def test_header_carries_schema_and_names(self, recorder):
        header = json.loads(next(iter_ndjson(recorder)))
        assert header["ev"] == "header"
        assert header["schema"] == "repro.obs.trace"
        assert header["version"] == TRACE_SCHEMA_VERSION
        assert set(header["names"]) == {"src", "left", "right"}

    def test_in_flight_complete_is_null(self, recorder):
        recorder.comm_records.append(
            CommRecord("irecv", 0, 1, 64, 0.1, float("nan"))
        )
        comm = [
            json.loads(line) for line in iter_ndjson(recorder)
        ][-1]
        assert comm["ev"] == "comm"
        assert comm["complete"] is None

    def test_write_file(self, recorder, tmp_path):
        path = write_ndjson(tmp_path / "events.ndjson", recorder)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["ev"] == "header"
        assert all(json.loads(line) for line in lines)
