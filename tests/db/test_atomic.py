"""Store writes are atomic: an injected failure leaves the store unchanged.

Each write below fails part-way through (a value SQLite cannot bind, or
a result document that is not JSON).  The run's rows must then be those
it had before the call — none for a first write, the earlier recording
and counters for a rewrite — and the write connection must be out of
its transaction, so the store keeps working.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.campaign.spec import ExperimentSpec
from repro.db import (
    CampaignDB,
    read_trace,
    run_id,
    store_profile,
    write_counters,
    write_trace,
)
from repro.db.schema import TABLES
from repro.memory.machine import tiny_test_machine
from repro.obs.counters import DiscoveryCounters, IterationCounters
from repro.obs.profile import profile_spec
from repro.obs.recorder import CommRecord, TraceRecorder
from repro.runtime import presets

#: Tables whose rows carry the integer run id.
TRACE_TABLES = ("spans", "barriers", "comms", "counters")


def recorder(*, bad_comm: bool = False) -> TraceRecorder:
    """Two spans, one barrier, one comm record; ``bad_comm`` makes the
    comm record's byte count a value SQLite cannot bind."""
    rec = TraceRecorder()
    rec.add_span(0, "a", 0, 0, 0, 0, 0.0, 1.0)
    rec.add_span(1, "b", 0, 0, 0, 1, 0.5, 2.0)
    rec.barrier_kind.append("taskwait")
    rec.barrier_time.append(2.0)
    rec.comm_records.append(CommRecord(
        kind="isend", rank=0, peer=1,
        nbytes={"not": "bindable"} if bad_comm else 64,
        post_time=0.0, complete_time=1.5,
    ))
    return rec


def counters_doc(tasks_created) -> dict:
    """One per-iteration counters row; ``tasks_created`` is stored as is."""
    dc = DiscoveryCounters()
    dc.rows[0, 0] = IterationCounters(
        tasks_created=3, edges_created=1, creation_cost=0.25)
    doc = dc.to_dict()
    doc["per_iteration"][0]["tasks_created"] = tasks_created
    return doc


def run_rows(db: CampaignDB, run: str) -> dict[str, list[tuple]]:
    """Every row of ``run`` per trace table, plus its ``trace_runs`` row."""
    rid = run_id(run)
    conn = db.conn
    rows = {
        table: conn.execute(
            f"SELECT * FROM {table} WHERE run = ? ORDER BY 2, 3", (rid,)
        ).fetchall()
        for table in TRACE_TABLES
    }
    rows["trace_runs"] = conn.execute(
        "SELECT * FROM trace_runs WHERE id = ?", (rid,)
    ).fetchall()
    return rows


@pytest.fixture
def db(tmp_path):
    with CampaignDB(tmp_path / "atomic.sqlite") as db:
        yield db


class TestWriteTrace:
    def test_failed_first_write_leaves_no_row(self, db):
        with pytest.raises(sqlite3.Error):
            write_trace(db, "r1", recorder(bad_comm=True))
        assert not db.conn.in_transaction
        assert all(rows == [] for rows in run_rows(db, "r1").values())

    def test_failed_rewrite_keeps_earlier_recording(self, db):
        write_trace(db, "r1", recorder())
        write_counters(db, "r1", counters_doc(3))
        before = run_rows(db, "r1")
        with pytest.raises(sqlite3.Error):
            write_trace(db, "r1", recorder(bad_comm=True))
        assert not db.conn.in_transaction
        assert run_rows(db, "r1") == before
        assert read_trace(db, "r1").span_name == recorder().span_name


class TestWriteCounters:
    def test_failed_rewrite_keeps_earlier_rows(self, db):
        assert write_counters(db, "r1", counters_doc(3)) == 1
        before = run_rows(db, "r1")
        with pytest.raises(sqlite3.Error):
            write_counters(db, "r1", counters_doc([3]))
        assert not db.conn.in_transaction
        assert run_rows(db, "r1") == before
        assert len(before["counters"]) == 1


class TestStoreProfile:
    def test_failure_in_last_step_leaves_no_row(self, db):
        report = profile_spec(ExperimentSpec(
            app="lulesh",
            config=presets.mpc_omp(tiny_test_machine(2), n_threads=2),
            params={"s": 8, "iterations": 2, "tpl": 8},
        ))
        assert report.cp is not None
        # The spec/result rows are written last; their document is not JSON.
        report.result.extra["unserializable"] = object()
        with pytest.raises(TypeError):
            store_profile(db, report)
        assert not db.conn.in_transaction
        counts = {
            table: db.conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in TABLES
            if table != "meta"
        }
        assert counts == dict.fromkeys(counts, 0)
