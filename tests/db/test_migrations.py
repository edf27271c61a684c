"""The schema migration chain, exercised against a committed v1 store.

``tests/db/fixtures/golden_v1.sqlite`` was produced by code at schema
version 1 (see ``fixtures/make_golden_v1.py``) and is committed so the
v1 -> v2 upgrade path is tested against a *real* old store forever, not
against a synthetic one rebuilt by current code.  The contract under
test is the schema module's policy note: additive changes migrate in
place losslessly and deterministically; read-only opens never migrate;
a gap in the chain is a loud error, never a misread.
"""

from __future__ import annotations

import shutil
import sqlite3
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign.spec import ExperimentSpec
from repro.db import CampaignDB, DbResultStore
from repro.db.schema import (
    SCHEMA_VERSION,
    SchemaError,
    check_schema,
    stored_version,
)
from repro.obs import TraceRecorder
from repro.runtime import presets
from repro.util.serde import canonical_json

FIXTURE = Path(__file__).parent / "fixtures" / "golden_v1.sqlite"


def _raw_version(path: Path) -> int:
    """Read the stamped version without opening through CampaignDB."""
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        (value,) = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        return int(value)
    finally:
        conn.close()


def _raw_rows(path: Path, sql: str) -> list:
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        return conn.execute(sql).fetchall()
    finally:
        conn.close()


@pytest.fixture
def v1_copy(tmp_path) -> Path:
    copy = tmp_path / "store.sqlite"
    shutil.copyfile(FIXTURE, copy)
    return copy


class TestGoldenFixture:
    def test_fixture_is_still_version_1(self):
        # If this fails someone regenerated the fixture with current
        # code — the whole point of committing it is that they must not.
        assert _raw_version(FIXTURE) == 1

    def test_fixture_has_data_to_lose(self):
        runs = _raw_rows(FIXTURE, "SELECT COUNT(*) FROM runs")[0][0]
        spans = _raw_rows(FIXTURE, "SELECT COUNT(*) FROM spans")[0][0]
        assert runs >= 1 and spans >= 1


class TestUpgrade:
    def test_write_open_migrates_to_current(self, v1_copy):
        with CampaignDB(v1_copy) as db:
            db.conn  # opening for writing runs the migration gate
        assert _raw_version(v1_copy) == SCHEMA_VERSION

    def test_upgrade_preserves_every_row(self, v1_copy):
        tables = ("specs", "runs", "spans", "barriers", "comms", "counters")
        before = {
            t: _raw_rows(v1_copy, f"SELECT * FROM {t} ORDER BY 1, 2")
            for t in tables
        }
        with CampaignDB(v1_copy) as db:
            db.conn
        after = {
            t: _raw_rows(v1_copy, f"SELECT * FROM {t} ORDER BY 1, 2")
            for t in tables
        }
        assert after == before

    def test_upgrade_adds_empty_metrics_table(self, v1_copy):
        with pytest.raises(sqlite3.OperationalError):
            _raw_rows(v1_copy, "SELECT COUNT(*) FROM metrics")
        with CampaignDB(v1_copy) as db:
            db.conn
        assert _raw_rows(v1_copy, "SELECT COUNT(*) FROM metrics") == [(0,)]

    def test_upgrade_is_byte_deterministic(self, tmp_path):
        dumps = []
        for name in ("a.sqlite", "b.sqlite"):
            copy = tmp_path / name
            shutil.copyfile(FIXTURE, copy)
            with CampaignDB(copy) as db:
                db.conn
                dumps.append("\n".join(db.conn.iterdump()))
        assert dumps[0] == dumps[1]

    def test_migrated_store_serves_reads(self, v1_copy):
        with CampaignDB(v1_copy) as db:
            db.conn
        with CampaignDB(v1_copy) as db:
            _, rows = db.query("SELECT key FROM runs ORDER BY key")
        assert len(rows) >= 1

    def test_traced_profile_run_round_trips(self, v1_copy):
        # The fixture's profile run (make_golden_v1.py: the traced base
        # spec) must load as a recorder-backed result whose serialization
        # reproduces the stored document byte for byte.
        base = ExperimentSpec(
            app="lulesh",
            config=replace(presets.mpc_omp(n_threads=4), trace=True),
            params={"s": 8, "iterations": 2, "tpl": 8},
        )
        with CampaignDB(v1_copy) as db:
            db.conn
            (doc,) = db.conn.execute(
                "SELECT doc FROM runs WHERE key = ?", (base.key,)
            ).fetchone()
            (n_spans,) = db.conn.execute(
                "SELECT COUNT(*) FROM spans"
            ).fetchone()
            result = DbResultStore(db).get(base)
        assert isinstance(result.trace, TraceRecorder)
        assert result.trace.n_spans == n_spans > 0
        assert canonical_json(result.to_dict()) == doc


class TestReadOnlyRefusal:
    def test_read_open_refuses_old_store(self, v1_copy):
        db = CampaignDB(v1_copy)
        with pytest.raises(SchemaError, match="open for writing to migrate"):
            db.read
        db.close()

    def test_read_open_leaves_file_untouched(self, v1_copy):
        before = v1_copy.read_bytes()
        db = CampaignDB(v1_copy)
        with pytest.raises(SchemaError):
            db.read
        db.close()
        assert v1_copy.read_bytes() == before
        assert _raw_version(v1_copy) == 1


class TestChainGate:
    def test_gap_in_chain_is_loud(self, v1_copy, monkeypatch):
        # Pretend a v3 exists with no 2 -> 3 step registered: the chain
        # must stop loudly at the gap instead of misreading the store.
        import repro.db.schema as schema

        monkeypatch.setattr(schema, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        conn = sqlite3.connect(v1_copy)
        try:
            with pytest.raises(SchemaError, match="no migration path"):
                check_schema(conn)
        finally:
            conn.close()

    def test_newer_store_is_rejected(self, v1_copy):
        conn = sqlite3.connect(v1_copy)
        try:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
            conn.commit()
            with pytest.raises(SchemaError, match="newer than this code"):
                check_schema(conn)
        finally:
            conn.close()

    def test_foreign_schema_is_rejected(self, tmp_path):
        path = tmp_path / "foreign.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        conn.executemany(
            "INSERT INTO meta VALUES (?, ?)",
            [("schema", "someone.else"), ("schema_version", "1")],
        )
        conn.commit()
        with pytest.raises(SchemaError, match="not a repro.db store"):
            check_schema(conn)
        conn.close()

    def test_stored_version_reads_stamp(self, v1_copy):
        conn = sqlite3.connect(f"file:{v1_copy}?mode=ro", uri=True)
        try:
            assert stored_version(conn) == ("repro.db", 1)
        finally:
            conn.close()
