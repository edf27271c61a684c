"""CampaignDB / DbResultStore: cache contract, WAL concurrency, resume."""

from __future__ import annotations

import shutil
import sqlite3

import pytest

from repro.campaign.bus import CampaignBus
from repro.campaign.engine import run_campaign
from repro.campaign.runner import run_experiment
from repro.campaign.spec import ExperimentSpec
from repro.db import (
    CampaignDB,
    DbResultStore,
    SCHEMA_VERSION,
    STORE_FILENAME,
    SchemaError,
    open_store,
)
from repro.memory.machine import tiny_test_machine
from repro.runtime import presets
from repro.util.serde import canonical_json

CFG = presets.mpc_omp(tiny_test_machine(4), n_threads=4)


def spec(**kw) -> ExperimentSpec:
    kw.setdefault("app", "lulesh")
    kw.setdefault("config", CFG)
    kw.setdefault("params", {"s": 6, "iterations": 1, "tpl": 2})
    return ExperimentSpec(**kw)


SPECS = [spec().with_params(tpl=t) for t in (2, 3, 4, 6)]


def fingerprints(out) -> list[str]:
    return [canonical_json(r.to_dict()) for r in out.results]


class TestDbResultStore:
    def test_miss_then_hit_bitwise(self, tmp_path):
        store = DbResultStore(tmp_path / "s.sqlite")
        s = spec()
        assert store.get(s) is None
        assert not store.contains(s)
        res = run_experiment(s)
        store.put(s, res)
        assert store.contains(s)
        got = store.get(s)
        assert canonical_json(got.to_dict()) == canonical_json(res.to_dict())

    def test_len_and_keys_sorted(self, tmp_path):
        store = DbResultStore(tmp_path / "s.sqlite")
        assert len(store) == 0
        specs = [spec(seed=i) for i in range(3)]
        for s in specs:
            store.put(s, run_experiment(s))
        assert len(store) == 3
        assert store.keys() == sorted(s.key for s in specs)

    def test_error_lifecycle(self, tmp_path):
        store = DbResultStore(tmp_path / "s.sqlite")
        s = spec()
        assert store.get_error(s) is None
        store.put_error(s, "boom")
        assert store.get_error(s) == "boom"
        # a successful result clears the stale failure record
        store.put(s, run_experiment(s))
        assert store.get_error(s) is None

    def test_put_stamps_campaign_column(self, tmp_path):
        db = CampaignDB(tmp_path / "s.sqlite")
        s = spec()
        DbResultStore(db, campaign="alpha").put(s, run_experiment(s))
        _, rows = db.query("SELECT campaign FROM runs WHERE key = ?", (s.key,))
        assert rows == [("alpha",)]


class TestOpenStore:
    def test_sqlite_suffix_dispatches_to_db(self, tmp_path):
        st = open_store(str(tmp_path / "x.sqlite"))
        assert isinstance(st, DbResultStore)

    def test_directory_resolves_to_campaign_sqlite(self, tmp_path):
        st = open_store(str(tmp_path / "cachedir"))
        assert st.db.path == tmp_path / "cachedir" / STORE_FILENAME
        assert st.root == tmp_path / "cachedir"

    def test_existing_db_file_dispatches_by_content(self, tmp_path):
        path = tmp_path / "oddname"
        with CampaignDB(path) as db:
            db.conn  # create + stamp
        st = open_store(str(path))
        assert isinstance(st, DbResultStore)


class TestSchemaGate:
    def test_foreign_schema_stamp_rejected(self, tmp_path):
        path = tmp_path / "alien.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        conn.execute("INSERT INTO meta VALUES ('schema', 'otter.db')")
        conn.execute("INSERT INTO meta VALUES ('schema_version', '1')")
        conn.commit()
        conn.close()
        with pytest.raises(SchemaError, match="otter"), CampaignDB(path) as db:
            db.conn

    def test_non_sqlite_file_rejected_on_read(self, tmp_path):
        path = tmp_path / "notes.sqlite"
        path.write_text("not a database")
        with pytest.raises(SchemaError), CampaignDB(path) as db:
            db.read

    def test_newer_store_rejected(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with CampaignDB(path) as db:
            db.conn
            db.conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
            db.conn.commit()
        with pytest.raises(SchemaError, match="newer"), CampaignDB(path) as db:
            db.conn

    def test_version_gap_without_migration_rejected(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with CampaignDB(path) as db:
            db.conn
            db.conn.execute(
                "UPDATE meta SET value = '0' WHERE key = 'schema_version'"
            )
            db.conn.commit()
        with pytest.raises(SchemaError, match="migration"), CampaignDB(path) as db:
            db.conn

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_non_sqlite_store_fails_before_any_run(self, tmp_path, jobs):
        path = tmp_path / "notes.sqlite"
        path.write_text("not a database")
        started: list[int] = []
        bus = CampaignBus()
        bus.subscribe("run_start", lambda i, s, a: started.append(i))
        with pytest.raises(SchemaError, match="not a repro.db store"):
            run_campaign(SPECS[:1], store=path, jobs=jobs, bus=bus)
        assert started == []
        assert path.read_text() == "not a database"

    def test_read_connection_requires_existing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="no such store"):
            with CampaignDB(tmp_path / "missing.sqlite") as db:
                db.read

    def test_sql_queries_are_read_only(self, tmp_path):
        path = tmp_path / "s.sqlite"
        DbResultStore(path).put(spec(), run_experiment(spec()))
        with CampaignDB(path) as db:
            with pytest.raises(sqlite3.OperationalError):
                db.query("INSERT INTO meta (key, value) VALUES ('x', 'y')")


class TestCampaignIntegration:
    def test_store_as_campaign_cache(self, tmp_path):
        path = tmp_path / "s.sqlite"
        first = run_campaign(SPECS, store=path, campaign="c1")
        assert first.ok and first.n_executed == len(SPECS)
        second = run_campaign(SPECS, store=path, campaign="c1")
        assert second.n_cached == len(SPECS) and second.n_executed == 0
        assert fingerprints(first) == fingerprints(second)

    def test_two_worker_campaign_into_one_store(self, tmp_path):
        # multi-process writers share the WAL database as IPC channel
        path = tmp_path / "s.sqlite"
        serial = run_campaign(SPECS)
        parallel = run_campaign(SPECS, jobs=2, store=path)
        assert parallel.ok
        assert fingerprints(parallel) == fingerprints(serial)
        with CampaignDB(path) as db:
            _, rows = db.query("SELECT COUNT(*) FROM runs")
        assert rows[0][0] == len(SPECS)

    def test_parallel_campaign_leaves_self_contained_store(self, tmp_path):
        # The engine closes the store it opened, checkpointing the WAL
        # its workers wrote: the store file alone holds every row.
        path = tmp_path / "s.sqlite"
        run_campaign(SPECS, store=path, jobs=2)
        copy = tmp_path / "copy.sqlite"
        shutil.copyfile(path, copy)
        with CampaignDB(copy) as db:
            assert db.table_counts()["runs"] == len(SPECS)

    def test_resume_from_partial_store(self, tmp_path):
        path = tmp_path / "s.sqlite"
        run_campaign(SPECS[:2], store=path)
        out = run_campaign(SPECS, store=path)
        assert out.n_cached == 2 and out.n_executed == len(SPECS) - 2

    def test_resume_adds_zero_rows(self, tmp_path):
        path = tmp_path / "s.sqlite"
        run_campaign(SPECS, store=path, jobs=2)
        with CampaignDB(path) as db:
            before = db.table_counts()
        out = run_campaign(SPECS, store=path, jobs=2)
        assert out.n_cached == len(SPECS)
        with CampaignDB(path) as db:
            assert db.table_counts() == before
