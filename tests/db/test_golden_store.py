"""Acceptance gate: the golden campaign through the result store.

The 19-spec golden set (``repro.campaign.crosscheck.golden_specs``) runs
into two independent stores, once through a campaign directory and once
through a store file; both must hold bit-identical RunResults, resumed
hits must equal the executed results, and the SQL rows must mirror the
result documents they were derived from.
"""

from __future__ import annotations

import pytest

from repro.campaign.crosscheck import golden_specs
from repro.campaign.engine import run_campaign
from repro.db import CampaignDB, DbResultStore
from repro.util.serde import canonical_json


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    specs = golden_specs()
    dir_out = run_campaign(specs, store=root / "campaign")
    db_out = run_campaign(specs, store=root / "store.sqlite", campaign="g")
    assert dir_out.ok and db_out.ok
    return root, specs, dir_out, db_out


class TestGoldenStoreParity:
    def test_executed_results_bitwise_equal(self, golden):
        _, _, dir_out, db_out = golden
        a = [canonical_json(r.to_dict()) for r in dir_out.results]
        b = [canonical_json(r.to_dict()) for r in db_out.results]
        assert a == b

    def test_cache_hits_bitwise_equal_executed(self, golden):
        root, specs, _, first = golden
        store = DbResultStore(root / "store.sqlite")
        for spec, executed in zip(specs, first.results):
            hit = store.get(spec)
            assert hit is not None
            assert canonical_json(hit.to_dict()) == canonical_json(executed.to_dict())

    def test_resume_is_all_hits_and_adds_no_rows(self, golden):
        root, specs, _, _ = golden
        path = root / "store.sqlite"
        with CampaignDB(path) as db:
            before = db.table_counts()
        out = run_campaign(specs, store=path, campaign="g")
        assert out.n_cached == len(specs) and out.n_executed == 0
        with CampaignDB(path) as db:
            assert db.table_counts() == before

    def test_rows_mirror_result_docs(self, golden):
        root, specs, _, db_out = golden
        with CampaignDB(root / "store.sqlite") as db:
            _, rows = db.query(
                "SELECT key, makespan, discovery_busy, n_tasks FROM runs "
                "ORDER BY key")
        by_key = {rec.spec.key: rec.result for rec in db_out.records}
        assert sorted(by_key) == [r[0] for r in rows]
        for key, makespan, discovery, n_tasks in rows:
            res = by_key[key]
            assert makespan == res.makespan
            assert discovery == res.discovery_busy
            assert n_tasks == res.n_tasks
