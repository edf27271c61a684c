"""Canned reports and ``Sweep.from_db`` vs the in-memory analyses."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.metg import metg
from repro.analysis.sweep import Sweep, run_spec_sweep
from repro.campaign.engine import run_campaign
from repro.campaign.spec import ExperimentSpec
from repro.db import (
    CampaignDB,
    discovery_regressions,
    list_runs,
    slack_by_loop,
    store_profile,
    top_critical_tasks,
)
from repro.memory.machine import tiny_test_machine
from repro.obs.profile import profile_spec
from repro.runtime import presets

CFG = presets.mpc_omp(tiny_test_machine(4), n_threads=4)
SPEC = ExperimentSpec(app="lulesh", config=CFG,
                      params={"s": 8, "iterations": 2, "tpl": 8})

REL_TOL = 1e-12


@pytest.fixture(scope="module")
def profiled_store(tmp_path_factory):
    """One profiled run stored with critical-path annotations."""
    path = tmp_path_factory.mktemp("db") / "p.sqlite"
    report = profile_spec(SPEC)
    assert report.cp is not None
    with CampaignDB(path) as db:
        store_profile(db, report, campaign="prof")
    return path, report


class TestTopCriticalTasks:
    def test_matches_in_memory_critical_path(self, profiled_store):
        path, report = profiled_store
        with CampaignDB(path) as db:
            cols, rows = top_critical_tasks(db, limit=10_000)
        assert cols == ["name", "spans", "seconds"]
        by_name = dict(report.cp.by_name)
        assert [name for name, _, _ in rows] == [n for n, _ in report.cp.by_name]
        for name, _spans, seconds in rows:
            assert seconds == pytest.approx(by_name[name], rel=REL_TOL)

    def test_limit(self, profiled_store):
        path, _ = profiled_store
        with CampaignDB(path) as db:
            _, rows = top_critical_tasks(db, limit=3)
        assert len(rows) == 3


class TestSlackByLoop:
    def test_covers_every_measured_span(self, profiled_store):
        path, report = profiled_store
        with CampaignDB(path) as db:
            cols, rows = slack_by_loop(db)
            _, totals = db.query(
                "SELECT COUNT(*), SUM(on_path) FROM spans "
                "WHERE slack IS NOT NULL")
        assert "loop" in cols and "on_path_spans" in cols
        i_spans = cols.index("spans")
        i_on = cols.index("on_path_spans")
        assert sum(r[i_spans] for r in rows) == totals[0][0]
        assert sum(r[i_on] for r in rows) == totals[0][1]
        # every on-path span has zero-or-negative-epsilon slack by
        # construction; loops holding one must report min_slack ~ 0
        i_min = cols.index("min_slack")
        for r in rows:
            if r[i_on]:
                assert r[i_min] == pytest.approx(0.0, abs=1e-9)


class TestDiscoveryRegressions:
    def test_joins_matching_specs_across_campaigns(self, tmp_path):
        base = [SPEC.with_params(tpl=t) for t in (4, 8)]
        variant = [dataclasses.replace(s, config=presets.llvm_like(
            tiny_test_machine(4), n_threads=4)) for s in base]
        path = tmp_path / "s.sqlite"
        run_campaign(base, store=path, campaign="a")
        run_campaign(variant, store=path, campaign="b")
        with CampaignDB(path) as db:
            cols, rows = discovery_regressions(db, a="a", b="b")
            _, all_runs = list_runs(db)
        assert len(all_runs) == 4
        assert len(rows) == 2  # one joined row per matching (params, seed)
        i_da, i_db = cols.index("discovery_a"), cols.index("discovery_b")
        i_delta = cols.index("delta_discovery")
        for r in rows:
            assert r[i_delta] == pytest.approx(r[i_db] - r[i_da], rel=1e-9)
        # sorted by regression, worst first
        deltas = [r[i_delta] for r in rows]
        assert deltas == sorted(deltas, reverse=True)

    def test_disjoint_campaigns_join_nothing(self, tmp_path):
        path = tmp_path / "s.sqlite"
        run_campaign([SPEC], store=path, campaign="a")
        run_campaign([SPEC.with_params(tpl=16)], store=path, campaign="b")
        with CampaignDB(path) as db:
            _, rows = discovery_regressions(db, a="a", b="b")
        assert rows == []


class TestAnalysisFromDb:
    def test_sweep_and_metg_parity(self, tmp_path):
        path = tmp_path / "s.sqlite"
        tpls = (2, 4, 8, 16)
        sweep = run_spec_sweep(SPEC, tpls, store=str(path))
        with CampaignDB(path) as db:
            from_db = Sweep.from_db(db)
        assert [p.tpl for p in from_db.points] == [p.tpl for p in sweep.points]
        for a, b in zip(from_db.points, sweep.points):
            assert a.total == b.total and a.discovery == b.discovery
        mem = metg({"mpc-omp": sweep})["mpc-omp"]
        got = metg({"mpc-omp": from_db})["mpc-omp"]
        assert (got.metg, got.tpl, got.best_total) == \
            (mem.metg, mem.tpl, mem.best_total)
