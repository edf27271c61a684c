"""CampaignMetrics: event counting, derived views, snapshot persistence."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.db import CampaignDB, DbResultStore, read_metrics
from repro.db.store import metrics_snapshots
from repro.metrics.campaign import EVENTS, CampaignMetrics


class FakeClock:
    """A controllable monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def spec(label: str = "s0"):
    return SimpleNamespace(label=label)


def result(makespan: float = 0.5):
    return SimpleNamespace(makespan=makespan)


def metrics(
    n_total: int = 4, *, db=None, **kw
) -> tuple[CampaignMetrics, FakeClock]:
    """A metrics observer on a frozen clock, bound to ``db`` as campaign c1."""
    clock = FakeClock()
    m = CampaignMetrics(n_total, clock=clock, **kw)
    if db is not None:
        m.bind_store(DbResultStore(db, campaign="c1"))
    return m, clock


class TestEventCounting:
    def test_done_path(self):
        m, clock = metrics()
        m.on_run_start(0, spec(), 1)
        assert m.in_flight == 1
        clock.tick(2.0)
        m.on_run_done(0, spec(), result(0.25), wall=2.0)
        assert (m.started, m.done, m.in_flight, m.settled) == (1, 1, 0, 1)
        ev = m.registry.get("repro_campaign_runs_total")
        assert ev.labels("started").value == 1
        assert ev.labels("done").value == 1

    def test_all_event_children_precreated(self):
        m, _ = metrics()
        rows = [r for r in m.registry.snapshot()
                if r["name"] == "repro_campaign_runs_total"]
        assert [r["labels"]["event"] for r in rows] == sorted(EVENTS)

    def test_cached_counts_toward_hit_ratio(self):
        m, _ = metrics()
        m.on_run_cached(0, spec(), result())
        m.on_run_start(1, spec(), 1)
        m.on_run_done(1, spec(), result(), wall=1.0)
        assert m.cached == 1 and m.settled == 2
        assert m.hit_ratio() == 0.5
        assert m.registry.get("repro_campaign_cache_hit_ratio").value == 0.5

    def test_retry_returns_attempt_to_queue(self):
        m, _ = metrics()
        m.on_run_start(0, spec(), 1)
        m.on_run_retry(0, spec(), 1, "timeout")
        assert m.in_flight == 0 and m.retried == 1
        assert m.settled == 0  # a retry is not a settled run

    def test_failures_recorded_with_labels(self):
        m, _ = metrics()
        m.on_run_start(0, spec("bad-spec"), 1)
        m.on_run_failed(0, spec("bad-spec"), RuntimeError("boom"))
        assert m.failed == 1 and m.failures == ["bad-spec"]

    def test_makespan_histogram_observes_simulated_seconds(self):
        m, _ = metrics()
        m.on_run_start(0, spec(), 1)
        m.on_run_done(0, spec(), result(0.05), wall=3.0)
        hist = m.registry.get("repro_campaign_makespan_seconds")
        assert hist._default.count == 1
        assert hist._default.sum == pytest.approx(0.05)


class TestDerivedViews:
    def test_throughput_and_eta_from_settle_stamps(self):
        m, clock = metrics(n_total=4)
        for i in range(2):
            m.on_run_start(i, spec(), 1)
            clock.tick(1.0)
            m.on_run_done(i, spec(), result(), wall=1.0)
        assert m.throughput() == pytest.approx(1.0)
        assert m.eta() == pytest.approx(2.0)

    def test_eta_is_none_before_any_signal(self):
        m, _ = metrics()
        assert m.eta() is None  # zero elapsed, zero settled

    def test_elapsed_tracks_clock(self):
        m, clock = metrics()
        clock.tick(7.5)
        assert m.elapsed() == pytest.approx(7.5)


class TestVolatility:
    def test_wall_metrics_never_in_default_snapshot(self):
        m, clock = metrics()
        m.on_run_start(0, spec(), 1)
        clock.tick(1.0)
        m.on_run_done(0, spec(), result(), wall=1.0)
        names = {r["name"] for r in m.registry.snapshot()}
        assert "repro_campaign_run_wall_seconds" not in names
        assert "repro_campaign_elapsed_seconds" not in names
        assert "repro_campaign_eta_seconds" not in names
        assert "repro_campaign_throughput_runs_per_second" not in names
        assert "repro_campaign_makespan_seconds" in names

    def test_deterministic_snapshot_ignores_wall_times(self):
        def run(walls):
            m, clock = metrics(n_total=2)
            for i, wall in enumerate(walls):
                m.on_run_start(i, spec(f"s{i}"), 1)
                clock.tick(wall)
                m.on_run_done(i, spec(f"s{i}"), result(0.25 * (i + 1)), wall)
            return m.registry.snapshot()

        assert run([1.0, 2.0]) == run([30.0, 0.01])


class TestPersistence:
    def _drive(self, m, n):
        for i in range(n):
            m.on_run_start(i, spec(f"s{i}"), 1)
            m.on_run_done(i, spec(f"s{i}"), result(0.1 * (i + 1)), wall=1.0)

    def test_snapshot_every_n_settled_runs(self, tmp_path):
        with CampaignDB(tmp_path / "m.sqlite") as db:
            m, _ = metrics(n_total=4, db=db, snapshot_every=2)
            self._drive(m, 4)
            m.on_campaign_done(SimpleNamespace())
            assert metrics_snapshots(db) == [("c1", 2), ("c1", 4)]

    def test_final_snapshot_without_snapshot_every(self, tmp_path):
        with CampaignDB(tmp_path / "m.sqlite") as db:
            m, _ = metrics(n_total=2, db=db)
            self._drive(m, 2)
            m.on_campaign_done(SimpleNamespace())
            assert metrics_snapshots(db) == [("c1", 2)]

    def test_persisted_rows_round_trip(self, tmp_path):
        with CampaignDB(tmp_path / "m.sqlite") as db:
            m, _ = metrics(n_total=2, db=db)
            self._drive(m, 2)
            m.on_campaign_done(SimpleNamespace())
            rows = read_metrics(db, campaign="c1")
        by_name = {(r["name"], tuple(sorted(r["labels"].items()))): r
                   for r in rows}
        done = by_name[("repro_campaign_runs_total", (("event", "done"),))]
        assert done["value"] == 2.0 and done["kind"] == "counter"
        hist = by_name[("repro_campaign_makespan_seconds", ())]
        assert hist["doc"]["count"] == 2
        assert not any("wall" in r["name"] or "eta" in r["name"]
                       for r in rows)

    def test_identical_campaigns_persist_identical_rows(self, tmp_path):
        dumps = []
        for name in ("a", "b"):
            with CampaignDB(tmp_path / f"{name}.sqlite") as db:
                m, clock = metrics(n_total=3, db=db, snapshot_every=1)
                for i in range(3):
                    m.on_run_start(i, spec(f"s{i}"), 1)
                    # wall clock differs per "machine"; rows must not
                    clock.tick(1.0 if name == "a" else 17.3)
                    m.on_run_done(i, spec(f"s{i}"), result(0.2), wall=5.0)
                m.on_campaign_done(SimpleNamespace())
                dumps.append("\n".join(db.conn.iterdump()))
        assert dumps[0] == dumps[1]

    def test_bind_store_takes_store_campaign(self, tmp_path):
        store = DbResultStore(tmp_path / "m.sqlite", campaign="from-store")
        m, _ = metrics(n_total=1)
        m.bind_store(store)
        assert m.db is store.db and m.campaign == "from-store"
        store.db.close()
