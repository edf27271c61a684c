"""run_campaign: fan-out determinism, cache reuse, retry/timeout robustness."""

from __future__ import annotations

import multiprocessing
import os
import signal
from dataclasses import replace

import pytest

from repro.campaign.bus import CampaignBus
from repro.campaign.engine import run_campaign
from repro.campaign.runner import run_experiment
from repro.campaign.spec import ExperimentSpec
from repro.db import STORE_FILENAME, CampaignDB, DbResultStore
from repro.memory.machine import tiny_test_machine
from repro.runtime import presets
from repro.util.serde import canonical_json

CFG = presets.mpc_omp(tiny_test_machine(4), n_threads=4)


def spec(**kw) -> ExperimentSpec:
    kw.setdefault("app", "lulesh")
    kw.setdefault("config", CFG)
    kw.setdefault("params", {"s": 6, "iterations": 1, "tpl": 2})
    return ExperimentSpec(**kw)


def fingerprints(result) -> list[str]:
    return [canonical_json(r.to_dict()) for r in result.results]


SPECS = [spec().with_params(tpl=t) for t in (2, 3, 4, 6, 8, 12, 16, 24)]

#: Persistent-TDG DES specs (opt p): their results must not depend on the
#: campaign either.
CFG_P = presets.mpc_omp(tiny_test_machine(4), n_threads=4, opts="abcp")
PERSISTENT_SPECS = [
    spec(config=CFG_P, params={"s": 6, "iterations": 2, "tpl": t})
    for t in (2, 3, 4, 6)
]


class TestSerial:
    def test_runs_in_order(self):
        out = run_campaign(SPECS[:3])
        assert out.ok
        assert [r.spec for r in out.records] == SPECS[:3]
        assert out.n_executed == 3

    def test_cache_round_trip(self, tmp_path):
        cache = tmp_path
        first = run_campaign(SPECS[:3], store=cache)
        second = run_campaign(SPECS[:3], store=cache)
        assert second.n_cached == 3 and second.n_executed == 0
        assert fingerprints(first) == fingerprints(second)

    def test_failure_does_not_abort_campaign(self):
        # pr*pc != ranks makes the runner raise for this spec only.
        bad = spec(app="cholesky", params={"n": 64, "b": 32, "pr": 2, "pc": 2})
        out = run_campaign([SPECS[0], bad, SPECS[1]], retries=0)
        assert out.n_failed == 1
        assert not out.records[1].ok
        assert "ranks" in out.records[1].error
        assert out.records[0].ok and out.records[2].ok

    def test_duplicate_specs_run_once(self):
        out = run_campaign([SPECS[0], SPECS[0], SPECS[1]])
        assert out.ok
        assert out.n_executed == 2  # the duplicate is filled, not re-run
        assert out.records[1].cached
        fp = fingerprints(out)
        assert fp[0] == fp[1]


class TestParallelDeterminism:
    def test_eight_workers_bitwise_identical_to_serial(self, tmp_path):
        specs = SPECS + PERSISTENT_SPECS
        serial = run_campaign(specs)
        assert serial.ok
        parallel = run_campaign(specs, jobs=8, store=tmp_path)
        assert parallel.ok
        assert fingerprints(parallel) == fingerprints(serial)

    def test_persistent_result_independent_of_campaign_order(self, tmp_path):
        """Two persistent specs sharing one structure (seeds 0 and 1), run
        into two fresh stores in opposite orders: seed 1's result is the
        same document in both."""
        params = {"s": 8, "iterations": 3, "tpl": 8}
        s0, s1 = (spec(config=CFG_P, params=params, seed=k) for k in (0, 1))
        forward = run_campaign([s0, s1], store=tmp_path / "forward")
        backward = run_campaign([s1, s0], store=tmp_path / "backward")
        assert forward.ok and backward.ok
        assert canonical_json(forward.results[1].to_dict()) == canonical_json(
            backward.results[0].to_dict()
        )

    def test_second_parallel_pass_all_cache_hits(self, tmp_path):
        cache = tmp_path
        first = run_campaign(SPECS[:4], jobs=4, store=cache)
        assert first.ok and first.n_executed == 4
        second = run_campaign(SPECS[:4], jobs=4, store=cache)
        assert second.n_executed == 0
        assert second.n_cached == 4
        assert fingerprints(first) == fingerprints(second)

    def test_mutating_one_spec_reruns_exactly_that_run(self, tmp_path):
        cache = tmp_path
        run_campaign(SPECS[:4], jobs=2, store=cache)
        mutated = list(SPECS[:4])
        mutated[2] = mutated[2].with_params(tpl=99)
        out = run_campaign(mutated, jobs=2, store=cache)
        assert out.n_executed == 1
        assert out.n_cached == 3
        assert not out.records[2].cached

    def test_no_resume_reexecutes_everything(self, tmp_path):
        cache = tmp_path
        run_campaign(SPECS[:3], jobs=2, store=cache)
        out = run_campaign(SPECS[:3], jobs=2, store=cache, reuse_cache=False)
        assert out.n_executed == 3 and out.n_cached == 0


class TestRobustness:
    def test_worker_death_retries_once_then_fails(self, tmp_path):
        # An invalid spec param set makes every worker die; with the
        # default retry-once the record shows two attempts.
        bad = spec(params={"s": 6, "iterations": 1, "tpl": 2, "bogus": 1})
        out = run_campaign([bad], jobs=2, store=tmp_path)
        assert out.n_failed == 1
        assert out.records[0].attempts == 2
        assert "bogus" in out.records[0].error  # worker traceback captured

    def test_timeout_kills_and_fails(self, tmp_path):
        # A run far too big to finish within the deadline.
        big = spec(app="cholesky", params={"n": 4096, "b": 16})
        out = run_campaign(
            [big], jobs=1, store=tmp_path, timeout=0.2, retries=0
        )
        assert out.n_failed == 1
        assert "timed out" in out.records[0].error
        assert out.records[0].attempts == 1

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched put reaches the worker only through fork",
    )
    def test_worker_killed_mid_write_retries_cleanly(self, tmp_path, monkeypatch):
        # The first attempt's worker dies inside an open write
        # transaction; the retry must find nothing of it in the store.
        reference = run_campaign(SPECS[:1], store=tmp_path / "serial")
        marker = tmp_path / "killed"
        put = DbResultStore.put

        def put_then_die(store, spec, result):
            if not marker.exists():
                marker.touch()
                conn = store.db.conn
                conn.execute("BEGIN IMMEDIATE")
                conn.execute("INSERT INTO errors (key, message) VALUES (?, ?)",
                             ("0" * 64, "torn write"))
                os.kill(os.getpid(), signal.SIGKILL)
            return put(store, spec, result)

        monkeypatch.setattr(DbResultStore, "put", put_then_die)
        out = run_campaign(SPECS[:1], jobs=2, store=tmp_path / "killed-run")
        assert out.ok and out.records[0].attempts == 2
        with CampaignDB(tmp_path / "killed-run" / STORE_FILENAME) as db:
            counts = db.table_counts()
        assert counts["runs"] == 1 and counts["errors"] == 0
        assert fingerprints(out) == fingerprints(reference)

    def test_retries_validated(self):
        with pytest.raises(ValueError, match="retries"):
            run_campaign([], retries=-1)


class TestBusEvents:
    def test_serial_events(self, tmp_path):
        events: list[tuple] = []
        bus = CampaignBus()
        bus.subscribe("run_start", lambda i, s, a: events.append(("start", i)))
        bus.subscribe("run_done", lambda i, s, r, w: events.append(("done", i)))
        bus.subscribe("run_cached", lambda i, s, r: events.append(("cached", i)))
        bus.subscribe("campaign_done", lambda r: events.append(("fin",)))
        cache = tmp_path
        run_campaign(SPECS[:2], store=cache, bus=bus)
        assert events == [("start", 0), ("done", 0), ("start", 1), ("done", 1),
                          ("fin",)]
        events.clear()
        run_campaign(SPECS[:2], store=cache, bus=bus)
        assert events == [("cached", 0), ("cached", 1), ("fin",)]

    def test_failed_event(self):
        failed: list[int] = []
        bus = CampaignBus()
        bus.subscribe("run_failed", lambda i, s, e: failed.append(i))
        bad = spec(app="cholesky", params={"n": 64, "b": 32, "pr": 2, "pc": 2})
        run_campaign([bad], retries=0, bus=bus)
        assert failed == [0]

    def test_progress_lines_leave_the_store_unchanged(self, tmp_path, capsys):
        """Progress renders from a private CampaignMetrics: the store gets
        no metrics rows it would not get without progress."""
        dumps = []
        for progress in (False, True):
            store = tmp_path / f"progress-{progress}" / STORE_FILENAME
            out = run_campaign(SPECS[:2], store=store, progress=progress)
            assert out.ok
            with CampaignDB(store) as db:
                dumps.append(db.dump())
        assert dumps[0] == dumps[1]
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("[1/2][") and lines[1].startswith("[2/2][")
        assert lines[-1].startswith(out.summary())


class TestSpecKeyInResult:
    def test_result_carries_spec_key(self):
        s = SPECS[0]
        assert run_experiment(s).extra["spec_key"] == s.key

    def test_campaign_result_to_dict_is_deterministic(self, tmp_path):
        cache = tmp_path
        a = run_campaign(SPECS[:3], jobs=2, store=cache)
        b = run_campaign(SPECS[:3], jobs=2, store=cache)
        da, db = a.to_dict(), b.to_dict()
        # cached-ness (and hence attempt counts) differ between passes;
        # everything else is bitwise equal
        for run in da["runs"] + db["runs"]:
            run["cached"] = None
            run["attempts"] = None
        da["n_cached"] = db["n_cached"] = None
        da["n_executed"] = db["n_executed"] = None
        assert canonical_json(da) == canonical_json(db)


class TestSpecKeyComputedOnce:
    """A campaign hashes each spec once, however many layers read its key."""

    def count_keys(self, monkeypatch) -> list[int]:
        import repro.campaign.spec as spec_module

        calls: list[int] = []
        real = spec_module.content_key

        def counting(doc):
            calls.append(1)
            return real(doc)

        monkeypatch.setattr(spec_module, "content_key", counting)
        return calls

    def test_warm_pass_hashes_each_spec_once(self, tmp_path, monkeypatch):
        specs = [
            spec(config=cfg, params={"s": 6, "iterations": 2, "tpl": t},
                 fidelity=f)
            for cfg in (CFG, CFG_P)
            for t in (2, 4, 8)
            for f in ("replay", "analytic")
        ]
        store = tmp_path / "sweep.sqlite"
        assert run_campaign(specs, store=store).ok
        # New store keys whose compiled graphs are already stored.
        warm = [
            replace(s, config=replace(s.config, n_threads=2)) for s in specs
        ]
        calls = self.count_keys(monkeypatch)
        out = run_campaign(warm, store=store)
        assert out.ok and out.n_executed == 12
        assert len(calls) == 12
        # Resuming the same spec objects hashes nothing again.
        calls.clear()
        assert run_campaign(warm, store=store).n_cached == 12
        assert calls == []
