"""The campaign engine: fan a list of specs out over worker processes.

A *campaign* is an ordered list of :class:`~repro.campaign.spec.ExperimentSpec`
— the paper's figure sweeps, tables and ablations are all campaigns of
dozens-to-hundreds of independent DES runs.  :func:`run_campaign`
executes one with:

- **store-backed skipping** — runs whose key is already in the
  :class:`~repro.db.DbResultStore` are not re-executed;
- **parallel fan-out** — ``jobs`` worker processes, each executing one
  run then exiting (a crashing run can never poison a sibling);
- **resumability** — results land in the store atomically (one SQL
  transaction each) as they complete, so an interrupted (Ctrl-C'd,
  OOM-killed) campaign re-launched with the same specs completes only
  the missing runs;
- **robustness** — a per-run ``timeout`` and retry-on-worker-death
  (``retries`` more attempts, default one);
- **live progress** — events on a :class:`~repro.campaign.bus.CampaignBus`.

Determinism: each DES run is fully determined by its spec, so a parallel
campaign produces bitwise-identical serialized results to a serial one —
ordering of ``records`` always follows the submitted spec order.
"""

from __future__ import annotations

import multiprocessing
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.campaign.bus import CampaignBus
from repro.campaign.runner import run_experiment
from repro.campaign.spec import ExperimentSpec
from repro.core.compiled import CompiledGraphCache
from repro.db.store import DbResultStore, open_store
from repro.runtime.result import RunResult

#: Anything the engine can persist results into: the SQLite store, or a
#: locator path that :func:`open_store` resolves.
Store = Union[DbResultStore, str, Path]

_POLL_S = 0.02


@dataclass
class RunRecord:
    """Outcome of one spec within a campaign."""

    spec: ExperimentSpec
    result: Optional[RunResult] = None
    #: True when the result came from the cache (no DES run happened).
    cached: bool = False
    #: Execution attempts made this campaign (0 for a cache hit).
    attempts: int = 0
    #: Wall-clock seconds of the successful attempt (0 for a cache hit).
    wall: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class CampaignResult:
    """All records of one campaign, in submitted-spec order."""

    records: list[RunRecord] = field(default_factory=list)
    #: Total campaign wall-clock seconds.
    wall: float = 0.0

    # ------------------------------------------------------------------
    @property
    def results(self) -> list[Optional[RunResult]]:
        return [r.result for r in self.records]

    @property
    def n_runs(self) -> int:
        return len(self.records)

    @property
    def n_cached(self) -> int:
        return sum(1 for r in self.records if r.cached)

    @property
    def n_executed(self) -> int:
        return sum(1 for r in self.records if r.ok and not r.cached)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    @property
    def ok(self) -> bool:
        return self.n_failed == 0

    @property
    def failures(self) -> list[RunRecord]:
        return [r for r in self.records if not r.ok]

    # ------------------------------------------------------------------
    def summary(self) -> str:
        return (
            f"campaign: {self.n_runs} runs — {self.n_executed} executed, "
            f"{self.n_cached} cached, {self.n_failed} failed "
            f"in {self.wall:.2f}s"
        )

    def to_dict(self) -> dict:
        """Deterministic JSON-ready summary (no wall-clock noise)."""
        return {
            "n_runs": self.n_runs,
            "n_executed": self.n_executed,
            "n_cached": self.n_cached,
            "n_failed": self.n_failed,
            "runs": [
                {
                    "key": r.spec.key,
                    "label": r.spec.label,
                    "cached": r.cached,
                    "attempts": r.attempts,
                    "ok": r.ok,
                    "makespan": None if r.result is None else r.result.makespan,
                    "error": r.error,
                }
                for r in self.records
            ],
        }


# ======================================================================
# worker side
# ======================================================================
def _worker_entry(spec_json: str, locator: str, campaign: str = "") -> None:
    """Executed in a worker process: run one spec, write it to the store.

    The store write is the only channel back to the parent — one SQL
    transaction, and exactly what a resumed campaign would read — so
    worker death between run and write just means the run retries.
    ``locator`` names the parent's store (:func:`repro.db.open_store`
    resolves it).
    """
    spec = ExperimentSpec.from_json(spec_json)
    store = open_store(locator, campaign=campaign)
    compiled_cache = CompiledGraphCache.for_campaign(store.root)
    try:
        result = run_experiment(spec, compiled_cache=compiled_cache)
        store.put(spec, result)
    except BaseException:
        try:
            store.put_error(spec, traceback.format_exc())
        finally:
            raise SystemExit(1)


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# ======================================================================
# parent side
# ======================================================================
@dataclass
class _Slot:
    proc: "multiprocessing.process.BaseProcess"
    index: int
    spec: ExperimentSpec
    attempt: int
    t_start: float
    deadline: Optional[float]


def run_campaign(
    specs: Sequence[ExperimentSpec],
    *,
    jobs: int = 1,
    store: Optional[Store] = None,
    campaign: str = "",
    reuse_cache: bool = True,
    timeout: Optional[float] = None,
    retries: int = 1,
    bus: Optional[CampaignBus] = None,
    progress: bool = False,
    live: bool = False,
    snapshot_every: int = 0,
) -> CampaignResult:
    """Execute a campaign of experiment specs.

    Parameters
    ----------
    specs:
        The runs.  Duplicated specs share one cache entry (the second is
        a hit).
    jobs:
        Worker processes.  ``jobs <= 1`` with no ``timeout`` runs
        serially in-process (no subprocess overhead); otherwise each run
        executes in its own worker process.
    store:
        A :class:`~repro.db.DbResultStore`, a locator path (``.sqlite``
        file → that store, directory ``D`` → ``D/campaign.sqlite``), or
        None — parallel and timeout modes need a store as the result
        channel, so None then means a temporary store (discarded
        afterwards).  A store opened here from a locator is closed
        before returning; a store object passed in stays open.
    campaign:
        Campaign id tagged onto every run row the store writes (reports
        compare ids).
    reuse_cache:
        When False, existing entries are ignored (every run re-executes
        and overwrites; ``--no-resume`` in the CLI).
    timeout:
        Per-run wall-clock limit in seconds (worker mode only).
    retries:
        Extra attempts after a worker death or timeout (default 1: the
        retry-once robustness contract).
    progress:
        Print one ``[k/n][elapsed eta]`` line per run, cached, retry or
        failed event to stderr (a :class:`~repro.metrics.live.LiveRenderer`
        off ``live``), then a failure recap and the summary.
    live:
        Render progress as the renderer's in-place status line (progress
        bar, ETA, busy workers, hit rate) instead.  Both modes read a
        :class:`~repro.metrics.campaign.CampaignMetrics` observer; with
        ``live`` or ``snapshot_every`` and a store, its deterministic
        snapshots land in the store's ``metrics`` table, otherwise
        progress uses a private one that writes nothing to the store.
    snapshot_every:
        Persist an intermediate metrics snapshot every N settled runs
        (0: final snapshot only; only meaningful with a store).
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    bus = bus if bus is not None else CampaignBus()
    # A store this call opens (from a locator, or the temporary worker
    # channel) it also closes, after campaign_done has taken the final
    # metrics snapshot: that last close checkpoints the WAL into the file.
    owned: Optional[DbResultStore] = None
    if isinstance(store, (str, Path)):
        store = owned = open_store(store)
    if campaign and store is not None:
        store.campaign = campaign
    # Observers attach after store resolution (metrics may bind to it)
    # but before the cache pass, so run_cached events are never missed.
    metrics = None
    if live or snapshot_every > 0:
        from repro.metrics.campaign import CampaignMetrics

        metrics = CampaignMetrics(len(specs), snapshot_every=snapshot_every)
        if store is not None:
            metrics.bind_store(store)
        bus.attach(metrics)
    if live or progress:
        from repro.metrics.campaign import CampaignMetrics
        from repro.metrics.live import LiveRenderer

        if metrics is None:
            # Progress lines only: a private tally, never bound to the
            # store, so progress leaves the store's contents unchanged.
            metrics = bus.attach(CampaignMetrics(len(specs)))
        bus.attach(LiveRenderer(metrics, live=live))

    t0 = time.monotonic()
    records = [RunRecord(spec=s) for s in specs]

    tmpdir: Optional[tempfile.TemporaryDirectory] = None
    use_workers = jobs > 1 or timeout is not None
    try:
        if store is None and use_workers:
            tmpdir = tempfile.TemporaryDirectory(prefix="repro-campaign-")
            store = owned = open_store(tmpdir.name)
        if store is not None:
            # Open for writing before the cache pass: a file that is not
            # a store fails before any run executes, and the close of this
            # connection is the one that can checkpoint the workers' WAL.
            store.db.conn

        # ---- cache pass -------------------------------------------------
        pending: list[int] = []
        seen_keys: dict[str, int] = {}
        for i, rec in enumerate(records):
            if store is not None and reuse_cache:
                hit = store.get(rec.spec)
                if hit is not None:
                    rec.result, rec.cached = hit, True
                    _emit(bus.run_cached, i, rec.spec, hit)
                    continue
            first = seen_keys.setdefault(rec.spec.key, i)
            if first != i:
                # Duplicate spec in one campaign: run once, copy after.
                continue
            pending.append(i)

        if use_workers:
            _run_workers(
                records, pending, max(1, jobs), store, timeout, retries, bus
            )
        else:
            _run_serial(records, pending, store, retries, bus)

        # ---- fill duplicates from their first occurrence ----------------
        for i, rec in enumerate(records):
            if rec.result is None and rec.error is None:
                first = records[seen_keys[rec.spec.key]]
                rec.result, rec.cached = first.result, True
                rec.error = first.error
                if rec.result is not None:
                    _emit(bus.run_cached, i, rec.spec, rec.result)

        out = CampaignResult(records=records, wall=time.monotonic() - t0)
        _emit(bus.campaign_done, out)
    finally:
        if owned is not None:
            owned.db.close()
        if tmpdir is not None:
            tmpdir.cleanup()
    return out


def _emit(cbs, *args) -> None:
    if cbs:
        for cb in cbs:
            cb(*args)


def _run_serial(records, pending, store, retries, bus) -> None:
    compiled_cache = (
        CompiledGraphCache.for_campaign(store.root) if store is not None else None
    )
    for i in pending:
        rec = records[i]
        for attempt in range(1, retries + 2):
            rec.attempts = attempt
            _emit(bus.run_start, i, rec.spec, attempt)
            t = time.monotonic()
            try:
                result = run_experiment(rec.spec, compiled_cache=compiled_cache)
            except Exception:
                rec.error = traceback.format_exc()
                if attempt <= retries:
                    _emit(bus.run_retry, i, rec.spec, attempt, "exception")
                    continue
                _emit(bus.run_failed, i, rec.spec, rec.error)
                break
            rec.result, rec.wall, rec.error = result, time.monotonic() - t, None
            if store is not None:
                store.put(rec.spec, result)
            _emit(bus.run_done, i, rec.spec, result, rec.wall)
            break


def _run_workers(records, pending, jobs, store, timeout, retries, bus) -> None:
    assert store is not None
    ctx = _mp_context()
    queue: list[tuple[int, int]] = [(i, 1) for i in pending]  # (index, attempt)
    slots: list[_Slot] = []

    def launch(index: int, attempt: int) -> None:
        rec = records[index]
        rec.attempts = attempt
        proc = ctx.Process(
            target=_worker_entry,
            args=(rec.spec.to_json(), store.locator, store.campaign),
            daemon=True,
        )
        proc.start()
        now = time.monotonic()
        slots.append(
            _Slot(
                proc=proc,
                index=index,
                spec=rec.spec,
                attempt=attempt,
                t_start=now,
                deadline=None if timeout is None else now + timeout,
            )
        )
        _emit(bus.run_start, index, rec.spec, attempt)

    def settle(slot: _Slot, reason: Optional[str]) -> None:
        """Slot finished: success, crash, or timeout (``reason`` set)."""
        rec = records[slot.index]
        if reason is None and slot.proc.exitcode == 0:
            result = store.get(rec.spec)
            if result is not None:
                rec.result = result
                rec.wall = time.monotonic() - slot.t_start
                rec.error = None
                _emit(bus.run_done, slot.index, rec.spec, result, rec.wall)
                return
            reason = "worker exited cleanly but wrote no result"
        if reason is None:
            reason = f"worker died (exit code {slot.proc.exitcode})"
        error = store.get_error(rec.spec)
        rec.error = f"{reason}\n{error}" if error else reason
        if slot.attempt <= retries:
            _emit(bus.run_retry, slot.index, rec.spec, slot.attempt, reason)
            queue.append((slot.index, slot.attempt + 1))
        else:
            _emit(bus.run_failed, slot.index, rec.spec, rec.error)

    try:
        while queue or slots:
            while queue and len(slots) < jobs:
                index, attempt = queue.pop(0)
                launch(index, attempt)
            made_progress = False
            now = time.monotonic()
            for slot in list(slots):
                if not slot.proc.is_alive():
                    slot.proc.join()
                    slots.remove(slot)
                    settle(slot, None)
                    made_progress = True
                elif slot.deadline is not None and now > slot.deadline:
                    slot.proc.terminate()
                    slot.proc.join(5.0)
                    if slot.proc.is_alive():  # pragma: no cover - stuck in D
                        slot.proc.kill()
                        slot.proc.join()
                    slots.remove(slot)
                    settle(slot, f"timed out after {timeout:.1f}s")
                    made_progress = True
            if not made_progress and (queue or slots):
                time.sleep(_POLL_S)
    finally:
        # Interrupt (Ctrl-C) or internal error: reap the workers.  The
        # store keeps everything completed so far — re-launching the same
        # campaign resumes from here.
        for slot in slots:
            if slot.proc.is_alive():
                slot.proc.terminate()
        for slot in slots:
            slot.proc.join(5.0)
