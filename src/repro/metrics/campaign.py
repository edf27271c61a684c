"""Campaign telemetry: a :class:`CampaignMetrics` observer on the bus.

Attach to a :class:`~repro.campaign.bus.CampaignBus` (the engine does it
for you via ``run_campaign(live=True)`` / ``snapshot_every=``) and it maintains
a :class:`~repro.metrics.registry.MetricsRegistry` of campaign health:

====================================================  =================
``repro_campaign_specs``                              submitted specs
``repro_campaign_runs_total{event=...}``              started / done /
                                                      cached / retried /
                                                      failed events
``repro_campaign_in_flight``                          attempts running
``repro_campaign_cache_hit_ratio``                    cached / settled
``repro_campaign_makespan_seconds`` (histogram)       simulated seconds
``repro_campaign_run_wall_seconds`` (hist, volatile)  wall per run
``repro_campaign_elapsed_seconds`` (volatile)         campaign wall
``repro_campaign_throughput_runs_per_second`` (vol.)  rolling settle rate
``repro_campaign_eta_seconds`` (volatile)             remaining / rate
====================================================  =================

Wall-clock series are ``volatile`` — the live renderer and other
in-process readers see them, but snapshots persisted into the store and
``repro metrics export`` never do, keeping stored telemetry
deterministic.  Snapshots are *event-paced* (every ``snapshot_every``
settled runs, plus a final one at ``campaign_done``), never timer-paced,
for the same reason.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.metrics.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.store import CampaignDB, DbResultStore

#: Fixed simulated-makespan buckets (seconds, log-ish ladder).
MAKESPAN_BUCKETS = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)

#: Fixed wall-clock buckets for one run (seconds).
WALL_BUCKETS = (0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0)

#: Outcome label values of ``repro_campaign_runs_total``.
EVENTS = ("started", "done", "cached", "retried", "failed")

#: Settle timestamps the rolling throughput (and so the ETA) spans.
SETTLE_WINDOW = 32


class CampaignMetrics:
    """Bus observer turning campaign events into registry metrics.

    Parameters
    ----------
    n_total:
        Specs submitted (the denominator of progress/ETA).
    snapshot_every:
        Persist a snapshot every N settled runs (0: final snapshot only);
        snapshots persist only once :meth:`bind_store` names a store.
    clock:
        Injectable monotonic clock (tests freeze it).
    """

    def __init__(
        self,
        n_total: int,
        *,
        snapshot_every: int = 0,
        clock=time.monotonic,
    ) -> None:
        self.n_total = n_total
        self.registry = MetricsRegistry()
        self.snapshot_every = snapshot_every
        self._clock = clock
        self._t0 = clock()
        self.db: "Optional[CampaignDB]" = None
        self.campaign = ""

        r = self.registry
        self._specs = r.gauge(
            "repro_campaign_specs", "Experiment specs submitted to the campaign"
        )
        self._specs.set(float(n_total))
        self._events = r.counter(
            "repro_campaign_runs_total",
            "Campaign run events by outcome",
            ("event",),
        )
        for event in EVENTS:  # pre-create: snapshots always carry all five
            self._events.labels(event)
        self._in_flight = r.gauge(
            "repro_campaign_in_flight", "Run attempts currently executing"
        )
        self._hit_ratio = r.gauge(
            "repro_campaign_cache_hit_ratio",
            "Cached runs over settled runs",
        )
        self._makespan = r.histogram(
            "repro_campaign_makespan_seconds",
            "Simulated makespan of executed runs",
            MAKESPAN_BUCKETS,
        )
        self._wall = r.histogram(
            "repro_campaign_run_wall_seconds",
            "Wall-clock seconds per executed run",
            WALL_BUCKETS,
            volatile=True,
        )
        self._elapsed = r.gauge(
            "repro_campaign_elapsed_seconds",
            "Campaign wall-clock seconds so far",
            volatile=True,
        )
        self._throughput = r.gauge(
            "repro_campaign_throughput_runs_per_second",
            "Rolling settle rate over the last settles",
            volatile=True,
        )
        self._eta = r.gauge(
            "repro_campaign_eta_seconds",
            "Remaining runs over the rolling settle rate",
            volatile=True,
        )

        # -- plain-attribute state the live renderer reads ---------------
        self.started = 0
        self.done = 0
        self.cached = 0
        self.retried = 0
        self.failed = 0
        self.in_flight = 0
        #: Labels of failed specs, in failure order (the live recap).
        self.failures: list[str] = []
        self.finished = False
        self._settle_stamps: deque = deque(maxlen=SETTLE_WINDOW)

    # -- store binding ---------------------------------------------------
    def bind_store(self, store: "DbResultStore") -> None:
        """Persist snapshots into ``store``'s file under its campaign id."""
        self.db = store.db
        self.campaign = store.campaign

    # -- derived views ----------------------------------------------------
    @property
    def settled(self) -> int:
        return self.done + self.cached + self.failed

    def elapsed(self) -> float:
        return self._clock() - self._t0

    def throughput(self) -> float:
        """Settled runs per wall second over the rolling window."""
        stamps = self._settle_stamps
        if len(stamps) >= 2 and stamps[-1] > stamps[0]:
            return (len(stamps) - 1) / (stamps[-1] - stamps[0])
        elapsed = self.elapsed()
        return self.settled / elapsed if elapsed > 0 else 0.0

    def eta(self) -> Optional[float]:
        """Estimated wall seconds to finish, None before any signal."""
        rate = self.throughput()
        if rate <= 0:
            return None
        return (self.n_total - self.settled) / rate

    def hit_ratio(self) -> float:
        return self.cached / self.settled if self.settled else 0.0

    # -- internals --------------------------------------------------------
    def _settle(self) -> None:
        now = self._clock()
        self._settle_stamps.append(now)
        self._refresh_gauges()
        if (
            self.snapshot_every > 0
            and self.db is not None
            and self.settled % self.snapshot_every == 0
        ):
            self.persist_snapshot()

    def _refresh_gauges(self) -> None:
        self._in_flight.set(float(self.in_flight))
        self._hit_ratio.set(self.hit_ratio())
        self._elapsed.set(self.elapsed())
        self._throughput.set(self.throughput())
        eta = self.eta()
        if eta is not None:
            self._eta.set(eta)

    # -- bus hooks --------------------------------------------------------
    def on_run_start(self, index, spec, attempt) -> None:
        self.started += 1
        self.in_flight += 1
        self._events.labels("started").inc()
        self._refresh_gauges()

    def on_run_done(self, index, spec, result, wall) -> None:
        self.done += 1
        self.in_flight -= 1
        self._events.labels("done").inc()
        self._makespan.observe(result.makespan)
        self._wall.observe(wall)
        self._settle()

    def on_run_cached(self, index, spec, result) -> None:
        self.cached += 1
        self._events.labels("cached").inc()
        self._makespan.observe(result.makespan)
        self._settle()

    def on_run_retry(self, index, spec, attempt, reason) -> None:
        self.retried += 1
        self.in_flight -= 1
        self._events.labels("retried").inc()
        self._refresh_gauges()

    def on_run_failed(self, index, spec, error) -> None:
        self.failed += 1
        self.in_flight -= 1
        self._events.labels("failed").inc()
        self.failures.append(spec.label)
        self._settle()

    def on_campaign_done(self, result) -> None:
        self.finished = True
        self._refresh_gauges()
        if self.db is not None:
            self.persist_snapshot()

    # -- persistence -------------------------------------------------------
    def persist_snapshot(self) -> int:
        """Write the deterministic snapshot rows; returns the snapshot id.

        The id is the settled-run count at the cut — event-paced, so a
        serial campaign persists an identical snapshot sequence on every
        run (parallel campaigns: intermediate snapshots depend on worker
        interleaving, the final one does not).
        """
        from repro.db.store import write_metrics

        assert self.db is not None
        snapshot_id = self.settled
        write_metrics(
            self.db,
            self.campaign,
            snapshot_id,
            self.registry.snapshot(include_volatile=False),
        )
        return snapshot_id
