"""``repro.metrics`` — deterministic campaign telemetry.

One :class:`MetricsRegistry` holds counters, gauges and fixed-bucket
histograms (label sets interned to dense child ids via
:class:`repro.util.interner.Interner`); :class:`CampaignMetrics` on the
:class:`~repro.campaign.bus.CampaignBus` feeds it, and three front-ends
read it:

- the in-place live terminal renderer behind ``repro campaign --live``
  (:mod:`repro.metrics.live`);
- Prometheus text-format exposition (:mod:`repro.metrics.prometheus`;
  ``repro metrics export``);
- the single-file static HTML campaign report
  (:mod:`repro.metrics.report`; ``repro report``).

Determinism contract: metrics marked ``volatile`` (wall-clock-derived:
throughput, ETA, wall-time histograms) are never persisted into the
campaign store and never exported from it — everything that lands in the
``metrics`` table or a ``repro metrics export`` snapshot is derived from
event counts and *simulated* seconds only, so identical campaigns
snapshot byte-identically.
"""

from repro.metrics.campaign import CampaignMetrics
from repro.metrics.live import LiveRenderer
from repro.metrics.prometheus import (
    parse_exposition,
    render_prometheus,
    validate_exposition,
)
from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.metrics.report import render_report, write_report

__all__ = [
    "CampaignMetrics",
    "Counter",
    "Gauge",
    "Histogram",
    "LiveRenderer",
    "MetricsRegistry",
    "parse_exposition",
    "render_prometheus",
    "render_report",
    "validate_exposition",
    "write_report",
]
