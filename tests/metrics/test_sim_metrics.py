"""Per-run simulation metrics fed by bus hooks.

The discovery share that ``repro profile`` prints is computed from what
the run's ``DiscoveryCounters`` and ``TraceRecorder`` saw on the bus.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.obs import DiscoveryCounters, TraceRecorder
from repro.obs.profile import discovery_share

# One-task table: the columns the two subscribers read.
TABLE = SimpleNamespace(
    name=["t"], loop_id=[0], iteration=[0], fp_bytes=[0],
    succs=[[]], npred_initial=[0], is_stub=[False],
)
RES = SimpleNamespace(
    n_addrs=0, n_edges=0, n_skipped=0, n_dup_skipped=0, n_dup_created=0,
    n_pruned=0, n_redirects=0,
)


def share(counters: DiscoveryCounters, recorder: TraceRecorder) -> float:
    totals = counters.to_dict()["totals"]
    return discovery_share(totals, max(recorder.span_end, default=0.0))


class TestHookAccounting:
    def test_discovery_share(self):
        counters, recorder = DiscoveryCounters(), TraceRecorder()
        counters.on_register(TABLE, 0)
        recorder.on_register(TABLE, 0)
        assert share(counters, recorder) == 0.0  # no makespan yet
        recorder.on_task_end(TABLE, 0, 0, 0.0, 4.0)
        counters.on_task_create(TABLE, 0, RES, cost=1.0, time=0.0)
        assert share(counters, recorder) == pytest.approx(0.25)
        counters.on_task_replay(TABLE, 0, 1, cost=1.0, time=0.0)
        assert share(counters, recorder) == pytest.approx(0.5)
