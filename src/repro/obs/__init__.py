"""`repro.obs` — the unified observability layer.

Record once, analyze many ways (the Otter/pyotter architecture): one
:class:`TraceRecorder` subscribed to the simulation kernel's
:class:`~repro.sim.InstrumentationBus` captures task spans, barriers and
MPI requests in struct-of-arrays columns, and one
:class:`DiscoveryCounters` beside it counts what discovery did; each
event reaches each of them once, and the exporters and analyses all read
those two artifacts:

- :mod:`repro.obs.counters` — per-iteration discovery counters (dedup
  hits, redirect savings, replay stamps, firstprivate bytes) with a
  versioned JSON snapshot and :func:`diff_counters` for triage;
- :mod:`repro.obs.export` — Chrome-trace/Perfetto JSON (one track per
  rank×worker, flow arrows along TDG edges; open in ui.perfetto.dev)
  and NDJSON event logs, both strict JSON with a versioned schema;
- :mod:`repro.obs.critical_path` — the measured critical path over the
  compiled TDG's CSR arrays, per-task slack, and inflation vs the
  static T∞ bound;
- :mod:`repro.obs.comm_metrics` — the §4.1 communication time, overlapped
  work and overlap ratio of one MPI process;
- :mod:`repro.obs.gantt` — the Fig 8 ASCII Gantt chart, one row per thread,
  glyphs per outer iteration;
- :mod:`repro.obs.loops` — §2.3.1 post-mortem aggregation per loop and per
  outer iteration;
- :mod:`repro.obs.profile` — ``profile_spec(spec)``, the one-call
  driver behind the ``repro profile`` CLI.
"""

from repro.obs.comm_metrics import CommMetrics, comm_metrics
from repro.obs.counters import (
    COUNTERS_SCHEMA_VERSION,
    DiscoveryCounters,
    IterationCounters,
    check_counters_doc,
    diff_counters,
)
from repro.obs.critical_path import (
    CriticalPathResult,
    IterationCriticalPath,
    measured_critical_path,
)
from repro.obs.export import (
    TRACE_SCHEMA_VERSION,
    iter_ndjson,
    to_perfetto,
    validate_perfetto,
    write_ndjson,
    write_perfetto,
)
from repro.obs.gantt import GanttChart, gantt_of
from repro.obs.loops import LoopProfile, iteration_spans, loop_profiles
from repro.obs.profile import ProfileReport, profile_spec, render_diff, text_report
from repro.obs.recorder import TraceRecorder

__all__ = [
    "COUNTERS_SCHEMA_VERSION",
    "CommMetrics",
    "CriticalPathResult",
    "DiscoveryCounters",
    "GanttChart",
    "IterationCounters",
    "IterationCriticalPath",
    "LoopProfile",
    "ProfileReport",
    "TRACE_SCHEMA_VERSION",
    "TraceRecorder",
    "check_counters_doc",
    "comm_metrics",
    "diff_counters",
    "gantt_of",
    "iter_ndjson",
    "iteration_spans",
    "loop_profiles",
    "measured_critical_path",
    "profile_spec",
    "render_diff",
    "text_report",
    "to_perfetto",
    "validate_perfetto",
    "write_ndjson",
    "write_perfetto",
]
