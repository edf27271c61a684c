"""Profiling and post-mortem analysis (the paper's §2.3.1/§4.1 methodology).

Every analysis here reads one process's spans from a
:class:`~repro.obs.recorder.TraceRecorder` (``RunResult.trace``).
"""

from repro.profiler.breakdown import Breakdown, breakdown_of
from repro.profiler.comm_metrics import CommMetrics, comm_metrics
from repro.profiler.gantt import GanttChart, gantt_of
from repro.profiler.report import LoopProfile, iteration_spans, loop_profiles

__all__ = [
    "Breakdown",
    "breakdown_of",
    "CommMetrics",
    "comm_metrics",
    "GanttChart",
    "gantt_of",
    "LoopProfile",
    "iteration_spans",
    "loop_profiles",
]
