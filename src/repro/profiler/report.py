"""Post-mortem per-loop aggregation.

The MPC-OMP profiler's post-mortem analyses (§2.3.1) answer "where does the
time go" at the loop level: which of LULESH's 33 loops dominates the work
time, which gets the worst grain, how the iteration timeline divides.  This
module reproduces those views from one process's recorded task spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.obs.recorder import TraceRecorder


@dataclass(frozen=True, slots=True)
class LoopProfile:
    """Aggregated execution profile of one loop (one ``taskloop`` strip)."""

    loop_id: int
    name: str
    n_tasks: int
    work_total: float
    grain_mean: float
    grain_min: float
    grain_max: float
    first_start: float
    last_end: float

    @property
    def span(self) -> float:
        """Wall span from the loop's first task start to its last end."""
        return self.last_end - self.first_start


def loop_profiles(
    trace: TraceRecorder,
    *,
    names: Optional[dict[int, str]] = None,
) -> list[LoopProfile]:
    """Aggregate recorded spans by loop id, ordered by descending work.

    ``names`` optionally maps loop ids to labels; otherwise the name prefix
    (up to ``[``) of each loop's first span is used.
    """
    if trace.n_spans == 0:
        return []
    loop = np.asarray(trace.span_loop, dtype=np.int32)
    start = np.asarray(trace.span_start, dtype=np.float64)
    end = np.asarray(trace.span_end, dtype=np.float64)
    task_names = trace.name_table()
    out = []
    for loop_id in np.unique(loop):
        mask = loop == loop_id
        durations = end[mask] - start[mask]
        if names is not None and int(loop_id) in names:
            label = names[int(loop_id)]
        else:
            first_idx = int(np.nonzero(mask)[0][0])
            label = task_names[trace.span_name[first_idx]].split("[")[0]
        out.append(
            LoopProfile(
                loop_id=int(loop_id),
                name=label,
                n_tasks=int(mask.sum()),
                work_total=float(durations.sum()),
                grain_mean=float(durations.mean()),
                grain_min=float(durations.min()),
                grain_max=float(durations.max()),
                first_start=float(start[mask].min()),
                last_end=float(end[mask].max()),
            )
        )
    out.sort(key=lambda p: p.work_total, reverse=True)
    return out


def iteration_spans(trace: TraceRecorder) -> list[tuple[int, float, float]]:
    """(iteration, first start, last end) per outer iteration."""
    iteration = np.asarray(trace.span_iteration, dtype=np.int32)
    start = np.asarray(trace.span_start, dtype=np.float64)
    end = np.asarray(trace.span_end, dtype=np.float64)
    out = []
    for it in np.unique(iteration):
        mask = iteration == it
        out.append((int(it), float(start[mask].min()), float(end[mask].max())))
    return sorted(out)
