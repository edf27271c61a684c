"""Communication metrics (§4.1 "Methodology on Communications Profiling").

Given the PMPI-style request records and the recorded task spans of one MPI
process:

- the **communication time** of a request r is ``c(r) = completion - post``;
- the **overlapped work** ``ov(r)`` is the work executed on any local core
  during [post, completion];
- ``C = sum c(r)`` and ``W = sum ov(r)`` over send and collective requests;
- the **overlap ratio** is ``W / (n_threads * C)`` — the multi-threaded
  generalization of the usual single-thread overlap measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.recorder import CommRecord, TraceRecorder


class _Coverage:
    """Cumulated-work-before-t function for one worker's disjoint intervals."""

    __slots__ = ("starts", "ends", "cum")

    def __init__(self, intervals: np.ndarray):
        if len(intervals):
            self.starts = intervals[:, 0]
            self.ends = intervals[:, 1]
            self.cum = np.concatenate([[0.0], np.cumsum(self.ends - self.starts)])
        else:
            self.starts = np.empty(0)
            self.ends = np.empty(0)
            self.cum = np.zeros(1)

    def __call__(self, t: float) -> float:
        idx = int(np.searchsorted(self.ends, t, side="right"))
        total = self.cum[idx]
        if idx < len(self.starts) and self.starts[idx] < t:
            total += t - self.starts[idx]
        return float(total)

    def overlap(self, a: float, b: float) -> float:
        """Work seconds inside [a, b]."""
        if b <= a:
            return 0.0
        return self(b) - self(a)


@dataclass(frozen=True, slots=True)
class CommMetrics:
    """Aggregated §4.1 metrics for one MPI process."""

    #: Total communication time C over send + collective requests.
    comm_time: float
    #: Total overlapped work W.
    overlapped_work: float
    #: W / (n_threads * C); in [0, 1].
    overlap_ratio: float
    #: Communication time attributable to collectives (the paper: ~94%).
    collective_time: float
    #: Communication time attributable to P2P sends (~6%).
    p2p_send_time: float
    n_requests: int
    n_threads: int

    def __str__(self) -> str:
        return (
            f"C={self.comm_time:.4f}s W={self.overlapped_work:.4f}s "
            f"ratio={100 * self.overlap_ratio:.1f}% "
            f"(collective {self.collective_time:.4f}s, "
            f"p2p-send {self.p2p_send_time:.4f}s, n={self.n_requests})"
        )


def _work_intervals(trace: TraceRecorder, n_workers: int) -> list[np.ndarray]:
    """Per-worker (start, end) span arrays sorted by start."""
    worker = np.asarray(trace.span_worker, dtype=np.int64)
    spans = np.stack(
        [np.asarray(trace.span_start, dtype=np.float64),
         np.asarray(trace.span_end, dtype=np.float64)],
        axis=1,
    )
    out = []
    for w in range(n_workers):
        iv = spans[worker == w]
        out.append(iv[np.argsort(iv[:, 0])])
    return out


def comm_metrics(
    records: list[CommRecord],
    trace: TraceRecorder,
    n_threads: int,
) -> CommMetrics:
    """Compute §4.1 metrics.  Only sends and collectives are considered."""
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    considered = [
        r for r in records if r.kind in ("isend", "iallreduce")
        and not np.isnan(r.complete_time)
    ]
    coverages = [_Coverage(iv) for iv in _work_intervals(trace, n_threads)]
    comm_time = 0.0
    overlapped = 0.0
    coll = 0.0
    p2p = 0.0
    for r in considered:
        c = r.duration
        comm_time += c
        if r.kind == "iallreduce":
            coll += c
        else:
            p2p += c
        overlapped += sum(
            cov.overlap(r.post_time, r.complete_time) for cov in coverages
        )
    denom = n_threads * comm_time
    ratio = overlapped / denom if denom > 0 else 0.0
    return CommMetrics(
        comm_time=comm_time,
        overlapped_work=overlapped,
        overlap_ratio=min(1.0, ratio),
        collective_time=coll,
        p2p_send_time=p2p,
        n_requests=len(considered),
        n_threads=n_threads,
    )
