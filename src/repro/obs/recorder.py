"""The structured trace recorder: one subscriber, every event stream.

:class:`TraceRecorder` attaches to an
:class:`~repro.sim.InstrumentationBus` and records

- **task spans** (one per executed task body) in a struct-of-arrays
  column layout — parallel lists for tid, interned name id, loop id,
  iteration, rank, worker and start/end times, matching the
  :class:`~repro.sim.table.TaskTable` idiom so a million-span trace is a
  handful of lists, not a million objects;
- **barrier events** (taskwait / persistent-iteration / loop);
- **MPI request records** (the shared :class:`CommRecord` objects —
  in-flight requests keep a NaN completion time until the matching
  ``msg_complete`` fires).

It keeps no reference to a task table, so a recording (a kept
``RunResult.trace``) never holds the run's TDG alive.  Discovery
counters are a separate subscriber,
:class:`~repro.obs.counters.DiscoveryCounters`, attached beside it.

Exporters (:mod:`repro.obs.export`) and the measured critical-path
analysis (:mod:`repro.obs.critical_path`) read these columns; the
recorder itself never touches the simulation (observer neutrality).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.util.interner import Interner
from repro.util.serde import desanitize_float, flat_from_dict, flat_to_dict


@dataclass(slots=True)
class CommRecord:
    """One traced MPI request (PMPI-style, §4.1 methodology)."""

    kind: str
    rank: int
    peer: int
    nbytes: int
    post_time: float
    complete_time: float
    iteration: int = -1

    @property
    def duration(self) -> float:
        """The paper's communication time c(r): posting to completion."""
        return self.complete_time - self.post_time

    def to_dict(self) -> dict:
        """JSON-ready dict; inverse of :meth:`from_dict`.

        ``complete_time`` may be NaN (request still in flight when the
        trace was cut); the serde layer maps it to a sentinel so strict
        JSON round-trips it.
        """
        return flat_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CommRecord":
        d = dict(data)
        for f in ("post_time", "complete_time"):
            if f in d:
                d[f] = desanitize_float(d[f])
        return flat_from_dict(cls, d)


class TraceRecorder:
    """Record spans, barriers and comm records from one bus.

    Attach before constructing the runtime(s)::

        bus = InstrumentationBus()
        rec = bus.attach(TraceRecorder())
        result = run_experiment(spec, bus=bus)

    On a shared multi-rank bus, ``register`` events map each runtime's
    task table to its rank; events from tables never registered are
    attributed to rank 0.  ``rank`` keeps only the spans of tables
    registered under that rank — the per-rank trace a traced
    :class:`~repro.runtime.runtime.TaskRuntime` attaches to itself
    (barriers and comm records are not filtered).
    """

    __slots__ = (
        "rank",
        "names",
        "span_tid",
        "span_name",
        "span_loop",
        "span_iteration",
        "span_rank",
        "span_worker",
        "span_start",
        "span_end",
        "barrier_kind",
        "barrier_time",
        "comm_records",
        "_rank_of",
        "ranks",
    )

    def __init__(self, *, rank: Optional[int] = None) -> None:
        #: Span filter: None records every rank's spans.
        self.rank = rank
        #: Interned task-name table (``names.keys[i]`` is name id ``i``).
        self.names = Interner()
        # -- task spans (parallel columns) ------------------------------
        self.span_tid: list[int] = []
        self.span_name: list[int] = []
        self.span_loop: list[int] = []
        self.span_iteration: list[int] = []
        self.span_rank: list[int] = []
        self.span_worker: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        # -- barriers ---------------------------------------------------
        self.barrier_kind: list[str] = []
        self.barrier_time: list[float] = []
        # -- MPI --------------------------------------------------------
        self.comm_records: list[CommRecord] = []
        self._rank_of: dict[int, int] = {}
        #: Registered ranks in registration order.
        self.ranks: list[int] = []

    # -- hooks ---------------------------------------------------------
    def on_register(self, table, rank) -> None:
        if rank not in self.ranks:
            self.ranks.append(rank)
        if table is not None:
            self._rank_of[id(table)] = rank

    def on_task_end(self, table, tid, worker, t_start, t_end) -> None:
        rank = self._rank_of.get(id(table))
        if self.rank is not None and rank != self.rank:
            return
        self.add_span(
            tid, table.name[tid], int(table.loop_id[tid]),
            int(table.iteration[tid]), 0 if rank is None else rank,
            worker, t_start, t_end,
        )

    def add_span(
        self, tid, name, loop, iteration, rank, worker, start, end
    ) -> None:
        """Append one task span (``name`` is interned)."""
        self.span_tid.append(tid)
        self.span_name.append(self.names(name))
        self.span_loop.append(loop)
        self.span_iteration.append(iteration)
        self.span_rank.append(rank)
        self.span_worker.append(worker)
        self.span_start.append(start)
        self.span_end.append(end)

    def on_msg_post(self, record: CommRecord) -> None:
        self.comm_records.append(record)

    def on_barrier(self, kind, time) -> None:
        self.barrier_kind.append(kind)
        self.barrier_time.append(time)

    # -- accessors -----------------------------------------------------
    @property
    def n_spans(self) -> int:
        return len(self.span_tid)

    def name_table(self) -> list[str]:
        """Interned names by id (first-seen order)."""
        return self.names.keys()

    def span_names(self) -> list[str]:
        """Task names, one per span (aligned with the span columns)."""
        table = self.name_table()
        return [table[i] for i in self.span_name]

    def durations(
        self, *, rank: Optional[int] = None
    ) -> dict[tuple[int, int], float]:
        """Measured span durations keyed by ``(tid, iteration)``.

        Persistent replay executes the same tid once per iteration; the
        key keeps those spans distinct.  ``rank`` filters a multi-rank
        recording down to one runtime's tid space (tids collide across
        ranks).  When a (tid, iteration) somehow has several spans the
        last one wins — matching the table's own completion stamps.
        """
        out: dict[tuple[int, int], float] = {}
        tids, iters = self.span_tid, self.span_iteration
        starts, ends, ranks = self.span_start, self.span_end, self.span_rank
        for i in range(len(tids)):
            if rank is not None and ranks[i] != rank:
                continue
            out[tids[i], iters[i]] = ends[i] - starts[i]
        return out
