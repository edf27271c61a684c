"""Fork-join (``parallel for``) reference execution model.

The baselines the paper compares against parallelize each mesh-wide loop
with ``#pragma omp parallel for`` and keep MPI outside OpenMP constructs
(§2.1).  The consequences the paper lists are modelled directly:

- every loop streams its whole workset: no temporal reuse across loops, so
  memory time is DRAM-bandwidth bound;
- a barrier closes every loop;
- halo exchanges are posted after the full local computation and waited for
  before the next use — zero overlap;
- the time-step collective is blocking at the iteration boundary.

Like the tasking runtime, this engine runs on the :mod:`repro.sim` kernel:
in cluster mode it runs on the cluster's shared
:class:`~repro.sim.EventQueue` (its ``engine``) and emits
``barrier`` (kind ``"loop"``), ``msg_post`` and ``msg_complete`` events on
its :class:`~repro.sim.InstrumentationBus`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.program import CommKind
from repro.memory.hierarchy import MemoryHierarchy
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - circular at runtime
    from repro.mpi.comm import Communicator
    from repro.mpi.request import Request
from repro.obs.recorder import CommRecord
from repro.runtime.result import RunResult
from repro.runtime.runtime import RuntimeConfig
from repro.sim import EventQueue, InstrumentationBus


@dataclass(frozen=True, slots=True)
class LoopSpec:
    """One ``parallel for`` loop: total flops and bytes streamed.

    ``footprint`` optionally names the (chunk id, bytes) field groups the
    loop touches; with it, streaming goes through the shared-L3 model
    (loops over a cache-resident workset stop paying DRAM).  Without it,
    the loop always streams from DRAM.
    """

    name: str
    flops: float
    bytes_streamed: int
    footprint: tuple = ()

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_streamed < 0:
            raise ValueError("flops and bytes_streamed must be >= 0")


@dataclass(frozen=True, slots=True)
class P2PSpec:
    """One point-to-point operation in a halo-exchange phase."""

    kind: CommKind
    peer: int
    tag: int
    nbytes: int


@dataclass(frozen=True, slots=True)
class HaloExchangeSpec:
    """Post all sends/recvs non-blocking, then MPI_Waitall."""

    ops: tuple[P2PSpec, ...]


@dataclass(frozen=True, slots=True)
class BlockingCollectiveSpec:
    """A blocking MPI_Allreduce (the dt reduction of LULESH)."""

    nbytes: int


Phase = Union[LoopSpec, HaloExchangeSpec, BlockingCollectiveSpec]


@dataclass
class ForIteration:
    phases: list[Phase] = field(default_factory=list)


class ForProgram:
    """A BSP program: iterations of loop/communication phases."""

    def __init__(self, iterations: Sequence[ForIteration], *, name: str = "parallel-for"):
        self.iterations = list(iterations)
        self.name = name

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)


#: Barrier cost factor: the per-loop barrier costs
#: ``BARRIER_FACTOR * c_complete * ceil(log2(threads))`` so it scales with
#: the same cost model as the tasking runtime (see
#: repro.analysis.calibration).
BARRIER_FACTOR = 10.0


class ParallelForRuntime:
    """Simulates one rank of the fork-join reference version.

    Same standalone/cluster duality as
    :class:`~repro.runtime.runtime.TaskRuntime`.
    """

    def __init__(
        self,
        program: ForProgram,
        config: RuntimeConfig,
        *,
        engine: Optional[EventQueue] = None,
        comm: Optional[Communicator] = None,
        rank: int = 0,
        bus: Optional[InstrumentationBus] = None,
    ) -> None:
        self.program = program
        self.config = config
        self.engine = engine if engine is not None else EventQueue()
        self._own_engine = engine is None
        self.bus = bus if bus is not None else InstrumentationBus()
        self.comm = comm
        self.rank = rank
        cbs = self.bus.register
        if cbs:
            for cb in cbs:
                cb(None, rank)
        self.n_threads = config.threads
        self.memory = MemoryHierarchy(config.machine)
        self.work = np.zeros(self.n_threads)
        self.overhead = np.zeros(self.n_threads)
        self.comm_records: list[CommRecord] = []
        self._iter_idx = 0
        self._phase_idx = 0
        self._done = False
        self._started = False
        self._last_activity = 0.0

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError("start() called twice")
        self._started = True
        self.engine.push_now(self._step)

    def run(self) -> RunResult:
        if not self._own_engine:
            raise RuntimeError("run() requires an internally-owned engine; use start()")
        self.start()
        self.engine.run()
        return self.result()

    # ------------------------------------------------------------------
    def _barrier_cost(self) -> float:
        levels = max(1, int(np.ceil(np.log2(max(2, self.n_threads)))))
        return BARRIER_FACTOR * self.config.sched.c_complete * levels

    def _step(self) -> None:
        now = self.engine.now
        self._last_activity = max(self._last_activity, now)
        if self._iter_idx >= self.program.n_iterations:
            self._done = True
            return
        iteration = self.program.iterations[self._iter_idx]
        if self._phase_idx >= len(iteration.phases):
            self._iter_idx += 1
            self._phase_idx = 0
            self.engine.push_now(self._step)
            return
        phase = iteration.phases[self._phase_idx]
        self._phase_idx += 1

        if isinstance(phase, LoopSpec):
            flop_time = phase.flops / (self.n_threads * self.config.machine.flops_per_core)
            if phase.footprint:
                mem_time = self.memory.stream(phase.footprint, self.n_threads)
            else:
                mem_time = self.memory.stream_time(phase.bytes_streamed, self.n_threads)
            loop_time = flop_time + mem_time
            barrier = self._barrier_cost()
            # All threads run the whole loop duration (static schedule,
            # balanced chunks); the barrier is overhead.
            self.work += loop_time
            self.overhead += barrier
            cbs = self.bus.barrier
            if cbs:
                for cb in cbs:
                    cb("loop", now + loop_time)
            self.engine.push(now + loop_time + barrier, self._step)
            return

        if isinstance(phase, BlockingCollectiveSpec):
            req = self._post(CommKind.IALLREDUCE, -1, -1, phase.nbytes, now)
            req.on_complete(lambda r: self.engine.push(
                max(r.complete_time, self.engine.now), self._step
            ))
            return

        if isinstance(phase, HaloExchangeSpec):
            pending = len(phase.ops)
            if pending == 0:
                self.engine.push_now(self._step)
                return
            state = {"left": pending}

            def _one_done(r: Request) -> None:
                state["left"] -= 1
                if state["left"] == 0:
                    self.engine.push(max(r.complete_time, self.engine.now), self._step)

            for op in phase.ops:
                req = self._post(op.kind, op.peer, op.tag, op.nbytes, now)
                req.on_complete(_one_done)
            return

        raise TypeError(f"unknown phase type {type(phase)!r}")

    # ------------------------------------------------------------------
    def _post(self, kind: CommKind, peer: int, tag: int, nbytes: int, now: float) -> Request:
        if self.comm is None:
            raise RuntimeError(
                "program performs MPI but the runtime has no communicator"
            )
        if kind == CommKind.ISEND:
            req = self.comm.isend(self.rank, peer, tag, nbytes)
        elif kind == CommKind.IRECV:
            req = self.comm.irecv(self.rank, peer, tag, nbytes)
        else:
            req = self.comm.iallreduce(self.rank, nbytes)
        rec = CommRecord(
            kind=kind.name.lower(),
            rank=self.rank,
            peer=peer,
            nbytes=nbytes,
            post_time=now,
            complete_time=float("nan"),
            iteration=self._iter_idx,
        )
        self.comm_records.append(rec)
        cbs = self.bus.msg_post
        if cbs:
            for cb in cbs:
                cb(rec)
        req.on_complete(lambda r, rec=rec: self._comm_complete(rec, r))
        return req

    def _comm_complete(self, rec: CommRecord, req: "Request") -> None:
        rec.complete_time = req.complete_time
        cbs = self.bus.msg_complete
        if cbs:
            for cb in cbs:
                cb(rec)

    # ------------------------------------------------------------------
    def result(self) -> RunResult:
        if not self._done:
            raise RuntimeError(
                f"rank {self.rank}: parallel-for walk did not finish — "
                "an MPI operation never matched"
            )
        from repro.core.graph_stats import EdgeStats

        return RunResult(
            name=self.program.name,
            n_threads=self.n_threads,
            makespan=self._last_activity,
            discovery_busy=0.0,
            discovery_span=(0.0, 0.0),
            execution_span=(0.0, self._last_activity),
            work=self.work.copy(),
            overhead=self.overhead.copy(),
            n_tasks=0,
            edges=EdgeStats(),
            mem=self.memory.counters,
            trace=None,
            comm=list(self.comm_records),
            extra={"rank": self.rank, "model": "parallel-for"},
        )
