"""Coupled multi-rank simulation: all ranks share one event queue.

This is the distributed substrate of §4: every simulated MPI process runs
its own OpenMP runtime (task-based or parallel-for) on one shared
:class:`~repro.sim.EventQueue`, and the shared
:class:`~repro.mpi.comm.Communicator` couples them — collective skew, eager
vs rendezvous matching and overlap all emerge from the common timeline.
Each rank's runtime carries its own instrumentation bus; pass a shared
``bus`` to :class:`Cluster` to observe every rank's events interleaved in
simulated-time order instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.program import Program
from repro.mpi.comm import Communicator
from repro.mpi.network import NetworkSpec, bxi_like
from repro.runtime.parallel_for import ForProgram, ParallelForRuntime
from repro.runtime.result import RunResult
from repro.runtime.runtime import RuntimeConfig, TaskRuntime
from repro.sim import EventQueue

AnyProgram = Union[Program, ForProgram]


@dataclass
class ClusterResult:
    """Results of one coupled run."""

    results: list[RunResult]
    #: Global makespan: the slowest rank.
    makespan: float
    n_events: int

    def rank(self, r: int) -> RunResult:
        return self.results[r]

    @property
    def n_ranks(self) -> int:
        return len(self.results)


class Cluster:
    """Runs N ranks against a shared engine + communicator."""

    def __init__(
        self,
        n_ranks: int,
        *,
        network: Optional[NetworkSpec] = None,
        bus=None,
    ) -> None:
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        self.n_ranks = n_ranks
        self.network = network if network is not None else bxi_like()
        self.engine = EventQueue()
        #: Optional shared bus handed to every rank's runtime.
        self.bus = bus
        self.comm = Communicator(self.engine, self.network, n_ranks)

    # ------------------------------------------------------------------
    def run(
        self,
        programs: Sequence[AnyProgram],
        configs: Sequence[RuntimeConfig],
        *,
        max_events: Optional[int] = None,
    ) -> ClusterResult:
        """Run one program per rank to completion.

        ``programs[r]`` may be a task :class:`Program` or a BSP
        :class:`ForProgram`; mixing them across ranks is allowed (but the
        communicator requires matching operation sequences, as real MPI
        does).
        """
        if len(programs) != self.n_ranks or len(configs) != self.n_ranks:
            raise ValueError(
                f"need exactly {self.n_ranks} programs and configs, got "
                f"{len(programs)}/{len(configs)}"
            )
        runtimes = []
        for r, (prog, cfg) in enumerate(zip(programs, configs)):
            if isinstance(prog, ForProgram):
                rt = ParallelForRuntime(
                    prog, cfg, engine=self.engine, comm=self.comm, rank=r,
                    bus=self.bus,
                )
            else:
                rt = TaskRuntime(
                    prog, cfg, engine=self.engine, comm=self.comm, rank=r,
                    bus=self.bus,
                )
            runtimes.append(rt)
        for rt in runtimes:
            rt.start()
        self.engine.run(max_events=max_events)
        self.comm.assert_quiescent()
        results = [rt.result() for rt in runtimes]
        return ClusterResult(
            results=results,
            makespan=max(res.makespan for res in results),
            n_events=self.engine.n_dispatched,
        )
