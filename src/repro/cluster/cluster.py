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

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.core.program import CommKind, Program
from repro.mpi.comm import Communicator
from repro.mpi.network import NetworkSpec, bxi_like
from repro.runtime.parallel_for import (
    BlockingCollectiveSpec,
    ForProgram,
    HaloExchangeSpec,
    ParallelForRuntime,
)
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


@dataclass(frozen=True, slots=True)
class CommOp:
    """One MPI operation a rank's program will post, located statically.

    ``op_index`` is the per-rank post ordinal — the position of the
    operation in the rank's submission stream.  It is the alignment key
    the verifier uses to bind manifest entries to compiled-TDG comm
    nodes: both walk the same stream in the same order.
    """

    rank: int
    #: Per-rank post ordinal (submission order within the rank).
    op_index: int
    kind: CommKind
    #: Peer rank for point-to-point, ``-1`` for collectives.
    peer: int
    tag: int
    nbytes: int
    #: Name of the posting task spec (phase label for ``ForProgram``).
    task: str
    iteration: int

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "op_index": self.op_index,
            "kind": self.kind.name,
            "peer": self.peer,
            "tag": self.tag,
            "nbytes": self.nbytes,
            "task": self.task,
            "iteration": self.iteration,
        }


@dataclass
class CommManifest:
    """Every MPI operation a cluster run will post, derived statically.

    Built by :func:`static_comm_manifest` from the per-rank programs
    alone — no DES run.  This is the communication side of the compiled
    artifact: the verifier's MPI analyses
    (:mod:`repro.verify.mpi`) match these operations across ranks
    exactly as the :class:`~repro.mpi.comm.Communicator` would at run
    time (FIFO per ``(src, dst, tag)``, call-order collective slots).
    """

    n_ranks: int
    ops: list[CommOp] = field(default_factory=list)

    def by_rank(self, rank: int) -> list[CommOp]:
        return [op for op in self.ops if op.rank == rank]

    def __len__(self) -> int:
        return len(self.ops)

    def to_dict(self) -> dict:
        return {
            "schema": "repro.cluster.comm_manifest",
            "version": 1,
            "n_ranks": self.n_ranks,
            "ops": [op.to_dict() for op in self.ops],
        }


def _walk_task_program(
    rank: int, program: Program, *, template_only: bool
) -> list[CommOp]:
    ops: list[CommOp] = []
    iterations = (
        program.iterations[:1] if template_only else program.iterations
    )
    for it in iterations:
        for spec in it.tasks:
            c = spec.comm
            if c is None:
                continue
            ops.append(
                CommOp(
                    rank=rank,
                    op_index=len(ops),
                    kind=c.kind,
                    peer=c.peer,
                    tag=c.tag,
                    nbytes=c.nbytes,
                    task=spec.name,
                    iteration=it.index,
                )
            )
    return ops


def _walk_for_program(
    rank: int, program: ForProgram, *, template_only: bool
) -> list[CommOp]:
    ops: list[CommOp] = []
    iterations = (
        program.iterations[:1] if template_only else program.iterations
    )
    for index, it in enumerate(iterations):
        for phase in it.phases:
            if isinstance(phase, HaloExchangeSpec):
                for p2p in phase.ops:
                    ops.append(
                        CommOp(
                            rank=rank,
                            op_index=len(ops),
                            kind=p2p.kind,
                            peer=p2p.peer,
                            tag=p2p.tag,
                            nbytes=p2p.nbytes,
                            task="halo-exchange",
                            iteration=index,
                        )
                    )
            elif isinstance(phase, BlockingCollectiveSpec):
                ops.append(
                    CommOp(
                        rank=rank,
                        op_index=len(ops),
                        kind=CommKind.IALLREDUCE,
                        peer=-1,
                        tag=-1,
                        nbytes=phase.nbytes,
                        task="allreduce",
                        iteration=index,
                    )
                )
    return ops


def static_comm_manifest(
    programs: Sequence[AnyProgram], *, template_only: bool = False
) -> CommManifest:
    """Enumerate every MPI operation ``programs`` would post — statically.

    Walks the per-rank submission streams in order: task programs by
    iteration and spec order (only specs carrying a
    :class:`~repro.core.program.CommSpec`), BSP programs by phase order.
    With ``template_only`` each rank contributes its first iteration only
    — the view matching a persistent-mode compiled TDG, where replay
    iterations repeat the template's operations verbatim.
    """
    manifest = CommManifest(n_ranks=len(programs))
    for rank, prog in enumerate(programs):
        if isinstance(prog, ForProgram):
            manifest.ops.extend(
                _walk_for_program(rank, prog, template_only=template_only)
            )
        else:
            manifest.ops.extend(
                _walk_task_program(rank, prog, template_only=template_only)
            )
    return manifest


def run_spmd(
    program_factory,
    config_factory,
    n_ranks: int,
    *,
    network: Optional[NetworkSpec] = None,
    max_events: Optional[int] = None,
) -> ClusterResult:
    """SPMD convenience: ``program_factory(rank)`` / ``config_factory(rank)``."""
    cluster = Cluster(n_ranks, network=network)
    programs = [program_factory(r) for r in range(n_ranks)]
    configs = [config_factory(r) for r in range(n_ranks)]
    return cluster.run(programs, configs, max_events=max_events)
