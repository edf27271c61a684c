"""User-program representation: what the producer thread walks.

In the paper the "program" is C code inside an ``omp single`` region that
submits dependent tasks (Listing 1).  Here the same information is captured
declaratively: a :class:`Program` is a sequence of iterations, each a list of
:class:`TaskSpec` in submission order.  The simulated producer thread walks
the specs sequentially, paying discovery costs per spec, exactly as the real
producer thread re-executes the instruction flow each iteration.

Workload builders (:mod:`repro.apps`) construct programs through
:class:`ProgramBuilder`, which mirrors the ``#pragma omp task depend(...)``
and ``taskloop`` constructs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from repro.core.task import (
    Dep,
    DepMode,
    FootprintAccess,
    FootprintChunk,
    split_footprint,
)


class CommKind(enum.IntEnum):
    """Kinds of MPI operations a task may perform (all non-blocking)."""

    ISEND = 0
    IRECV = 1
    IALLREDUCE = 2


@dataclass(frozen=True, slots=True)
class CommSpec:
    """An MPI request posted from inside a task body.

    ``detached=True`` models the OpenMP ``detach(event)`` clause: the task's
    body returns immediately after posting, freeing the worker, and the task
    completes — releasing TDG successors — when the request completes.
    """

    kind: CommKind
    nbytes: int
    peer: int = -1
    tag: int = 0
    detached: bool = True

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {self.nbytes}")
        if self.kind != CommKind.IALLREDUCE and self.peer < 0:
            raise ValueError("point-to-point CommSpec requires a peer rank")


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """Immutable description of one task as submitted by user code.

    ``depends`` is kept in clause order — dependence resolution is order
    sensitive, and duplicate addresses are deliberately representable (they
    are what optimization (a) removes at the source level).
    """

    name: str
    depends: tuple[Dep, ...] = ()
    flops: float = 0.0
    #: Memory traffic entries, either bare ``(chunk, bytes)`` or annotated
    #: ``(chunk, bytes, AccessMode)`` — see :func:`repro.core.task.split_footprint`.
    footprint: tuple[FootprintChunk | FootprintAccess, ...] = ()
    fp_bytes: int = 64
    comm: Optional[CommSpec] = None
    body: Optional[Callable[[], None]] = None
    loop_id: int = -1
    #: ``#pragma omp taskwait``: the producer blocks here until every task
    #: submitted so far has completed.  No task is created for the marker.
    #: Used by the §4.1 ablation that brackets communication sequences.
    barrier: bool = False
    #: Communication-path priority (the communication-aware scheduling of
    #: Pereira et al. [26], which MPC-OMP implements): ready priority tasks
    #: are scheduled before ordinary ones, yielding the earlier request
    #: posting §4.1 credits depth-first execution with.
    priority: bool = False
    #: Offload this task to the configured accelerator (§7 extension): the
    #: host worker only launches the kernel; completion releases TDG
    #: successors when the device finishes.
    device: bool = False

    def __post_init__(self) -> None:
        if self.flops < 0:
            raise ValueError(f"flops must be >= 0, got {self.flops}")
        if self.fp_bytes < 0:
            raise ValueError(f"fp_bytes must be >= 0, got {self.fp_bytes}")
        if self.barrier and (self.depends or self.comm is not None):
            raise ValueError("a taskwait marker cannot carry depends or comm")

    def accesses(self) -> tuple[FootprintAccess, ...]:
        """The footprint normalized to ``(chunk, bytes, AccessMode)`` triples.

        Unannotated entries are treated as read-modify-write, the
        conservative assumption for the static race detector.
        """
        chunks, modes = split_footprint(self.footprint)
        return tuple(
            (cid, nbytes, mode) for (cid, nbytes), mode in zip(chunks, modes)
        )


@dataclass(slots=True)
class IterationSpec:
    """One iteration of the application's outer time-step loop."""

    index: int
    tasks: list[TaskSpec] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tasks)


class Program:
    """A complete task-submitting program.

    Parameters
    ----------
    iterations:
        The per-iteration task lists, in submission order; the k-th
        must carry ``index == k`` (every layer — the DES, the static
        compile, the verifier — reads an iteration's index as its
        position).
    persistent_candidate:
        Whether the outer loop is annotated ``#pragma omp ptsg`` (Fig. 5):
        all iterations submit the same tasks with the same dependences, so
        a runtime with optimization (p) may cache the graph.  The runtime
        only honours persistence if this is True *and* opt (p) is enabled.
    name:
        Label used in reports.
    """

    def __init__(
        self,
        iterations: Sequence[IterationSpec],
        *,
        persistent_candidate: bool = False,
        name: str = "program",
    ) -> None:
        self.iterations = list(iterations)
        self.persistent_candidate = persistent_candidate
        self.name = name
        for k, it in enumerate(self.iterations):
            if not isinstance(it, IterationSpec):
                raise TypeError(f"expected IterationSpec, got {type(it)!r}")
            if it.index != k:
                raise ValueError(
                    f"iteration at position {k} has index {it.index}; "
                    "iterations must be numbered 0..n-1 in order"
                )

    # ------------------------------------------------------------------
    @classmethod
    def from_template(
        cls,
        tasks: Sequence[TaskSpec],
        n_iterations: int,
        *,
        persistent_candidate: bool = True,
        name: str = "program",
    ) -> "Program":
        """Build an iterative program whose iterations share one spec list.

        This is the memory-efficient way to express the paper's workloads:
        every iteration submits structurally identical tasks (the premise of
        the persistent TDG), so the spec objects can be shared — the
        runtime never mutates them.
        """
        if n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1, got {n_iterations}")
        tasks = list(tasks)
        its = [IterationSpec(index=k, tasks=tasks) for k in range(n_iterations)]
        return cls(its, persistent_candidate=persistent_candidate, name=name)

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    @property
    def n_tasks(self) -> int:
        """Total tasks submitted over all iterations (a ``taskwait``
        marker creates no task, so it is not counted)."""
        return sum(not s.barrier for it in self.iterations for s in it.tasks)

    def specs(self) -> Iterator[tuple[int, TaskSpec]]:
        """Yield ``(iteration index, spec)`` in global submission order."""
        for it in self.iterations:
            for spec in it.tasks:
                yield it.index, spec

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Program({self.name!r}, iterations={self.n_iterations},"
            f" tasks={self.n_tasks}, persistent={self.persistent_candidate})"
        )


class ProgramBuilder:
    """Fluent builder mirroring OpenMP task constructs.

    >>> b = ProgramBuilder("demo")
    >>> with b.iteration():
    ...     b.task("t0", out=["x"], flops=100.0)
    ...     b.task("t1", inp=["x"], flops=100.0)
    >>> prog = b.build()
    >>> prog.n_tasks
    2

    Dependence addresses may be any hashable value; they are interned to
    integers so the resolver works on compact keys.
    """

    def __init__(self, name: str = "program", *, persistent_candidate: bool = False):
        self.name = name
        self.persistent_candidate = persistent_candidate
        self._iterations: list[IterationSpec] = []
        self._current: Optional[IterationSpec] = None
        self._addr_table: dict[object, int] = {}
        self._loop_table: dict[str, int] = {}

    # ------------------------------------------------------------------
    def addr(self, key: object) -> int:
        """Intern an arbitrary hashable dependence key to an int address."""
        table = self._addr_table
        a = table.get(key)
        if a is None:
            a = len(table)
            table[key] = a
        return a

    def loop(self, label: str) -> int:
        """Intern a loop label (e.g. ``"CalcForceForNodes"``) to a loop id."""
        table = self._loop_table
        i = table.get(label)
        if i is None:
            i = len(table)
            table[label] = i
        return i

    @property
    def loop_labels(self) -> dict[str, int]:
        """Mapping of loop label to loop id, in registration order."""
        return dict(self._loop_table)

    # ------------------------------------------------------------------
    def iteration(self) -> "ProgramBuilder._IterationCtx":
        """Open a new outer-loop iteration (context manager)."""
        return ProgramBuilder._IterationCtx(self)

    class _IterationCtx:
        def __init__(self, builder: "ProgramBuilder"):
            self._b = builder

        def __enter__(self) -> "ProgramBuilder":
            b = self._b
            if b._current is not None:
                raise RuntimeError("iteration() contexts cannot be nested")
            b._current = IterationSpec(index=len(b._iterations))
            return b

        def __exit__(self, exc_type, exc, tb) -> None:
            b = self._b
            assert b._current is not None
            if exc_type is None:
                b._iterations.append(b._current)
            b._current = None

    # ------------------------------------------------------------------
    def task(
        self,
        name: str,
        *,
        inp: Sequence[object] = (),
        out: Sequence[object] = (),
        inout: Sequence[object] = (),
        inoutset: Sequence[object] = (),
        flops: float = 0.0,
        footprint: Sequence[FootprintChunk | FootprintAccess] = (),
        fp_bytes: int = 64,
        comm: Optional[CommSpec] = None,
        body: Optional[Callable[[], None]] = None,
        loop: str | None = None,
    ) -> TaskSpec:
        """Submit one task, the analogue of ``#pragma omp task depend(...)``.

        Clause order is preserved as ``in`` then ``out`` then ``inout`` then
        ``inoutset``, matching how a compiler lowers the clause list.
        """
        if self._current is None:
            raise RuntimeError("task() must be called inside an iteration() context")
        deps: list[Dep] = []
        for key in inp:
            deps.append((self.addr(key), DepMode.IN))
        for key in out:
            deps.append((self.addr(key), DepMode.OUT))
        for key in inout:
            deps.append((self.addr(key), DepMode.INOUT))
        for key in inoutset:
            deps.append((self.addr(key), DepMode.INOUTSET))
        # A duplicate (addr, mode) pair never adds a constraint but inflates
        # discovery cost (one c_dep hash per item, plus edges when opt (b)
        # is off) — reject it at submission, like the verify linter would.
        seen: set[Dep] = set()
        for d in deps:
            if d in seen:
                raise ValueError(
                    f"task {name!r}: duplicate depend item "
                    f"(addr={d[0]}, mode={d[1].name}) — each storage "
                    "location may appear once per mode in a clause list"
                )
            seen.add(d)
        spec = TaskSpec(
            name=name,
            depends=tuple(deps),
            flops=flops,
            footprint=tuple(footprint),
            fp_bytes=fp_bytes,
            comm=comm,
            body=body,
            loop_id=self.loop(loop) if loop is not None else -1,
        )
        self._current.tasks.append(spec)
        return spec

    def taskwait(self) -> TaskSpec:
        """Submit a ``#pragma omp taskwait`` marker."""
        if self._current is None:
            raise RuntimeError(
                "taskwait() must be called inside an iteration() context"
            )
        spec = TaskSpec(name="taskwait", barrier=True)
        self._current.tasks.append(spec)
        return spec

    def taskloop(
        self,
        name: str,
        num_tasks: int,
        *,
        dep_fn: Callable[[int], dict],
        flops_per_task: float = 0.0,
        footprint_fn: Optional[Callable[[int], Sequence[FootprintChunk]]] = None,
        fp_bytes: int = 64,
        body_fn: Optional[Callable[[int], Optional[Callable[[], None]]]] = None,
    ) -> list[TaskSpec]:
        """Submit a dependent taskloop: ``num_tasks`` tasks over one loop.

        ``dep_fn(i)`` returns the clause dict for chunk ``i`` with any of the
        keys ``inp``/``out``/``inout``/``inoutset`` — the analogue of the
        non-standard ``taskloop depend`` construct the paper relies on [18].
        """
        if num_tasks <= 0:
            raise ValueError(f"num_tasks must be > 0, got {num_tasks}")
        specs = []
        for i in range(num_tasks):
            clauses = dep_fn(i)
            unknown = set(clauses) - {"inp", "out", "inout", "inoutset"}
            if unknown:
                raise ValueError(f"dep_fn returned unknown clauses: {sorted(unknown)}")
            specs.append(
                self.task(
                    f"{name}[{i}]",
                    flops=flops_per_task,
                    footprint=footprint_fn(i) if footprint_fn is not None else (),
                    fp_bytes=fp_bytes,
                    body=body_fn(i) if body_fn is not None else None,
                    loop=name,
                    **clauses,
                )
            )
        return specs

    # ------------------------------------------------------------------
    def build(self) -> Program:
        """Finalize into an immutable-ish :class:`Program`."""
        if self._current is not None:
            raise RuntimeError("build() called inside an open iteration()")
        return Program(
            self._iterations,
            persistent_candidate=self.persistent_candidate,
            name=self.name,
        )
