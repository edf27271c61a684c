"""Measured critical-path analysis over the compiled TDG.

The static shape metrics (:mod:`repro.core.graph_stats`) weigh the graph
with *model* costs — ideal compute time per task.  This module walks the
same :class:`~repro.core.compiled.CompiledTDG` CSR arrays with the
durations a run actually *traced* (task bodies including memory-hierarchy
time, contention and posting overhead) and reports, pyotter-style:

- the measured critical path — the binding chain of the run — and its
  inflation over the static T∞ lower bound;
- per-task slack: how much a task could stretch without lengthening the
  run (zero exactly on the critical path);
- which loops and task names own the path, i.e. where the run is bound.

Measured durations dominate the static per-task weights (compute plus
memory and posting time, over the same DAG), so the measured critical
path is ≥ static T∞ by construction; :meth:`CriticalPathResult.check`
asserts that and the slack/through consistency invariant.

Persistent runs (opt p) execute the template graph once per iteration
with an implicit barrier between: the measured path is computed per
iteration and chained (lengths sum; static T∞ scales by the iteration
count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compiled import CompiledTDG
    from repro.obs.recorder import TraceRecorder


def _longest_path(
    offsets: Sequence[int],
    targets: Sequence[int],
    dur: Sequence[float],
    order: Sequence[int],
) -> tuple[float, list[float], list[float], list[int]]:
    """Longest weighted path over a CSR DAG with node weights ``dur``.

    ``order`` is the graph's
    :func:`~repro.core.graph_stats.topological_order`; its FIFO sequence
    fixes the argmax tie-breaks, so the reported path is deterministic.
    Returns ``(length, finish, tail, path)`` where ``finish[t]`` is the
    longest path *ending* at ``t`` (inclusive), ``tail[t]`` the longest
    path *starting* at ``t`` (inclusive), and ``path`` the tids of one
    maximal chain in execution order.
    """
    n = len(offsets) - 1
    if n == 0:
        return 0.0, [], [], []
    best = [0.0] * n  # best predecessor finish
    argp = [-1] * n
    finish = [0.0] * n
    for p in order:
        fp = finish[p] = best[p] + dur[p]
        for s in targets[offsets[p] : offsets[p + 1]]:
            if fp > best[s]:
                best[s] = fp
                argp[s] = p
    tail = [0.0] * n
    for p in reversed(order):
        m = 0.0
        for s in targets[offsets[p] : offsets[p + 1]]:
            if tail[s] > m:
                m = tail[s]
        tail[p] = dur[p] + m
    end = 0
    for t in range(1, n):
        if finish[t] > finish[end]:
            end = t
    length = finish[end]
    path: list[int] = []
    t = end
    while t >= 0:
        path.append(t)
        t = argp[t]
    path.reverse()
    return length, finish, tail, path


@dataclass
class IterationCriticalPath:
    """Measured critical path of one (template) iteration."""

    iteration: int
    #: Measured critical-path seconds through this iteration's DAG.
    length: float
    #: tids along one maximal chain, in execution order.
    path: list[int]
    #: Per-tid slack: seconds the task could stretch without lengthening
    #: the iteration (0 on the path).  Aligned with the compiled columns.
    slack: list[float]
    #: Per-tid longest chain through the task (``through + slack == length``).
    through: list[float]


@dataclass
class CriticalPathResult:
    """Measured critical path of a profiled run vs the static T∞ bound."""

    #: Measured critical-path seconds (summed over iterations).
    length: float
    #: Static T∞ under ideal per-task compute weights, same DAG(s).
    static_t_inf: float
    persistent: bool
    iterations: list[IterationCriticalPath] = field(default_factory=list)
    #: Seconds on the measured path per loop id, descending.
    by_loop: list[tuple[int, float]] = field(default_factory=list)
    #: Seconds on the measured path per task name, descending.
    by_name: list[tuple[str, float]] = field(default_factory=list)
    #: Tasks on the measured path / total measured tasks.
    n_path_tasks: int = 0
    n_tasks: int = 0

    @property
    def inflation(self) -> float:
        """Measured critical path over static T∞ (≥ 1.0 by construction)."""
        return self.length / self.static_t_inf if self.static_t_inf > 0 else 0.0

    def check(self, *, rel_tol: float = 1e-9) -> None:
        """Assert the structural invariants; raises ``ValueError``.

        - measured length ≥ static T∞;
        - slack ≥ 0 everywhere and ≈ 0 along the reported path;
        - per-task consistency ``through + slack == length``.
        """
        if self.length < self.static_t_inf * (1.0 - rel_tol):
            raise ValueError(
                f"measured critical path {self.length!r} < static T∞ "
                f"{self.static_t_inf!r}"
            )
        for it in self.iterations:
            eps = rel_tol * max(1.0, it.length)
            for t, (s, th) in enumerate(zip(it.slack, it.through)):
                if s < -eps:
                    raise ValueError(
                        f"iteration {it.iteration}: task {t} has negative "
                        f"slack {s!r}"
                    )
                if abs(th + s - it.length) > eps:
                    raise ValueError(
                        f"iteration {it.iteration}: task {t} violates "
                        f"through + slack == length"
                    )
            for t in it.path:
                if abs(it.slack[t]) > eps:
                    raise ValueError(
                        f"iteration {it.iteration}: path task {t} has "
                        f"nonzero slack {it.slack[t]!r}"
                    )

    def path_edges(self) -> list[tuple[int, int]]:
        """Consecutive (pred, succ) pairs of the measured path(s) — feed
        to :func:`repro.obs.export.to_perfetto` as flow arrows."""
        edges: list[tuple[int, int]] = []
        seen = set()
        for it in self.iterations:
            for a, b in zip(it.path, it.path[1:]):
                if (a, b) not in seen:
                    seen.add((a, b))
                    edges.append((a, b))
        return edges

    def to_dict(self) -> dict:
        """JSON-ready summary (paths and aggregates, not per-task rows)."""
        return {
            "length": self.length,
            "static_t_inf": self.static_t_inf,
            "inflation": self.inflation,
            "persistent": self.persistent,
            "n_path_tasks": self.n_path_tasks,
            "n_tasks": self.n_tasks,
            "by_loop": [[loop, t] for loop, t in self.by_loop],
            "by_name": [[name, t] for name, t in self.by_name],
            "iteration_lengths": [it.length for it in self.iterations],
        }


def measured_critical_path(
    compiled: "CompiledTDG",
    recorder: "TraceRecorder",
    *,
    flops_per_core: float,
    rank: Optional[int] = None,
) -> CriticalPathResult:
    """Walk ``compiled``'s CSR arrays with traced durations.

    ``recorder`` supplies measured span durations keyed by (tid,
    iteration); tasks without a span (redirect stubs, untraced tasks)
    weigh zero, exactly like their static weight.  ``flops_per_core``
    anchors the static T∞ reference (ideal compute seconds per task);
    ``rank`` selects a tid space on multi-rank recordings (defaults to
    the artifact's owning rank).
    """
    if rank is None:
        rank = compiled.owner[0] if compiled.owner else 0
    offsets, targets = compiled.succ_offsets, compiled.succ_targets
    order = compiled.topo_order
    weights = [f / flops_per_core for f in compiled.flops]
    static_t_inf = _longest_path(offsets, targets, weights, order)[0]
    durations = recorder.durations(rank=rank)

    if compiled.persistent:
        measured_iters = sorted({it for _, it in durations})
    else:
        measured_iters = [None]

    iterations: list[IterationCriticalPath] = []
    total = 0.0
    n = compiled.n_tasks
    for it in measured_iters:
        if it is None:
            # Non-persistent: the artifact holds every iteration's tasks
            # with their own tids; one pass over the whole DAG.
            dur = [
                durations.get((t, compiled.iteration[t]), 0.0) for t in range(n)
            ]
            label = -1
        else:
            dur = [durations.get((t, it), 0.0) for t in range(n)]
            label = it
        length, finish, tail, path = _longest_path(
            offsets, targets, dur, order
        )
        slack = [length - (finish[t] + tail[t] - dur[t]) for t in range(n)]
        through = [finish[t] + tail[t] - dur[t] for t in range(n)]
        iterations.append(
            IterationCriticalPath(
                iteration=label, length=length, path=path,
                slack=slack, through=through,
            )
        )
        total += length

    static_total = static_t_inf * max(1, len(iterations))

    # Aggregate on-path seconds by loop and by name.
    by_loop: dict[int, float] = {}
    by_name: dict[str, float] = {}
    n_path = 0
    for itcp in iterations:
        key_it = itcp.iteration if compiled.persistent else None
        for t in itcp.path:
            d = (
                durations.get((t, key_it), 0.0)
                if key_it is not None
                else durations.get((t, compiled.iteration[t]), 0.0)
            )
            if d <= 0.0:
                continue
            n_path += 1
            loop = compiled.loop_id[t]
            by_loop[loop] = by_loop.get(loop, 0.0) + d
            name = compiled.name[t]
            by_name[name] = by_name.get(name, 0.0) + d

    rank_desc = lambda d: sorted(d.items(), key=lambda kv: (-kv[1], kv[0]))
    return CriticalPathResult(
        length=total,
        static_t_inf=static_total,
        persistent=compiled.persistent,
        iterations=iterations,
        by_loop=rank_desc(by_loop),
        by_name=rank_desc(by_name),
        n_path_tasks=n_path,
        n_tasks=len(durations),
    )
