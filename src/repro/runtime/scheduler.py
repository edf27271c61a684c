"""Ready-task schedulers.

Two policies matter for the paper:

- **LIFO depth-first** (MPC-OMP, §2.3): each worker has a private deque;
  successors readied by a completion are pushed on the completing worker's
  deque top and popped LIFO, so a data-producing task's successor runs next
  on the same core with warm caches.  Producer-discovered ready tasks go to
  a shared FIFO *spawn queue*; idle workers drain it or steal from the
  bottom of a victim's deque.
- **FIFO breadth-first**: one global FIFO — what execution effectively
  degrades to when the TDG discovery is too slow to expose successors.

The queued items are task ids: the runtime pushes ``tid`` ints together
with the task's ``priority`` column value, which the depth-first scheduler
uses to route priority tasks ahead of ordinary ones (the breadth-first
FIFO ignores it).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.util.rng import make_rng


class SchedulerStats:
    """Counters over one run."""

    __slots__ = ("pops_local", "pops_spawn", "steals", "failed_probes")

    def __init__(self) -> None:
        self.pops_local = 0
        self.pops_spawn = 0
        self.steals = 0
        self.failed_probes = 0


class LifoDepthFirstScheduler:
    """Per-worker LIFO deques + spawn FIFO + bottom-stealing."""

    kind = "lifo-df"

    def __init__(self, n_workers: int, *, seed: int | None = None):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self._local: list[deque[int]] = [deque() for _ in range(n_workers)]
        self._spawn: deque[int] = deque()
        self._priority: deque[int] = deque()
        self._n_ready = 0
        self._rng = make_rng(seed)
        self.stats = SchedulerStats()

    # ------------------------------------------------------------------
    @property
    def n_ready(self) -> int:
        return self._n_ready

    def push_local(self, worker: int, item: int, priority: bool = False) -> None:
        """Push a successor readied by ``worker`` (depth-first placement)."""
        if priority:
            self._priority.append(item)
        else:
            self._local[worker].append(item)
        self._n_ready += 1

    def push_spawn(self, item: int, priority: bool = False) -> None:
        """Push a task readied by discovery or by MPI completion."""
        if priority:
            self._priority.append(item)
        else:
            self._spawn.append(item)
        self._n_ready += 1

    # ------------------------------------------------------------------
    def pop(self, worker: int) -> tuple[Optional[int], str]:
        """Get work for ``worker``; returns ``(item, source)``.

        Source is ``"local"``, ``"spawn"``, ``"steal"`` or ``"none"`` —
        the runtime charges different overheads per source.
        """
        if self._priority:
            self._n_ready -= 1
            self.stats.pops_spawn += 1
            return self._priority.popleft(), "spawn"
        own = self._local[worker]
        if own:
            self._n_ready -= 1
            self.stats.pops_local += 1
            return own.pop(), "local"
        if self._spawn:
            self._n_ready -= 1
            self.stats.pops_spawn += 1
            return self._spawn.popleft(), "spawn"
        if self._n_ready > 0:
            # Steal from the bottom (FIFO end) of a victim deque: the
            # coldest, most parallel work — classic work-stealing placement.
            start = int(self._rng.integers(self.n_workers))
            for k in range(self.n_workers):
                victim = (start + k) % self.n_workers
                if victim == worker:
                    continue
                q = self._local[victim]
                if q:
                    self._n_ready -= 1
                    self.stats.steals += 1
                    return q.popleft(), "steal"
            self.stats.failed_probes += 1
        return None, "none"


class FifoBreadthFirstScheduler:
    """A single global FIFO: breadth-first order, no locality preference."""

    kind = "fifo-bf"

    def __init__(self, n_workers: int, *, seed: int | None = None):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self._queue: deque[int] = deque()
        self.stats = SchedulerStats()

    @property
    def n_ready(self) -> int:
        return len(self._queue)

    def push_local(self, worker: int, item: int, priority: bool = False) -> None:
        self._queue.append(item)

    def push_spawn(self, item: int, priority: bool = False) -> None:
        self._queue.append(item)

    def pop(self, worker: int) -> tuple[Optional[int], str]:
        if self._queue:
            self.stats.pops_spawn += 1
            return self._queue.popleft(), "spawn"
        return None, "none"


def make_scheduler(kind: str, n_workers: int, *, seed: int | None = None):
    """Factory: ``"lifo-df"`` or ``"fifo-bf"``."""
    if kind == "lifo-df":
        return LifoDepthFirstScheduler(n_workers, seed=seed)
    if kind == "fifo-bf":
        return FifoBreadthFirstScheduler(n_workers, seed=seed)
    raise ValueError(f"unknown scheduler kind {kind!r}; expected 'lifo-df' or 'fifo-bf'")
