"""Discrete-event simulation engine.

A single :class:`EventQueue` drives everything: worker threads, the producer
thread, MPI request completion, and (in cluster mode) all simulated ranks at
once.  Events at equal timestamps fire in insertion order (a monotonically
increasing sequence number breaks ties), which makes runs deterministic.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable

_INF = float("inf")

#: One pre-built event for :meth:`EventQueue.push_many`:
#: ``(time, handler, args-tuple)``.
Event = "tuple[float, Callable, tuple]"


class EventQueue:
    """A time-ordered queue of callbacks.

    The queue *is* the simulation: handlers push further events; the run
    ends when the queue drains.
    """

    __slots__ = ("_heap", "_seq", "now", "_n_dispatched")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        #: Current simulated time in seconds: the time of the event being
        #: dispatched.  Only the dispatch loop writes it.
        self.now = 0.0
        self._n_dispatched = 0

    # ------------------------------------------------------------------
    @property
    def n_dispatched(self) -> int:
        """Number of events dispatched so far (debug/metrics)."""
        return self._n_dispatched

    def __len__(self) -> int:
        return len(self._heap)

    def next_time(self) -> float:
        """Time of the earliest queued event; ``inf`` when none is queued.

        No queued event is due at :attr:`now` exactly when this is later
        than ``now`` (nothing can be queued in the past).
        """
        heap = self._heap
        return heap[0][0] if heap else _INF

    # ------------------------------------------------------------------
    def push(self, time: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at simulated ``time``.

        Scheduling in the past is a simulator bug, not a recoverable
        condition, so it raises.  So is a NaN timestamp: NaN compares
        False against everything, which would silently corrupt the heap
        ordering instead of failing loudly.
        """
        if not time >= self.now:  # catches both past times and NaN
            if time != time:
                raise ValueError(
                    f"cannot schedule event at NaN time (handler {fn!r})"
                )
            raise ValueError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1

    def push_now(self, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current time (after pending ties)."""
        self.push(self.now, fn, *args)

    def push_many(self, events: Iterable[tuple[float, Callable, tuple]]) -> int:
        """Schedule a batch of pre-built ``(time, fn, args)`` handler tuples.

        The fast path for fan-out points (waking k workers, completing a
        collective on every rank): one call, validation hoisted out of the
        loop bodies, local bindings for the heap push.  Events are pushed
        in iteration order, so tie-breaking matches an equivalent sequence
        of :meth:`push` calls.  Returns the number of events pushed.
        """
        heap = self._heap
        now = self.now
        seq = self._seq
        pushed = 0
        try:
            for time, fn, args in events:
                if not time >= now:
                    if time != time:
                        raise ValueError(
                            f"cannot schedule event at NaN time (handler {fn!r})"
                        )
                    raise ValueError(
                        f"cannot schedule event at {time} before current time {now}"
                    )
                heapq.heappush(heap, (time, seq, fn, args))
                seq += 1
                pushed += 1
        finally:
            self._seq = seq
        return pushed

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the next event; return False when the queue is empty."""
        if not self._heap:
            return False
        time, _, fn, args = heapq.heappop(self._heap)
        self.now = time
        self._n_dispatched += 1
        fn(*args)
        return True

    def run(self, *, max_events: int | None = None) -> None:
        """Run until the queue drains (or ``max_events`` dispatched)."""
        heap = self._heap
        pop = heapq.heappop
        if max_events is None:
            # Inlined step(): one bound-method call fewer per event —
            # this loop is the simulator's spine.  The dispatch counter
            # accumulates in a local and is written back even if a
            # callback raises.
            n = 0
            try:
                while heap:
                    time, _, fn, args = pop(heap)
                    self.now = time
                    n += 1
                    fn(*args)
            finally:
                self._n_dispatched += n
            return
        for _ in range(max_events):
            if not self.step():
                return
        if self._heap:
            raise RuntimeError(
                f"event budget of {max_events} exhausted with {len(self._heap)} "
                "events pending — likely a runaway simulation"
            )
