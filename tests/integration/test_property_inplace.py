"""Property test: follow-ups run in place are exactly the queued schedule.

When ``TaskRuntime._task_armed`` finds no queued event due at the current
time, it runs the woken worker's try and the producer's next step in
place instead of queueing both at ``now``.  :class:`AlwaysDueQueue`
reports an event due at every query, so every follow-up goes through the
queue: the fully queued schedule.  On random programs, under every mode
the runtime has, both schedules must produce the same result (trace
included) or the same error, and the same ordered stream of bus
emissions, and the default queue must dispatch fewer events.
"""

from __future__ import annotations

from dataclasses import astuple, is_dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import OptimizationSet, ThrottleConfig
from repro.core.program import Program, TaskSpec
from repro.memory import tiny_test_machine
from repro.mpi.comm import Communicator
from repro.mpi.network import bxi_like
from repro.runtime import RuntimeConfig, TaskRuntime
from repro.runtime.runtime import DeadlockError
from repro.runtime.costs import DiscoveryCosts, SchedulerCosts
from repro.sim import EventQueue, InstrumentationBus, TaskTable
from repro.sim.bus import HOOKS
from repro.util.serde import canonical_json
from tests.sim.test_determinism import pingpong
from tests.strategies import program_shape

shapes = program_shape(n_addrs=4, max_deps=4, max_tasks=16)

ZERO_DISCOVERY = DiscoveryCosts(
    c_task=0.0, c_dep=0.0, c_edge=0.0, c_edge_skip=0.0, c_prune=0.0,
    c_redirect=0.0, c_replay=0.0, c_fp_byte=0.0,
)
ZERO_SCHED = SchedulerCosts(
    c_pop=0.0, c_steal=0.0, c_complete=0.0, c_release=0.0, c_post=0.0,
    c_poll=0.0, c_contention=0.0,
)
THROTTLES = {
    "default": ThrottleConfig.mpc_default(),
    "ready_cap": ThrottleConfig(ready_cap=2, total_cap=None),
    "total_cap": ThrottleConfig(total_cap=3),
}


class AlwaysDueQueue(EventQueue):
    """An event queue that always reports an event due now, so a runtime
    on it queues every follow-up."""

    __slots__ = ()

    def next_time(self) -> float:
        return self.now


class HookStream:
    """Every bus emission but ``register``, in order, as comparable text.

    A task table stands for its runtime's rank; a dataclass argument
    (a resolution result, a comm record) is copied when it is emitted.
    """

    def __init__(self):
        self.events: list[str] = []
        self._ranks: dict[int, int] = {}
        for name in HOOKS:
            if name != "register":
                setattr(self, f"on_{name}", self._recorder(name))

    def on_register(self, table, rank):
        self._ranks[id(table)] = rank

    def _recorder(self, name):
        def on_hook(*args):
            self.events.append(repr((name, *map(self._norm, args))))

        return on_hook

    def _norm(self, arg):
        if isinstance(arg, TaskTable):
            return ("rank", self._ranks[id(arg)])
        if is_dataclass(arg):
            return astuple(arg)
        return arg


def run_on(queue_cls, programs, configs):
    """Run one runtime per program on a shared queue of ``queue_cls``."""
    q = queue_cls()
    bus = InstrumentationBus()
    stream = bus.attach(HookStream())
    comm = Communicator(q, bxi_like(), len(programs))
    runtimes = [
        TaskRuntime(p, c, engine=q, comm=comm, rank=r, bus=bus)
        for r, (p, c) in enumerate(zip(programs, configs))
    ]
    for rt in runtimes:
        rt.start()
    q.run()
    try:
        results = [canonical_json(rt.result().to_dict()) for rt in runtimes]
    except DeadlockError as exc:
        # Some generated persistent programs deadlock in either schedule
        # (a taskwait ahead of a redirect stub's creation point waits for
        # the stub, which replay re-arms at the iteration start); both
        # schedules must then end in the same error.
        results = [repr(exc)]
    return results, stream.events, q.n_dispatched


def assert_same_schedule(programs, configs) -> tuple[int, int]:
    """Both schedules agree; returns (default, queued) event counts."""
    queued, queued_hooks, queued_events = run_on(AlwaysDueQueue, programs, configs)
    fused, fused_hooks, fused_events = run_on(EventQueue, programs, configs)
    assert fused == queued
    assert fused_hooks == queued_hooks
    return fused_events, queued_events


def assert_in_place_exact(programs, configs):
    fused_events, queued_events = assert_same_schedule(programs, configs)
    assert fused_events < queued_events


def build_program(shape, iterations, *, zero_work, taskwait, priority):
    specs = [
        TaskSpec(
            name=f"t{i}",
            depends=tuple(deps),
            flops=0.0 if zero_work else 2000.0 + 300.0 * (i % 5),
            footprint=() if zero_work else ((i % 3, 1024 * (1 + i % 2)),),
            priority=priority and i % 3 == 0,
        )
        for i, deps in enumerate(shape)
    ]
    if taskwait and len(specs) > 1:
        specs.insert(len(specs) // 2, TaskSpec(name="taskwait", barrier=True))
    return Program.from_template(specs, iterations)


class TestInPlaceFollowUps:
    @settings(max_examples=300, deadline=None)
    @given(
        shape=shapes,
        iterations=st.integers(1, 3),
        opts=st.sampled_from(["", "ab", "abc", "abcp"]),
        threads=st.integers(1, 4),
        sched=st.sampled_from(["lifo-df", "fifo-bf"]),
        throttle=st.sampled_from(sorted(THROTTLES)),
        non_overlapped=st.booleans(),
        taskwait=st.booleans(),
        priority=st.booleans(),
    )
    def test_same_schedule_fewer_events(
        self, shape, iterations, opts, threads, sched, throttle,
        non_overlapped, taskwait, priority,
    ):
        cfg = RuntimeConfig(
            machine=tiny_test_machine(4),
            n_threads=threads,
            opts=OptimizationSet.parse(opts),
            throttle=THROTTLES[throttle],
            scheduler=sched,
            non_overlapped=non_overlapped and "p" not in opts,
            trace=True,
        )
        prog = build_program(shape, iterations, zero_work=False,
                             taskwait=taskwait, priority=priority)
        assert_in_place_exact([prog], [cfg])

    @settings(max_examples=150, deadline=None)
    @given(
        shape=shapes,
        iterations=st.integers(1, 3),
        opts=st.sampled_from(["", "ab", "abc", "abcp"]),
        threads=st.integers(1, 4),
        sched=st.sampled_from(["lifo-df", "fifo-bf"]),
        throttle=st.sampled_from(sorted(THROTTLES)),
        taskwait=st.booleans(),
    )
    def test_zero_costs_ties_fall_back(
        self, shape, iterations, opts, threads, sched, throttle, taskwait
    ):
        """Zero costs and zero-work tasks put many events at one time:
        the guard must fall back to the queue whenever one is due."""
        cfg = RuntimeConfig(
            machine=tiny_test_machine(4),
            n_threads=threads,
            opts=OptimizationSet.parse(opts),
            throttle=THROTTLES[throttle],
            discovery=ZERO_DISCOVERY,
            sched=ZERO_SCHED,
            scheduler=sched,
            trace=True,
        )
        prog = build_program(shape, iterations, zero_work=True,
                             taskwait=taskwait, priority=False)
        assert_in_place_exact([prog], [cfg])

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("sched", ["lifo-df", "fifo-bf"])
    def test_cluster_pingpong_on_one_queue(self, threads, sched):
        """Rank 1 discovers more slowly, so the ranks' events interleave
        and each rank's follow-ups run in place whenever the other rank
        has nothing due."""
        cfg = RuntimeConfig(machine=tiny_test_machine(4), n_threads=threads,
                            scheduler=sched, seed=7, trace=True)
        slow = replace(cfg, discovery=replace(cfg.discovery,
                                              c_task=3 * cfg.discovery.c_task))
        assert_in_place_exact([pingpong(0), pingpong(1)], [cfg, slow])

    def test_symmetric_ranks_always_fall_back(self):
        """Identical ranks arm their tasks at the same times: each rank's
        follow-ups always find the other rank's event due, so nothing
        runs in place and the event counts are equal."""
        cfg = RuntimeConfig(machine=tiny_test_machine(4), n_threads=2,
                            seed=7, trace=True)
        fused, queued = assert_same_schedule([pingpong(0), pingpong(1)],
                                             [cfg, cfg])
        assert fused == queued
