"""Determinism suite for the `repro.sim` kernel (all three engines).

Locks in two contracts:

1. **Reproducibility** — the same program and seed produce byte-identical
   traces, the same event count and the same final simulated time on every
   run, for the task runtime, the fork-join runtime and a coupled 2-rank
   cluster.
2. **Observer neutrality** — attaching bus subscribers never perturbs the
   simulation: results with and without observers are identical (the
   instrumentation bus is read-only by construction).
"""

from repro.cluster.cluster import Cluster
from repro.core import ProgramBuilder
from repro.core.program import CommKind, CommSpec
from repro.memory import tiny_test_machine
from repro.mpi.comm import Communicator
from repro.mpi.network import bxi_like
from repro.runtime import RuntimeConfig, TaskRuntime
from repro.runtime.parallel_for import (
    ForIteration,
    ForProgram,
    LoopSpec,
    ParallelForRuntime,
)
from repro.sim import EventQueue, InstrumentationBus
from repro.sim.bus import HOOKS
from repro.util.serde import canonical_json


class HookCounter:
    """Count every bus emission and do nothing else: one ``on_<hook>``
    per hook of the bus catalogue."""

    def __init__(self):
        self.counts = dict.fromkeys(HOOKS, 0)
        for name in HOOKS:
            setattr(self, f"on_{name}", self._counter(name))

    def _counter(self, name):
        def on_hook(*args):
            self.counts[name] += 1

        return on_hook


def cfg(**kw):
    kw.setdefault("machine", tiny_test_machine(4))
    kw.setdefault("seed", 7)
    return RuntimeConfig(**kw)


def task_program(iterations=3, width=8):
    """A mixed-shape TDG: a source fan-out, chains, and a reduction."""
    b = ProgramBuilder("det", persistent_candidate=True)
    for _ in range(iterations):
        with b.iteration():
            b.task("src", out=["x"], flops=400.0)
            for i in range(width):
                b.task(f"mid{i}", inp=["x"], out=[("y", i)],
                       flops=300.0 + 10.0 * i,
                       footprint=[(i, 2048)])
            b.task("sink", inp=[("y", i) for i in range(width)],
                   flops=500.0)
            b.taskwait()
    return b.build()


def for_program(iterations=3):
    its = []
    for _ in range(iterations):
        its.append(ForIteration(phases=[
            LoopSpec(name="calc", flops=50_000.0, bytes_streamed=1 << 16),
            LoopSpec(name="apply", flops=20_000.0, bytes_streamed=1 << 14,
                     footprint=((0, 4096), (1, 4096))),
        ]))
    return ForProgram(its, name="det-for")


def pingpong(rank):
    peer = 1 - rank
    b = ProgramBuilder(f"pp-r{rank}")
    for _ in range(3):
        with b.iteration():
            if rank == 0:
                b.task("send", inout=["buf"], flops=100.0,
                       comm=CommSpec(CommKind.ISEND, 256, peer=peer, tag=0))
                b.task("recv", inout=["buf"], flops=100.0,
                       comm=CommSpec(CommKind.IRECV, 256, peer=peer, tag=1))
            else:
                b.task("recv", inout=["buf"], flops=100.0,
                       comm=CommSpec(CommKind.IRECV, 256, peer=peer, tag=0))
                b.task("send", inout=["buf"], flops=100.0,
                       comm=CommSpec(CommKind.ISEND, 256, peer=peer, tag=1))
    return b.build()


def run_task(bus=None):
    rt = TaskRuntime(task_program(), cfg(trace=True), bus=bus)
    res = rt.run()
    return canonical_json(res.to_dict()["trace"]), rt.engine.n_dispatched, res.makespan


def run_for(bus=None):
    rt = ParallelForRuntime(for_program(), cfg(), bus=bus)
    res = rt.run()
    return rt.engine.n_dispatched, res.makespan, tuple(res.work)


def run_cluster(bus=None):
    cluster = Cluster(2, bus=bus)
    res = cluster.run([pingpong(0), pingpong(1)],
                      [cfg(trace=True), cfg(trace=True)])
    traces = tuple(canonical_json(r.to_dict()["trace"]) for r in res.results)
    return traces, res.n_events, res.makespan


class TestReproducibility:
    def test_task_runtime_bitwise_repeatable(self):
        assert run_task() == run_task()

    def test_parallel_for_bitwise_repeatable(self):
        assert run_for() == run_for()

    def test_cluster_bitwise_repeatable(self):
        assert run_cluster() == run_cluster()

    def test_seed_changes_stealing_runs(self):
        """Different seeds may reorder steals but never lose tasks."""
        a = TaskRuntime(task_program(), cfg(seed=1)).run()
        b = TaskRuntime(task_program(), cfg(seed=2)).run()
        assert a.n_tasks == b.n_tasks


class TestSharedQueue:
    def test_hand_driven_ranks_equal_cluster(self):
        """The shared-timeline pattern TaskRuntime documents: ranks built
        on one EventQueue and one Communicator, started, then drained
        once, are the coupled run Cluster performs."""
        net = bxi_like()
        q = EventQueue()
        comm = Communicator(q, net, 2)
        runtimes = [
            TaskRuntime(pingpong(r), cfg(trace=True), engine=q, comm=comm, rank=r)
            for r in range(2)
        ]
        for rt in runtimes:
            rt.start()
        q.run()
        comm.assert_quiescent()
        by_hand = [rt.result().to_dict() for rt in runtimes]

        out = Cluster(2, network=net).run(
            [pingpong(0), pingpong(1)], [cfg(trace=True), cfg(trace=True)]
        )
        assert canonical_json(by_hand) == canonical_json(
            [r.to_dict() for r in out.results]
        )
        assert q.n_dispatched == out.n_events


class TestObserverNeutrality:
    def test_task_runtime_subscribers_do_not_perturb(self):
        bus = InstrumentationBus()
        counter = bus.attach(HookCounter())
        observed = run_task(bus=bus)
        assert observed == run_task()
        assert counter.counts["task_end"] > 0
        assert counter.counts["task_ready"] > 0
        assert counter.counts["barrier"] > 0

    def test_parallel_for_subscribers_do_not_perturb(self):
        bus = InstrumentationBus()
        counter = bus.attach(HookCounter())
        assert run_for(bus=bus) == run_for()
        assert counter.counts["barrier"] > 0

    def test_cluster_shared_bus_does_not_perturb(self):
        bus = InstrumentationBus()
        counter = bus.attach(HookCounter())
        assert run_cluster(bus=bus) == run_cluster()
        assert counter.counts["msg_post"] > 0
        assert counter.counts["msg_complete"] > 0

    def test_detached_subscriber_costs_nothing(self):
        bus = InstrumentationBus()
        counter = bus.attach(HookCounter())
        bus.detach(counter)
        assert bus.quiet
        run_task(bus=bus)
        assert all(v == 0 for v in counter.counts.values())


class TestRecorderNeutrality:
    """The full observability recorder is as neutral as any subscriber:
    attaching a :class:`repro.obs.TraceRecorder` leaves the DES trace
    byte-identical on every engine."""

    def test_task_runtime_recorder_neutral(self):
        from repro.obs import DiscoveryCounters, TraceRecorder

        bus = InstrumentationBus()
        recorder = bus.attach(TraceRecorder())
        counters = bus.attach(DiscoveryCounters())
        assert run_task(bus=bus) == run_task()
        assert recorder.n_spans > 0
        assert counters.totals().tasks_created > 0

    def test_parallel_for_recorder_neutral(self):
        from repro.obs import TraceRecorder

        bus = InstrumentationBus()
        recorder = bus.attach(TraceRecorder())
        assert run_for(bus=bus) == run_for()
        assert recorder.barrier_kind  # fork-join barriers observed

    def test_cluster_recorder_neutral(self):
        from repro.obs import TraceRecorder

        bus = InstrumentationBus()
        recorder = bus.attach(TraceRecorder())
        assert run_cluster(bus=bus) == run_cluster()
        assert sorted(recorder.ranks) == [0, 1]
        assert recorder.comm_records  # MPI requests observed
        # Spans from both ranks, attributed via register events.
        assert {0, 1} <= set(recorder.span_rank)
