"""Property-based tests: the fidelity ladder orders correctly.

For random small (footprint-free) task programs the ladder's defining
inequalities must hold within tolerance:

    analytic.T_inf <= replay(N=inf) <= replay(N) ~= des(N)

and the analytic certified bracket ``makespan_lower <= x <=
makespan_upper`` must contain both the replay and the DES makespan.
Replay is a model of DES, not a bound on it, so the last link is an
agreement check (the cross-check tolerance), not an ordering.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.analysis.graphtools import to_networkx
from repro.core import OptimizationSet
from repro.core.compiled import compile_program
from repro.core.program import IterationSpec, Program, TaskSpec
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig
from repro.sim.tiers import replay, simulate
from tests.sim.test_tiers import assert_single_walk_matches_reference
from tests.strategies import program_shape

#: Replay-vs-DES agreement on adversarial random graphs.  The campaign
#: cross-check holds the real workloads to 8%; random programs this
#: small are dominated by single-task scheduling accidents, so the
#: property keeps a wider guard band while still catching model breaks.
AGREEMENT = 0.25
EPS = 1e-9

shapes = program_shape(n_addrs=4, max_deps=4, max_tasks=20)


def build_program(shape) -> Program:
    specs = [
        TaskSpec(name=f"t{i}", depends=tuple(deps), flops=2000.0 + 100.0 * i)
        for i, deps in enumerate(shape)
    ]
    return Program([IterationSpec(index=0, tasks=specs)])


class TestLadderOrdering:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=shapes,
        opts=st.sampled_from(["", "a", "abc"]),
        threads=st.integers(1, 4),
        sched=st.sampled_from(["lifo-df", "fifo-bf"]),
    )
    def test_span_then_workers_then_des(self, shape, opts, threads, sched):
        prog = build_program(shape)
        cfg = RuntimeConfig(
            machine=tiny_test_machine(4),
            n_threads=threads,
            opts=OptimizationSet.parse(opts),
            scheduler=sched,
        )
        art = compile_program(prog, cfg.opts, costs=cfg.discovery)

        bounds = simulate(art, cfg, fidelity="analytic").extra["bounds"]
        ideal = replay(art, cfg, workers=4096)
        rep = simulate(art, cfg, fidelity="replay")
        des = simulate(art, cfg, fidelity="des", program=prog)

        # Depth in tasks against an independent reference: inoutset
        # groups closed under opt (c) put stubs after their readers.
        assert bounds["depth"] == nx.dag_longest_path_length(to_networkx(art)) + 1
        # T_inf <= replay(N=inf): no schedule beats the critical path.
        assert bounds["t_inf"] <= ideal.makespan + EPS
        # replay(N=inf) <= replay(N): workers never hurt a list schedule
        # of frozen durations fed by the same producer clock.
        assert ideal.makespan <= rep.makespan + EPS
        # replay(N) ~= des(N): agreement within the guard band.
        assert abs(rep.makespan - des.makespan) <= AGREEMENT * des.makespan
        # The certified bracket contains both event-accurate makespans.
        lo, hi = bounds["makespan_lower"], bounds["makespan_upper"]
        for x in (rep.makespan, des.makespan):
            assert lo <= x * (1 + EPS)
            assert x <= hi * (1 + EPS)
        # All tiers agree on the task count.
        assert rep.n_tasks == des.n_tasks == len(shape)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=shapes,
        opts=st.sampled_from(["", "a", "abc"]),
        threads=st.integers(1, 4),
    )
    def test_single_walk_matches_per_vector_walks(self, shape, opts, threads):
        cfg = RuntimeConfig(
            machine=tiny_test_machine(4),
            n_threads=threads,
            opts=OptimizationSet.parse(opts),
        )
        art = compile_program(build_program(shape), cfg.opts, costs=cfg.discovery)
        assert_single_walk_matches_reference(art, cfg)

    @settings(max_examples=25, deadline=None)
    @given(shape=shapes, threads=st.integers(1, 4))
    def test_non_overlapped_ordering(self, shape, threads):
        prog = build_program(shape)
        cfg = RuntimeConfig(
            machine=tiny_test_machine(4),
            n_threads=threads,
            opts=OptimizationSet.parse("abc"),
            non_overlapped=True,
        )
        art = compile_program(prog, cfg.opts, costs=cfg.discovery)
        bounds = simulate(art, cfg, fidelity="analytic").extra["bounds"]
        rep = simulate(art, cfg, fidelity="replay")
        des = simulate(art, cfg, fidelity="des", program=prog)
        assert abs(rep.makespan - des.makespan) <= AGREEMENT * des.makespan
        lo, hi = bounds["makespan_lower"], bounds["makespan_upper"]
        for x in (rep.makespan, des.makespan):
            assert lo <= x * (1 + EPS)
            assert x <= hi * (1 + EPS)

    @settings(max_examples=25, deadline=None)
    @given(shape=shapes, iters=st.integers(2, 4))
    def test_persistent_ordering(self, shape, iters):
        prog = Program.from_template(
            [
                TaskSpec(name=f"t{i}", depends=tuple(deps), flops=2000.0)
                for i, deps in enumerate(shape)
            ],
            iters,
        )
        cfg = RuntimeConfig(
            machine=tiny_test_machine(4),
            n_threads=4,
            opts=OptimizationSet.parse("abcp"),
        )
        art = compile_program(prog, cfg.opts, costs=cfg.discovery)
        bounds = simulate(art, cfg, fidelity="analytic").extra["bounds"]
        assert bounds["rounds"] == iters
        rep = simulate(art, cfg, fidelity="replay")
        des = simulate(art, cfg, fidelity="des", program=prog)
        assert rep.n_tasks == des.n_tasks == len(shape) * iters
        assert abs(rep.makespan - des.makespan) <= AGREEMENT * des.makespan
        lo, hi = bounds["makespan_lower"], bounds["makespan_upper"]
        for x in (rep.makespan, des.makespan):
            assert lo <= x * (1 + EPS)
            assert x <= hi * (1 + EPS)
