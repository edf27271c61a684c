"""Static TDG discovery: graph structure, segments and happens-before."""

import pytest

from repro.core.compiled import compile_program
from repro.core.optimizations import OptimizationSet
from repro.core.program import ProgramBuilder
from repro.runtime.costs import DiscoveryCosts
from repro.sim import InstrumentationBus
from repro.verify.static_graph import discover_static


def chain_program(n=3, *, persistent=False, iterations=1):
    b = ProgramBuilder("chain", persistent_candidate=persistent)
    for _ in range(iterations):
        with b.iteration():
            b.task("w", out=["x"])
            for i in range(n - 1):
                b.task(f"r{i}", inp=["x"], out=[f"y{i}"])
    return b.build()


class TestDiscovery:
    def test_counts_and_nodes(self):
        tdg = discover_static(chain_program(3), OptimizationSet.parse("ab"))
        c = tdg.compiled
        assert c.n_user_tasks == 3
        assert c.n_stubs == 0
        assert c.stats.created == 2
        assert c.name == ["w", "r0", "r1"]
        assert all(it == 0 for it in c.iteration)
        assert [s.name for s in tdg.specs] == c.name

    def test_redirect_stubs_registered(self):
        b = ProgramBuilder("ioset")
        with b.iteration():
            for i in range(3):
                b.task(f"w{i}", inoutset=["x"])
            for i in range(2):
                b.task(f"r{i}", inp=["x"])
        tdg = discover_static(b.build(), OptimizationSet.parse("abc"))
        c = tdg.compiled
        assert c.n_user_tasks == 5
        assert c.n_stubs == 1
        assert c.stats.redirect_nodes == 1
        # A stub has no originating spec.
        assert [t for t, s in enumerate(tdg.specs) if s is None] == c.stub_tids
        # m + n edges through the stub.
        assert c.stats.created == 3 + 2

    def test_non_persistent_keeps_cross_iteration_edges(self):
        prog = chain_program(2, iterations=2)
        tdg = discover_static(prog, OptimizationSet.parse("ab"))
        c = tdg.compiled
        assert not c.persistent
        # iteration 1's writer depends on iteration 0's reader (WAR) and
        # writer (WAW is transitively covered); edges cross the boundary.
        cross = [
            (p, s)
            for p, s in c.unique_edges()
            if c.iteration[p] != c.iteration[s]
        ]
        assert cross

    def test_persistent_resolves_template_only(self):
        prog = chain_program(2, persistent=True, iterations=4)
        tdg = discover_static(prog, OptimizationSet.parse("abcp"))
        assert tdg.compiled.persistent
        assert tdg.compiled.n_user_tasks == 2  # template only
        assert len(set(tdg.compiled.iteration)) == 1


class TestHappensBefore:
    def test_graph_path_orders(self):
        tdg = discover_static(chain_program(3), OptimizationSet.parse("ab"))
        w, r0, r1 = (tdg.compiled.name.index(n) for n in ("w", "r0", "r1"))
        assert tdg.happens_before(w, r0)
        assert not tdg.happens_before(r0, w)
        assert tdg.ordered(w, r1)
        # The two readers are mutually unordered.
        assert not tdg.ordered(r0, r1)

    def test_taskwait_orders_segments(self):
        b = ProgramBuilder("tw")
        with b.iteration():
            b.task("a", out=["x"])
            b.task("b", out=["y"])
            b.taskwait()
            b.task("c", out=["z"])
        tdg = discover_static(b.build(), OptimizationSet.parse("ab"))
        a, bb, c = (tdg.compiled.name.index(n) for n in ("a", "b", "c"))
        segment = tdg.compiled.segment
        assert segment[a] == segment[bb] == 0
        assert segment[c] == 1
        assert not tdg.ordered(a, bb)
        assert tdg.happens_before(a, c) and tdg.happens_before(bb, c)

    def test_persistent_iteration_barrier_orders(self):
        prog = chain_program(2, persistent=True, iterations=2)
        tdg = discover_static(prog, OptimizationSet.parse("abcp"))
        # Only template nodes exist, but the replay barrier bumps segments
        # so anything conceptually later is ordered after the template.
        assert tdg.compiled.segment[-1] == 0

    def test_ancestors_handle_redirect_topology(self):
        # Redirect stubs get edges toward earlier tids: creation order is
        # not topological, Kahn must still close the ancestor sets.
        b = ProgramBuilder("ioset")
        with b.iteration():
            for i in range(2):
                b.task(f"w{i}", inoutset=["x"])
            for i in range(2):
                b.task(f"r{i}", inp=["x"])
        tdg = discover_static(b.build(), OptimizationSet.parse("abc"))
        names = tdg.compiled.name
        w0 = names.index("w0")
        readers = [t for t, n in enumerate(names) if n.startswith("r")]
        assert all(tdg.happens_before(w0, r) for r in readers)


class TestIterationCosts:
    def test_costs_only_with_costs(self):
        prog = chain_program(2, iterations=2)
        tdg = discover_static(prog, OptimizationSet.parse("ab"))
        assert tdg.iteration_costs == []

    def test_persistent_replay_cheaper(self):
        prog = chain_program(4, persistent=True, iterations=3)
        tdg = discover_static(
            prog, OptimizationSet.parse("abcp"), costs=DiscoveryCosts()
        )
        first, *rest = tdg.iteration_costs
        assert len(rest) == 2
        assert all(c < first for c in rest)
        assert rest[0] == pytest.approx(rest[1])


def accumulated_iteration_costs(program, opts, costs):
    """The reference: per-iteration producer costs accumulated as the
    static walk prices each task when it is created.

    A resolved iteration sums ``costs.creation_cost(spec, res)`` in
    resolution order, starting from 0.0; a replayed persistent iteration
    sums its tasks' ``replay_cost``.  Taken from the ``task_create``
    events a bus-attached compile emits.
    """
    created: dict[int, float] = {}

    class Accumulate:
        def on_task_create(self, table, tid, res, cost, now):
            it = table.iteration[tid]
            created[it] = created.get(it, 0.0) + cost

    bus = InstrumentationBus()
    bus.attach(Accumulate())
    compile_program(program, opts, costs=costs, bus=bus)
    persistent = opts.p and program.persistent_candidate
    out = []
    for it in program.iterations:
        if persistent and it.index > 0:
            out.append(sum(costs.replay_cost(s) for s in it.tasks if not s.barrier))
        else:
            out.append(created.get(it.index, 0.0))
    return out


def app_programs():
    from repro.apps.cholesky import CholeskyConfig, build_task_programs
    from repro.apps.hpcg import HpcgConfig
    from repro.apps.hpcg import build_task_program as build_hpcg
    from repro.apps.lulesh import LuleshConfig
    from repro.apps.lulesh import build_task_program as build_lulesh

    return {
        "lulesh": lambda opts: build_lulesh(
            LuleshConfig(s=12, iterations=4, tpl=32), opt_a=opts.a
        ),
        "hpcg": lambda opts: build_hpcg(
            HpcgConfig(n_rows=8192, iterations=3, tpl=16)
        ),
        "cholesky": lambda opts: build_task_programs(
            CholeskyConfig(n=2048, b=256, iterations=3)
        )[0],
    }


class TestIterationCostsMatchReference:
    """``discover_static`` prices iterations from the cost-free artifact's
    discovery columns, bit for bit as the creation-time accumulation."""

    @pytest.mark.parametrize("app", ["lulesh", "hpcg", "cholesky"])
    @pytest.mark.parametrize("opts", ["none", "ab", "abc", "abcp"])
    def test_equal_float_hex(self, app, opts):
        opt_set = OptimizationSet.parse(opts)
        prog = app_programs()[app](opt_set)
        for costs in (DiscoveryCosts(), DiscoveryCosts().scaled(0.5)):
            got = discover_static(prog, opt_set, costs=costs).iteration_costs
            ref = accumulated_iteration_costs(prog, opt_set, costs)
            assert len(got) == prog.n_iterations
            assert [float(c).hex() for c in got] == [
                float(c).hex() for c in ref
            ]
