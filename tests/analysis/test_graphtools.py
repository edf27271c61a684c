"""Tests for TDG shape analytics."""

import pytest

from repro.analysis.graphtools import analyze_shape, to_networkx, width_profile
from repro.core import OptimizationSet, ProgramBuilder, compile_program


def discover(builder_fn, opts=""):
    b = ProgramBuilder("g")
    with b.iteration():
        builder_fn(b)
    return compile_program(b.build(), OptimizationSet.parse(opts))


class TestToNetworkx:
    def test_nodes_and_edges(self):
        g = discover(lambda b: (
            b.task("a", out=["x"], flops=1.0),
            b.task("b", inp=["x"], flops=2.0),
        ))
        nxg = to_networkx(g)
        assert nxg.number_of_nodes() == 2
        assert nxg.number_of_edges() == 1
        assert nxg.nodes[0]["name"] == "a"

    def test_stub_filtering(self):
        """Redirect stubs stay in the graph, flagged: they carry the
        ordering between an inoutset group and its readers."""
        import networkx as nx

        def build(b):
            for i in range(3):
                b.task(f"x{i}", inoutset=["s"], flops=1.0)
            b.task("r1", inp=["s"], flops=1.0)
            b.task("r2", inp=["s"], flops=1.0)
        art = discover(build, opts="c")
        g = to_networkx(art)
        assert g.number_of_nodes() == 6
        assert g.number_of_edges() == 5
        assert [t for t, stub in g.nodes(data="stub") if stub] == art.stub_tids
        writers = [t for t in g if g.nodes[t]["name"].startswith("x")]
        readers = [t for t in g if g.nodes[t]["name"] in ("r1", "r2")]
        assert len(writers) == 3 and len(readers) == 2
        for w in writers:
            for r in readers:
                assert nx.has_path(g, w, r)


class TestShape:
    def test_chain(self):
        def build(b):
            for i in range(5):
                b.task(f"t{i}", inout=["x"], flops=10.0)
        shape = analyze_shape(discover(build))
        assert shape.depth == 5
        assert shape.critical_path_weight == pytest.approx(50.0)
        assert shape.avg_parallelism == pytest.approx(1.0)

    def test_fork_join(self):
        def build(b):
            b.task("head", out=["x"], flops=10.0)
            for i in range(8):
                b.task(f"w{i}", inp=["x"], out=[("y", i)], flops=10.0)
            b.task("tail", inp=[("y", i) for i in range(8)], flops=10.0)
        shape = analyze_shape(discover(build))
        assert shape.depth == 3
        assert shape.total_weight == pytest.approx(100.0)
        assert shape.critical_path_weight == pytest.approx(30.0)
        assert shape.avg_parallelism == pytest.approx(100.0 / 30.0)

    def test_custom_weight(self):
        def build(b):
            b.task("a", out=["x"], flops=1.0)
            b.task("b", inp=["x"], flops=1.0)
        shape = analyze_shape(discover(build), weight=[7.0, 7.0])
        assert shape.total_weight == pytest.approx(14.0)

    def test_empty_graph(self):
        from repro.core import Program

        shape = analyze_shape(compile_program(Program([]), OptimizationSet.none()))
        assert shape.n_tasks == 0
        assert shape.avg_parallelism == 0.0

    def test_str(self):
        def build(b):
            b.task("a", out=["x"], flops=1.0)
        assert "avg-parallelism" in str(analyze_shape(discover(build)))


class TestWidthProfile:
    def test_fork_join_profile(self):
        def build(b):
            b.task("head", out=["x"], flops=1.0)
            for i in range(4):
                b.task(f"w{i}", inp=["x"], out=[("y", i)], flops=1.0)
            b.task("tail", inp=[("y", i) for i in range(4)], flops=1.0)
        assert width_profile(discover(build)) == [1, 4, 1]

    def test_shares_the_cached_topological_order(self, monkeypatch):
        """analyze_shape then width_profile on one artifact: one Kahn pass."""
        from repro.core import compiled, graph_stats

        passes = []
        kahn = graph_stats.topological_order

        def counting(offsets, targets):
            passes.append(len(offsets) - 1)
            return kahn(offsets, targets)

        for module in (compiled, graph_stats):
            monkeypatch.setattr(module, "topological_order", counting)

        def build(b):
            b.task("head", out=["x"], flops=1.0)
            for i in range(4):
                b.task(f"w{i}", inp=["x"], out=[("y", i)], flops=1.0)
            b.task("tail", inp=[("y", i) for i in range(4)], flops=1.0)
        art = discover(build)
        analyze_shape(art)
        assert width_profile(art) == [1, 4, 1]
        assert passes == [6]

    def test_lulesh_parallelism_scales_with_tpl(self):
        """The TDG's average parallelism grows with TPL — what refinement
        buys before discovery gets in the way."""
        from repro.apps.lulesh import LuleshConfig, build_task_program

        shapes = {}
        for tpl in (4, 16):
            prog = build_task_program(
                LuleshConfig(s=12, iterations=1, tpl=tpl), opt_a=True
            )
            shapes[tpl] = analyze_shape(compile_program(prog, OptimizationSet.abc()))
        assert shapes[16].avg_parallelism > shapes[4].avg_parallelism
