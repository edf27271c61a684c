"""Tests for the compiled TDG artifact, its signature, and its cache."""

import dataclasses

import pytest

from repro.core import (
    CompiledGraphCache,
    CompiledTDG,
    IterationSpec,
    OptimizationSet,
    Program,
    ProgramBuilder,
    compile_program,
    structural_signature,
)
from repro.core.compiled import COMPILED_FORMAT
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig, TaskRuntime
from repro.runtime.costs import DiscoveryCosts


def chain_program(n=4, iterations=3, *, persistent=True, name="chain"):
    b = ProgramBuilder(name, persistent_candidate=persistent)
    for _ in range(iterations):
        with b.iteration():
            for i in range(n):
                b.task(
                    f"t{i}", inp=["x"] if i else [], inout=["x"],
                    flops=10.0, fp_bytes=16,
                )
    return b.build()


def redirect_program(iterations=2):
    """inoutset group with two readers: opt (c) inserts a redirect stub."""
    b = ProgramBuilder("redir", persistent_candidate=True)
    for _ in range(iterations):
        with b.iteration():
            for i in range(3):
                b.task(f"acc{i}", inoutset=["s"], flops=1.0)
            b.task("r0", inp=["s"], flops=1.0)
            b.task("r1", inp=["s"], flops=1.0)
    return b.build()


ABCP = OptimizationSet.parse("abcp")


class TestStructuralSignature:
    def test_stable_across_builds(self):
        a = structural_signature(chain_program(), ABCP)
        b = structural_signature(chain_program(), ABCP)
        assert a == b

    def test_opts_change_the_key(self):
        prog = chain_program()
        assert structural_signature(prog, ABCP) != structural_signature(
            prog, OptimizationSet.parse("ab")
        )

    def test_structure_change_changes_the_key(self):
        assert structural_signature(chain_program(4), ABCP) != (
            structural_signature(chain_program(5), ABCP)
        )

    def test_shared_and_unshared_iteration_lists_hash_equal(self):
        """from_template shares spec lists; a content-equal program with
        per-iteration copies must produce the same key."""
        shared = chain_program(3, iterations=3)
        tpl = list(shared.iterations[0].tasks)
        unshared = Program(
            [
                IterationSpec(index=it.index, tasks=list(tpl))
                for it in shared.iterations
            ],
            persistent_candidate=True,
            name="chain",
        )
        assert structural_signature(shared, ABCP) == structural_signature(
            unshared, ABCP
        )


class TestCompileProgram:
    def test_chain_csr(self):
        c = compile_program(chain_program(3, iterations=1), OptimizationSet.parse("ab"))
        assert isinstance(c, CompiledTDG)
        assert c.n_tasks == 3
        assert c.n_edges == 2
        assert c.successors(0) == [1]
        assert c.successors(1) == [2]
        assert c.successors(2) == []
        assert c.indegree == [0, 1, 1]
        assert c.unique_edges() == {(0, 1), (1, 2)}

    def test_persistent_compiles_template_only(self):
        c = compile_program(chain_program(3, iterations=4), ABCP)
        assert c.persistent
        assert c.n_tasks == 3
        assert c.iteration == [0, 0, 0]

    def test_non_persistent_compiles_every_iteration(self):
        c = compile_program(
            chain_program(3, iterations=2, persistent=False),
            OptimizationSet.parse("ab"),
        )
        assert c.n_tasks == 6
        assert c.iteration == [0, 0, 0, 1, 1, 1]

    def test_stub_columns(self):
        c = compile_program(redirect_program(), ABCP)
        assert c.n_stubs == 1
        (stub,) = c.stub_tids
        assert c.spec_pos[stub] == -1
        assert c.stats.redirect_nodes == 1

    def test_iteration_costs_filled_with_cost_model(self):
        costs = DiscoveryCosts()
        c = compile_program(chain_program(3, iterations=3), ABCP, costs=costs)
        assert len(c.iteration_costs) == 3
        # Replay iterations only pay firstprivate copies.
        assert c.iteration_costs[1] == c.iteration_costs[2]
        assert 0 < c.iteration_costs[1] < c.iteration_costs[0]

    def test_replay_costs_column(self):
        costs = DiscoveryCosts()
        c = compile_program(redirect_program(), ABCP)
        rc = c.replay_costs(costs)
        assert len(rc) == c.n_tasks
        (stub,) = c.stub_tids
        assert rc[stub] == 0.0
        user = c.user_tids[0]
        assert rc[user] == pytest.approx(
            costs.c_replay + costs.c_fp_byte * c.fp_bytes[user]
        )

    def test_keep_graph_returns_live_views(self):
        c, graph = compile_program(
            chain_program(3, iterations=1), ABCP, keep_graph=True
        )
        assert graph.n_tasks == c.n_tasks
        assert [t.name for t in graph.tasks] == c.name

    def test_round_trip_dict(self):
        c = compile_program(redirect_program(), ABCP, costs=DiscoveryCosts())
        back = CompiledTDG.from_dict(c.to_dict())
        assert back.to_dict() == c.to_dict()

    def test_topo_order_is_derived_once_and_never_serialized(self):
        c = compile_program(redirect_program(), ABCP, costs=DiscoveryCosts())
        doc = c.to_dict()
        # r0 (tid 3) closes the acc group: its stub (tid 4) precedes it.
        assert c.successors(4) == [3, 5]
        assert c.topo_order == [0, 1, 2, 4, 3, 5]
        assert c.topo_order is c.topo_order
        assert c.to_dict() == doc
        assert "topo_order" not in doc
        assert CompiledTDG.from_dict(doc).topo_order == c.topo_order

    @pytest.mark.parametrize("opts", ["none", "abc", "abcp"])
    def test_shared_and_copied_specs_compile_equal(self, opts):
        """Footprints are normalized once per spec object: a from_template
        program and a copy with distinct but equal spec objects in every
        iteration compile to the same artifact, and every task's footprint
        bytes are its own spec's."""
        from repro.apps.lulesh import LuleshConfig, build_task_program

        shared = build_task_program(LuleshConfig(s=8, iterations=3, tpl=16))
        copied = Program(
            [
                IterationSpec(
                    index=it.index,
                    tasks=[dataclasses.replace(s) for s in it.tasks],
                )
                for it in shared.iterations
            ],
            persistent_candidate=shared.persistent_candidate,
            name=shared.name,
        )
        assert shared.iterations[0].tasks is shared.iterations[1].tasks
        opt_set = OptimizationSet.parse(opts)
        c = compile_program(shared, opt_set, costs=DiscoveryCosts())
        assert c.to_dict() == compile_program(
            copied, opt_set, costs=DiscoveryCosts()
        ).to_dict()
        for tid in c.user_tids:
            spec = shared.iterations[c.iteration[tid]].tasks[c.spec_pos[tid]]
            assert c.foot_bytes[tid] == sum(e[1] for e in spec.footprint)


class TestRuntimeSnapshotEquality:
    """The runtime's frozen artifact equals the static compile, field by
    field — the equality-by-construction contract."""

    def _run(self, prog, opts):
        rt = TaskRuntime(
            prog,
            RuntimeConfig(
                machine=tiny_test_machine(4), opts=OptimizationSet.parse(opts)
            ),
        )
        rt.run()
        return rt

    @pytest.mark.parametrize("make_prog", [chain_program, redirect_program])
    def test_persistent_snapshot_equals_static_compile(self, make_prog):
        rt = self._run(make_prog(), "abcp")
        static = compile_program(make_prog(), ABCP)
        assert rt.compiled().to_dict() == static.to_dict()

    def test_non_persistent_snapshot_equals_static_compile(self):
        # Non-overlapped mode: no task completes during discovery, so no
        # pruning — the exact precondition for static equality.
        prog = chain_program(4, iterations=2, persistent=False)
        rt = TaskRuntime(
            prog,
            RuntimeConfig(
                machine=tiny_test_machine(4),
                opts=OptimizationSet.parse("ab"),
                non_overlapped=True,
            ),
        )
        rt.run()
        static = compile_program(
            chain_program(4, iterations=2, persistent=False),
            OptimizationSet.parse("ab"),
        )
        assert rt.compiled().to_dict() == static.to_dict()

    def test_lulesh_snapshot_equality(self):
        from repro.apps.lulesh import LuleshConfig, build_task_program

        cfg = LuleshConfig(s=8, iterations=3, tpl=16)
        rt = self._run(build_task_program(cfg), "abcp")
        static = compile_program(build_task_program(cfg), ABCP)
        assert rt.compiled().to_dict() == static.to_dict()


class TestCompiledGraphCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        c = compile_program(chain_program(), ABCP)
        path = cache.put(c)
        assert path.is_file()
        assert cache.contains(c.key)
        got = cache.get(c.key)
        assert got is not None
        assert got.to_dict() == c.to_dict()

    def test_miss_returns_none(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert not cache.contains("0" * 64)

    def test_invalidate(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        c = compile_program(chain_program(), ABCP)
        cache.put(c)
        assert cache.invalidate(c.key)
        assert not cache.contains(c.key)
        assert not cache.invalidate(c.key)

    def test_len_and_keys(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        a = compile_program(chain_program(3), ABCP)
        b = compile_program(chain_program(5), ABCP)
        cache.put(a)
        cache.put(b)
        assert len(cache) == 2
        assert cache.keys() == sorted([a.key, b.key])

    def test_for_campaign_nests_under_cache_root(self, tmp_path):
        cache = CompiledGraphCache.for_campaign(tmp_path)
        assert cache.root == tmp_path / CompiledGraphCache.SUBDIR

    def test_stale_format_misses(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        c = compile_program(chain_program(), ABCP)
        path = cache.put(c)
        doc = path.read_text().replace(f'"format":{COMPILED_FORMAT}', '"format":0', 1)
        path.write_text(doc)
        assert cache.get(c.key) is None


class TestRuntimeCachePublication:
    def _config(self, opts="abcp"):
        return RuntimeConfig(
            machine=tiny_test_machine(4), opts=OptimizationSet.parse(opts)
        )

    def test_first_run_stores_second_hits(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        rt1 = TaskRuntime(chain_program(), self._config(), compiled_cache=cache)
        res1 = rt1.run()
        assert res1.extra["compiled_tdg"]["cache"] == "stored"
        assert len(cache) == 1

        rt2 = TaskRuntime(chain_program(), self._config(), compiled_cache=cache)
        res2 = rt2.run()
        assert res2.extra["compiled_tdg"]["cache"] == "hit"
        assert res2.extra["compiled_tdg"]["key"] == res1.extra["compiled_tdg"]["key"]
        assert len(cache) == 1

    def test_cached_artifact_equals_static_compile(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        rt = TaskRuntime(chain_program(), self._config(), compiled_cache=cache)
        rt.run()
        key = structural_signature(chain_program(), ABCP)
        assert cache.get(key).to_dict() == compile_program(
            chain_program(), ABCP
        ).to_dict()

    def test_no_cache_no_extra_key(self):
        rt = TaskRuntime(chain_program(), self._config())
        res = rt.run()
        assert "compiled_tdg" not in res.extra

    def test_non_persistent_run_does_not_publish(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        rt = TaskRuntime(
            chain_program(persistent=False), self._config("abc"),
            compiled_cache=cache,
        )
        res = rt.run()
        assert len(cache) == 0
        assert "compiled_tdg" not in res.extra
