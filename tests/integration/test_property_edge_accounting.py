"""Property: edge accounting identities hold for any program/optimization.

For any discovery run, every resolved precedence constraint lands in
exactly one bucket — created, pruned, or duplicate-skipped — and the npred
sum matches the created in-edge count (with persistent pre-satisfied edges
accounted separately)."""

from hypothesis import given, settings, strategies as st

from repro.core import OptimizationSet
from repro.core.program import IterationSpec, Program, TaskSpec
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig, TaskRuntime
from tests.strategies import program_shape

shapes = program_shape(n_addrs=4, max_deps=4, max_tasks=20)


def discover(shape, opts, persistent=False):
    specs = [TaskSpec(name=f"t{i}", depends=tuple(d)) for i, d in enumerate(shape)]
    prog = Program(
        [IterationSpec(index=0, tasks=specs)],
        persistent_candidate=persistent,
    )
    rt = TaskRuntime(
        prog,
        RuntimeConfig(
            machine=tiny_test_machine(2),
            opts=OptimizationSet.parse(opts),
            non_overlapped=not persistent,
        ),
    )
    rt.run()
    return rt


class TestEdgeAccounting:
    @settings(max_examples=60, deadline=None)
    @given(shape=shapes, opts=st.sampled_from(["", "b", "c", "bc", "abc"]))
    def test_npred_initial_matches_in_edges(self, shape, opts):
        tb = discover(shape, opts).table
        in_edges = [0] * len(tb)
        for _, succ in tb.iter_edges():
            in_edges[succ] += 1
        for tid in range(len(tb)):
            if tb.is_stub[tid]:
                continue
            # Non-overlapped: nothing completes during discovery, so
            # npred_initial must equal the materialized in-edges exactly.
            assert tb.npred_initial[tid] == in_edges[tid]

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, opts=st.sampled_from(["", "b", "c", "bc"]))
    def test_successor_list_lengths_match_created(self, shape, opts):
        tb = discover(shape, opts).table
        total_out = sum(len(succs) for succs in tb.succs)
        assert total_out == tb.stats.created

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes)
    def test_dedup_only_removes_duplicates(self, shape):
        """(b) must not change the set of distinct edges, only multiplicity."""
        tb_nb = discover(shape, "").table
        tb_b = discover(shape, "b").table
        assert set(tb_nb.iter_edges()) == set(tb_b.iter_edges())
        assert tb_b.stats.created + tb_b.stats.duplicates_skipped \
            == tb_nb.stats.created

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes)
    def test_persistent_discovery_never_prunes(self, shape):
        rt = discover(shape, "p", persistent=True)
        assert rt.table.stats.pruned == 0
