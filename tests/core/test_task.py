"""Unit tests for the task model: a task is one row of a TaskTable."""

import math

import pytest

from repro.core.task import AccessMode, DepMode, split_footprint
from repro.sim.table import COMPLETED, CREATED, TaskTable


class TestTaskBasics:
    def test_initial_state(self):
        t = TaskTable()
        tid = t.new("t")
        assert t.state[tid] == CREATED
        assert t.npred[tid] == 0
        assert list(t.succs[tid]) == []
        assert not t.armed[tid]

    def test_identity_fields(self):
        t = TaskTable()
        t.new("first")
        tid = t.new("kernel", loop_id=3, iteration=2, flops=10.0, fp_bytes=64)
        assert tid == 1
        assert t.name[tid] == "kernel"
        assert t.loop_id[tid] == 3
        assert t.iteration[tid] == 2
        assert t.flops[tid] == 10.0
        assert t.fp_bytes[tid] == 64

    def test_footprint_is_tuple(self):
        t = TaskTable()
        tid = t.new(footprint=[(1, 100), (2, 200)])
        assert t.footprint[tid] == ((1, 100), (2, 200))

    def test_timestamps_start_nan(self):
        t = TaskTable()
        tid = t.new()
        assert math.isnan(t.started_at[tid])
        assert math.isnan(t.completed_at[tid])


class TestReplayReset:
    def test_reset_restores_npred(self):
        t = TaskTable(persistent=True)
        tid = t.new()
        t.npred_initial[tid] = 5
        t.npred[tid] = 0
        t.state[tid] = COMPLETED
        t.armed[tid] = True
        t.started_at[tid] = 1.0
        t.completed_at[tid] = 2.0
        t.reset_for_replay()
        assert t.npred[tid] == 5
        assert t.state[tid] == CREATED
        assert not t.armed[tid]
        assert math.isnan(t.started_at[tid])
        assert math.isnan(t.completed_at[tid])

    def test_reset_keeps_successors(self):
        t = TaskTable(persistent=True)
        a, b = t.new(), t.new()
        t.add_edge(a, b, dedup=False)
        t.reset_for_replay()
        assert t.succs[a] == [b]


class TestDepMode:
    def test_modes_distinct(self):
        assert len({DepMode.IN, DepMode.OUT, DepMode.INOUT, DepMode.INOUTSET}) == 4

    def test_mode_values_stable(self):
        # Stable integer values: tests and traces may persist them.
        assert DepMode.IN == 0
        assert DepMode.OUT == 1
        assert DepMode.INOUT == 2
        assert DepMode.INOUTSET == 3


def reference_split_footprint(footprint):
    """``split_footprint`` as first written: one ``AccessMode`` call per
    annotated entry, member or not."""
    chunks, modes = [], []
    for entry in footprint:
        if len(entry) == 2:
            cid, nbytes = entry
            mode = AccessMode.READWRITE
        else:
            cid, nbytes, mode = entry
            mode = AccessMode(mode)
        chunks.append((cid, nbytes))
        modes.append(mode)
    return tuple(chunks), tuple(modes)


class TestSplitFootprint:
    def test_int_modes_convert(self):
        chunks, modes = split_footprint([(1, 8, 0), (2, 16, 1), (3, 4, 2), (4, 2)])
        assert chunks == ((1, 8), (2, 16), (3, 4), (4, 2))
        assert modes == (AccessMode.READ, AccessMode.WRITE,
                         AccessMode.READWRITE, AccessMode.READWRITE)
        assert all(type(m) is AccessMode for m in modes)

    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError):
            split_footprint([(1, 8, AccessMode.READ), (2, 8, 7)])

    def test_equals_reference_on_a_lulesh_template(self):
        from repro.apps.lulesh import LuleshConfig, build_task_program
        from repro.cluster.mapping import RankGrid

        prog = build_task_program(
            LuleshConfig(s=8, iterations=1, tpl=16),
            neighbors=RankGrid.cubic(27).neighbors(13),
        )
        for spec in prog.iterations[0].tasks:
            got = split_footprint(spec.footprint)
            assert got == reference_split_footprint(spec.footprint)
            assert all(type(m) is AccessMode for m in got[1])
