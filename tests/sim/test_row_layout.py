"""What a task-table row holds: references to the program's data, not copies.

A row's ``footprint`` is its spec's own tuple, its successor list is the
empty tuple until its first out-edge, and its timestamps are unboxed
``array('d')`` slots.  These tests pin that layout on the DES (non-
persistent, persistent, offload) and on the static compile, check that a
footprint's entry shape (bare 2-tuples or annotated 3-tuples) changes no
output, and bound the traced bytes a row costs.
"""

import gc
import tracemalloc
from array import array
from dataclasses import asdict, replace

import pytest

from repro.accel import AcceleratorSpec
from repro.analysis.calibration import scaled_llvm, scaled_mpc, scaled_skylake
from repro.apps.lulesh import LuleshConfig, build_task_program
from repro.core.compiled import compile_program
from repro.core.program import IterationSpec, Program
from repro.core.task import AccessMode
from repro.runtime.runtime import TaskRuntime
from repro.sim.bus import InstrumentationBus
from repro.util.serde import canonical_json

MACHINE = scaled_skylake()
SMALL = LuleshConfig(s=8, iterations=2, tpl=16)


def user_specs(program, persistent):
    """The specs the rows of a run were created from, in tid order."""
    its = program.iterations[:1] if persistent else program.iterations
    return [s for it in its for s in it.tasks if not s.barrier]


def assert_row_layout(table, specs):
    users = [t for t in range(len(table)) if not table.is_stub[t]]
    assert len(users) == len(specs)
    for tid, spec in zip(users, specs):
        assert table.footprint[tid] is spec.footprint
    for succ_list in table.succs:
        # A list exists only once an edge was made; otherwise ``()``.
        assert (type(succ_list) is list and succ_list) or (
            type(succ_list) is tuple and succ_list == ()
        )
    assert any(type(s) is tuple for s in table.succs)
    for col in (table.started_at, table.completed_at):
        assert type(col) is array and col.typecode == "d"
        assert len(col) == len(table)


class TestRowsShareSpecData:
    @pytest.mark.parametrize("persistent", [False, True])
    def test_des_rows(self, persistent):
        cfg = (scaled_mpc(MACHINE, opts="abcp") if persistent
               else scaled_llvm(MACHINE))
        prog = build_task_program(SMALL, opt_a=cfg.opts.a)
        rt = TaskRuntime(prog, cfg)
        rt.run()
        assert rt.table.persistent == persistent
        assert_row_layout(rt.table, user_specs(prog, persistent))

    def test_offload_rows(self):
        cfg = replace(scaled_mpc(MACHINE, opts="abc"),
                      accelerator=AcceleratorSpec())
        prog = build_task_program(LuleshConfig(s=12, iterations=2, tpl=8),
                                  offload=True, opt_a=True)
        rt = TaskRuntime(prog, cfg)
        rt.run()
        assert rt.accelerator.stats.kernels > 0
        assert_row_layout(rt.table, user_specs(prog, False))

    @pytest.mark.parametrize("opts", ["abc", "abcp"])
    def test_compile_rows(self, opts):
        cfg = scaled_mpc(MACHINE, opts=opts)
        prog = build_task_program(SMALL, opt_a=cfg.opts.a)
        tables = []
        bus = InstrumentationBus()
        bus.subscribe("task_create", lambda table, *_: tables.append(table))
        compile_program(prog, cfg.opts, bus=bus)
        assert tables and all(t is tables[0] for t in tables)
        assert_row_layout(tables[0], user_specs(prog, opts == "abcp"))

    def test_redirect_tids_default_is_shared_empty_tuple(self):
        from repro.core.dependences import ResolutionResult

        assert ResolutionResult().redirect_tids == ()
        assert type(ResolutionResult().redirect_tids) is tuple


def reshape_footprints(program, annotate):
    """``program`` with every footprint entry as a bare ``(chunk, bytes)``
    pair, or annotated as ``(chunk, bytes, mode)`` (READWRITE where the
    entry had no mode); spec and task-list sharing are kept."""
    specs: dict[int, object] = {}
    lists: dict[int, list] = {}

    def entry(e):
        if not annotate:
            return (e[0], e[1])
        return (e[0], e[1], e[2] if len(e) > 2 else AccessMode.READWRITE)

    def spec(s):
        new = specs.get(id(s))
        if new is None:
            new = specs[id(s)] = replace(
                s, footprint=tuple(entry(e) for e in s.footprint))
        return new

    def tasks(ts):
        new = lists.get(id(ts))
        if new is None:
            new = lists[id(ts)] = [spec(s) for s in ts]
        return new

    return Program(
        [IterationSpec(index=it.index, tasks=tasks(it.tasks))
         for it in program.iterations],
        persistent_candidate=program.persistent_candidate,
        name=program.name,
    )


class TestEntryShapeChangesNothing:
    @pytest.mark.parametrize("opts", ["llvm", "abc", "abcp"])
    def test_des_and_compile(self, opts):
        cfg = (scaled_llvm(MACHINE) if opts == "llvm"
               else scaled_mpc(MACHINE, opts=opts))
        cfg = replace(cfg, trace=True)
        base = build_task_program(SMALL, opt_a=cfg.opts.a)
        bare = reshape_footprints(base, annotate=False)
        annotated = reshape_footprints(base, annotate=True)
        assert all(len(e) == 2 for s in user_specs(bare, False)
                   for e in s.footprint)
        assert all(len(e) == 3 for s in user_specs(annotated, False)
                   for e in s.footprint)
        runs = [TaskRuntime(p, cfg).run() for p in (bare, annotated)]
        assert runs[0].mem.bytes_dram > 0
        assert asdict(runs[0].mem) == asdict(runs[1].mem)
        assert (canonical_json(runs[0].to_dict())
                == canonical_json(runs[1].to_dict()))
        arts = [compile_program(p, cfg.opts) for p in (bare, annotated)]
        assert arts[0].key == arts[1].key
        assert arts[0].to_bytes() == arts[1].to_bytes()

    def test_offload(self):
        cfg = replace(scaled_mpc(MACHINE, opts="abc"),
                      accelerator=AcceleratorSpec())
        base = build_task_program(LuleshConfig(s=12, iterations=2, tpl=8),
                                  offload=True, opt_a=True)
        docs = []
        for annotate in (False, True):
            rt = TaskRuntime(reshape_footprints(base, annotate), cfg)
            res = rt.run()
            docs.append((canonical_json(res.to_dict()),
                         asdict(rt.accelerator.stats)))
        assert docs[0][1]["h2d_bytes"] > 0
        assert docs[0] == docs[1]


def table_bytes(s, tpl):
    """Traced bytes a finished non-persistent run's table keeps alive, and
    its row count.  The program is built before tracing starts, so data a
    row shares with its spec costs the row nothing."""
    cfg = scaled_llvm(MACHINE)
    prog = build_task_program(LuleshConfig(s=s, iterations=2, tpl=tpl))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rt = TaskRuntime(prog, cfg)
        rt.run()
        table = rt.table
        del rt
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return live, len(table)


class TestRowBudget:
    #: Marginal traced bytes per row.  The columns' own slots are ~165 B
    #: (one pointer or double per column); per-row copies of the spec's
    #: footprint, an empty list per row and two boxed floats made it ~380.
    BUDGET = 250

    def test_marginal_bytes_per_row(self):
        table_bytes(8, 16)  # warm-up: first-use allocations
        b1, n1 = table_bytes(8, 32)
        b2, n2 = table_bytes(8, 96)
        assert n2 > 2 * n1
        per_row = (b2 - b1) / (n2 - n1)
        assert per_row <= self.BUDGET, f"{per_row:.0f} B per table row"
