"""Unit tests for the fidelity ladder (repro.sim.tiers).

Covers the fidelity names, the analytic bounds structure, replay
scheduling policies, the unified RunResult shape, decoded artifacts
simulating like compiled ones, and the rejection paths (bodies,
accelerators, missing program, unknown fidelity, cyclic graphs).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.accel import AcceleratorSpec
from repro.core import OptimizationSet
from repro.core.compiled import CompiledTDG, compile_program
from repro.core.program import IterationSpec, Program, TaskSpec
from repro.core.task import DepMode
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig, TaskRuntime
from repro.sim.tiers import (
    FIDELITIES,
    _segment_spans,
    analytic,
    replay,
    simulate,
    tier_weights,
)
from repro.util.serde import canonical_json

FLOPS = 4000.0


def diamond_program() -> Program:
    """t0 -> (t1, t2) -> t3, classic fork-join diamond."""
    specs = [
        TaskSpec(name="t0", depends=((0, DepMode.OUT),), flops=FLOPS),
        TaskSpec(
            name="t1",
            depends=((0, DepMode.IN), (1, DepMode.OUT)),
            flops=FLOPS,
        ),
        TaskSpec(
            name="t2",
            depends=((0, DepMode.IN), (2, DepMode.OUT)),
            flops=FLOPS,
        ),
        TaskSpec(
            name="t3",
            depends=((1, DepMode.IN), (2, DepMode.IN)),
            flops=FLOPS,
        ),
    ]
    return Program([IterationSpec(index=0, tasks=specs)])


def chain_program(n: int = 16) -> Program:
    specs = [
        TaskSpec(name=f"c{i}", depends=((0, DepMode.INOUT),), flops=FLOPS)
        for i in range(n)
    ]
    return Program([IterationSpec(index=0, tasks=specs)])


def stub_chain_program(n: int = 16, flops: float = FLOPS) -> Program:
    """``r0 -> s0 -> r1 -> s1 -> ... -> r{n-1} -> s{n-1} -> z``.

    Each ``r_i`` reads ``a_{i-1}`` and opens an inoutset group on ``a_i``
    with a peer ``p_i``; the next reader closes the group, so under opt
    (c) every link runs through a redirect stub created while its reader
    resolves — the stub's tid is larger than the reader it feeds.
    """
    specs = []
    for i in range(n):
        reads = ((i - 1, DepMode.IN),) if i else ()
        specs.append(
            TaskSpec(
                name=f"r{i}",
                depends=reads + ((i, DepMode.INOUTSET),),
                flops=flops,
            )
        )
        specs.append(
            TaskSpec(name=f"p{i}", depends=((i, DepMode.INOUTSET),), flops=flops)
        )
    specs.append(
        TaskSpec(name="z", depends=((n - 1, DepMode.IN),), flops=flops)
    )
    return Program([IterationSpec(index=0, tasks=specs)])


def wide_program(n: int = 32) -> Program:
    specs = [
        TaskSpec(name=f"w{i}", depends=((i, DepMode.OUT),), flops=FLOPS)
        for i in range(n)
    ]
    return Program([IterationSpec(index=0, tasks=specs)])


def persistent_program(iters: int = 3) -> Program:
    specs = [
        TaskSpec(name=f"p{i}", depends=((i % 3, DepMode.INOUT),), flops=FLOPS)
        for i in range(9)
    ]
    return Program.from_template(specs, iters)


def empty_program() -> Program:
    return Program([IterationSpec(index=0, tasks=[])])


def single_task_program() -> Program:
    """One task and no edges."""
    return Program(
        [IterationSpec(index=0, tasks=[TaskSpec(name="one", flops=FLOPS)])]
    )


def taskwait_program() -> Program:
    """Three barrier segments with edges crossing each taskwait."""
    tw = TaskSpec(name="tw", barrier=True)
    specs = (
        list(diamond_program().iterations[0].tasks)
        + [tw]
        + list(chain_program(5).iterations[0].tasks)
        + [tw]
        + list(stub_chain_program(3).iterations[0].tasks)
        + list(wide_program(4).iterations[0].tasks)
    )
    return Program([IterationSpec(index=0, tasks=specs)])


def reference_segment_spans(
    compiled, weights: np.ndarray, *, with_depth: bool = False
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Per-segment (T₁, T∞), whole-graph T∞ and depth of *one* weight
    vector: a Python walk along ``topo_order``, one vector at a time —
    the reference for ``_segment_spans``'s numpy relaxation of three."""
    seg = compiled.segment
    n_seg = (max(seg) + 1) if seg else 1
    t1 = np.zeros(n_seg)
    np.add.at(t1, seg, weights)
    offsets, targets = compiled.succ_offsets, compiled.succ_targets
    n = compiled.n_tasks
    dist = [0.0] * n
    dist_g = [0.0] * n
    level = [1] * n if with_depth else None
    span = [0.0] * n_seg
    t_inf = 0.0
    wl = weights.tolist()
    for t in compiled.topo_order:
        st = seg[t]
        ft = dist[t] + wl[t]
        fg = dist_g[t] + wl[t]
        if ft > span[st]:
            span[st] = ft
        if fg > t_inf:
            t_inf = fg
        succ = targets[offsets[t]:offsets[t + 1]]
        for s in succ:
            if seg[s] == st and ft > dist[s]:
                dist[s] = ft
            if fg > dist_g[s]:
                dist_g[s] = fg
        if level is not None:
            nl = level[t] + 1
            for s in succ:
                if nl > level[s]:
                    level[s] = nl
    depth = max(level) if level else 0
    return t1, np.asarray(span), t_inf, depth


def assert_single_walk_matches_reference(compiled, cfg: RuntimeConfig) -> None:
    """The one relaxation equals three reference walks, bit for bit: on the
    tier's own weight vectors, and on three unrelated random ones (small
    programs often give the nominal and low vectors equal weights)."""
    tw = tier_weights(compiled, cfg)
    rng = np.random.default_rng(compiled.n_tasks)
    for vectors in (
        (tw.body + tw.mem_shared * cfg.threads, tw.body_lo, tw.body_hi),
        tuple(rng.random(compiled.n_tasks) for _ in range(3)),
    ):
        t1s, spans, t_inf, depth = _segment_spans(compiled, *vectors)
        for i, weights in enumerate(vectors):
            ref_t1, ref_span, ref_inf, ref_depth = reference_segment_spans(
                compiled, weights, with_depth=True
            )
            assert t1s[i].tobytes() == ref_t1.tobytes()
            assert spans[i].tobytes() == ref_span.tobytes()
            if i == 0:
                assert t_inf.hex() == ref_inf.hex()
                assert depth == ref_depth


def decoded(compiled):
    """``compiled`` read back from its file bytes: integer columns come
    back as narrow as ``<i1``."""
    return CompiledTDG.from_bytes(compiled.to_bytes(), compiled.key)


def config(threads: int = 4, **kw) -> RuntimeConfig:
    kw.setdefault("opts", OptimizationSet.parse("abc"))
    return RuntimeConfig(
        machine=tiny_test_machine(max(threads, 4)), n_threads=threads, **kw
    )


def compiled_for(program: Program, cfg: RuntimeConfig):
    return compile_program(program, cfg.opts, costs=cfg.discovery)


class TestRegistry:
    def test_fidelities_ladder(self):
        assert FIDELITIES == ("analytic", "replay", "des")

    def test_unknown_fidelity_rejected(self):
        prog = diamond_program()
        cfg = config()
        art = compiled_for(prog, cfg)
        with pytest.raises(ValueError, match="unknown fidelity 'exact'"):
            simulate(art, cfg, fidelity="exact", program=prog)
        with pytest.raises(ValueError, match="expected one of"):
            simulate(None, None, fidelity="")


class TestUnifiedResult:
    """Every tier emits the same RunResult shape, absences explicit."""

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_extra_contract(self, fidelity):
        prog = diamond_program()
        cfg = config()
        art = compiled_for(prog, cfg)
        res = simulate(art, cfg, fidelity=fidelity, program=prog)
        assert res.extra["fidelity"] == fidelity
        assert "bounds" in res.extra
        if fidelity == "analytic":
            assert isinstance(res.extra["bounds"], dict)
        else:
            assert res.extra["bounds"] is None
        assert res.n_threads == 4
        assert res.n_tasks == 4
        assert res.makespan > 0
        assert 0.0 < res.utilization <= 1.0

    @pytest.mark.parametrize("fidelity", ["analytic", "replay"])
    def test_cheap_tiers_reference_artifact(self, fidelity):
        prog = diamond_program()
        cfg = config()
        art = compiled_for(prog, cfg)
        res = simulate(art, cfg, fidelity=fidelity)
        meta = res.extra["compiled_tdg"]
        assert meta["key"] == art.key
        assert meta["n_tasks"] == art.n_tasks

    @pytest.mark.parametrize("fidelity", ["analytic", "replay"])
    @pytest.mark.parametrize(
        "make, opts",
        [
            (chain_program, "abc"),
            (stub_chain_program, "abc"),
            (taskwait_program, "abc"),
            (persistent_program, "abcp"),
            (empty_program, "abc"),
            (single_task_program, "abc"),
        ],
    )
    def test_decoded_artifact_simulates_bitwise(self, fidelity, make, opts):
        """A decoded artifact (narrow integer columns) simulates exactly
        like the compiled one it was encoded from."""
        cfg = config(opts=OptimizationSet.parse(opts))
        art = compiled_for(make(), cfg)
        back = decoded(art)
        assert back.to_dict() == art.to_dict()
        a = simulate(art, cfg, fidelity=fidelity)
        b = simulate(back, cfg, fidelity=fidelity)
        assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())

    @pytest.mark.parametrize("fidelity", ["analytic", "replay"])
    def test_persistent_artifact_compiled_without_costs(self, fidelity):
        """The artifact carries no cost model: one compiled without costs
        simulates bitwise like one compiled with them."""
        prog = persistent_program(3)
        cfg = config(opts=OptimizationSet.parse("abcp"))
        bare = compile_program(prog, cfg.opts)
        priced = compile_program(prog, cfg.opts, costs=cfg.discovery)
        assert bare.n_iterations == 3
        a = simulate(bare, cfg, fidelity=fidelity)
        b = simulate(priced, cfg, fidelity=fidelity)
        assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())
        assert a.n_tasks == 3 * bare.n_user_tasks

    def test_work_split_sums_to_total(self):
        prog = wide_program()
        cfg = config()
        art = compiled_for(prog, cfg)
        res = simulate(art, cfg, fidelity="replay")
        assert len(res.work) == cfg.threads
        assert res.work.sum() == pytest.approx(res.work[0] * cfg.threads)


class TestAnalytic:
    BOUND_KEYS = {
        "t1", "t_inf", "tn_lower", "tn_upper", "discovery_total",
        "discovery_lower", "makespan_lower", "makespan_upper", "depth",
        "avg_parallelism", "rounds",
    }

    def test_bounds_structure(self):
        prog = diamond_program()
        cfg = config()
        b = simulate(compiled_for(prog, cfg), cfg, fidelity="analytic").extra[
            "bounds"
        ]
        assert set(b) == self.BOUND_KEYS
        assert b["t1"] >= b["t_inf"] > 0
        assert b["tn_lower"] <= b["tn_upper"]
        assert b["makespan_lower"] <= b["makespan_upper"]
        assert b["avg_parallelism"] >= 1.0
        assert b["rounds"] == 1

    def test_shape_metrics(self):
        cfg = config()
        chain = simulate(
            compiled_for(chain_program(16), cfg), cfg, fidelity="analytic"
        ).extra["bounds"]
        wide = simulate(
            compiled_for(wide_program(16), cfg), cfg, fidelity="analytic"
        ).extra["bounds"]
        assert chain["depth"] == 16
        assert wide["depth"] == 1
        # A chain has no parallelism; 16 independent tasks have plenty.
        assert chain["avg_parallelism"] == pytest.approx(1.0)
        assert wide["avg_parallelism"] > 4.0
        # T_inf of the chain equals its T1 (every task is on the path).
        assert chain["t_inf"] == pytest.approx(chain["t1"])

        art = compiled_for(stub_chain_program(16), cfg)
        # Every stub feeds a reader created before it: tid order is not
        # topological, so the bounds must walk the artifact's topo order.
        assert art.n_stubs == 16
        assert all(s < t for t in art.stub_tids for s in art.successors(t))
        stub = simulate(art, cfg, fidelity="analytic").extra["bounds"]
        ref = simulate(
            compiled_for(chain_program(17), cfg), cfg, fidelity="analytic"
        ).extra["bounds"]
        # r0 -> s0 -> ... -> r15 -> s15 -> z: 17 user tasks, 16 stubs.
        assert stub["depth"] == 33
        assert stub["t_inf"] == pytest.approx(ref["t_inf"])

    @pytest.mark.parametrize(
        "make",
        [
            stub_chain_program,
            taskwait_program,
            diamond_program,
            persistent_program,
            empty_program,
            single_task_program,
        ],
    )
    @pytest.mark.parametrize("opts", ["ab", "abc", "abcp"])
    def test_single_walk_matches_per_vector_walks(self, make, opts):
        cfg = config(opts=OptimizationSet.parse(opts))
        art = compiled_for(make(), cfg)
        if make is taskwait_program:
            assert max(art.segment) == 2
        assert_single_walk_matches_reference(art, cfg)

    @pytest.mark.parametrize("decode", [False, True], ids=["compiled", "decoded"])
    def test_cycle_raises(self, decode):
        """c0 -> c1 -> c2 -> c1: the walk leaves c0's frontier and stalls."""
        cfg = config()
        art = dataclasses.replace(
            compiled_for(chain_program(3), cfg),
            succ_offsets=[0, 1, 2, 3],
            succ_targets=[1, 2, 1],
            indegree=[0, 2, 1],
        )
        if decode:
            art = decoded(art)
        with pytest.raises(ValueError, match="CSR graph contains a cycle"):
            analytic(art, cfg)

    def test_persistent_rounds(self):
        prog = persistent_program(3)
        cfg = config(opts=OptimizationSet.parse("abcp"))
        b = simulate(compiled_for(prog, cfg), cfg, fidelity="analytic").extra[
            "bounds"
        ]
        assert b["rounds"] == 3

    def test_more_threads_tighten_nothing_upward(self):
        prog = wide_program(32)
        cfg1, cfg8 = config(1), config(8)
        b1 = simulate(compiled_for(prog, cfg1), cfg1, fidelity="analytic")
        b8 = simulate(compiled_for(prog, cfg8), cfg8, fidelity="analytic")
        assert b8.extra["bounds"]["tn_lower"] <= b1.extra["bounds"]["tn_lower"]


class TestReplay:
    def test_completes_all_tasks(self):
        prog = persistent_program(3)
        cfg = config(opts=OptimizationSet.parse("abcp"))
        res = simulate(compiled_for(prog, cfg), cfg, fidelity="replay")
        assert res.n_tasks == 9 * 3

    def test_fifo_and_lifo_both_run(self):
        prog = diamond_program()
        for sched in ("lifo-df", "fifo-bf"):
            cfg = config(scheduler=sched)
            res = simulate(compiled_for(prog, cfg), cfg, fidelity="replay")
            assert res.n_tasks == 4
            assert res.makespan > 0

    def test_more_workers_no_slower(self):
        prog = wide_program(32)
        cfg = config(1)
        art = compiled_for(prog, cfg)
        m1 = replay(art, cfg, workers=1).makespan
        m8 = replay(art, cfg, workers=8).makespan
        assert m8 <= m1 + 1e-12

    def test_workers_override_reported(self):
        prog = diamond_program()
        cfg = config()
        res = replay(compiled_for(prog, cfg), cfg, workers=64)
        assert res.extra["replay_workers"] == 64

    def test_non_overlapped_serializes_discovery(self):
        prog = wide_program(16)
        cfg = config(non_overlapped=True)
        res = simulate(compiled_for(prog, cfg), cfg, fidelity="replay")
        d0, d1 = res.discovery_span
        e0, _ = res.execution_span
        assert d1 <= e0 + 1e-12
        assert res.discovery_busy == pytest.approx(d1 - d0)


class TestOrdering:
    """The ladder's defining invariant on a fixed graph."""

    @pytest.mark.parametrize(
        "make",
        [
            diamond_program,
            chain_program,
            wide_program,
            pytest.param(
                lambda: stub_chain_program(16, 4e5), id="stub_chain_program"
            ),
        ],
    )
    def test_analytic_brackets_replay_and_des(self, make):
        prog = make()
        cfg = config()
        art = compiled_for(prog, cfg)
        bounds = simulate(art, cfg, fidelity="analytic").extra["bounds"]
        rep = simulate(art, cfg, fidelity="replay").makespan
        des = simulate(art, cfg, fidelity="des", program=prog).makespan
        lo, hi = bounds["makespan_lower"], bounds["makespan_upper"]
        assert lo <= rep * (1 + 1e-9) and rep <= hi * (1 + 1e-9)
        assert lo <= des * (1 + 1e-9) and des <= hi * (1 + 1e-9)

    def test_infinite_workers_at_least_span(self):
        prog = diamond_program()
        cfg = config()
        art = compiled_for(prog, cfg)
        t_inf = simulate(art, cfg, fidelity="analytic").extra["bounds"]["t_inf"]
        ideal = replay(art, cfg, workers=4096)
        assert ideal.makespan >= t_inf - 1e-12


class TestRejections:
    def test_execute_bodies_rejected(self):
        prog = diamond_program()
        cfg = config(execute_bodies=True)
        art = compile_program(prog, cfg.opts, costs=cfg.discovery)
        for f in ("analytic", "replay"):
            with pytest.raises(ValueError, match="cannot execute task bodies"):
                simulate(art, cfg, fidelity=f)

    def test_accelerator_rejected(self):
        prog = diamond_program()
        cfg = config(accelerator=AcceleratorSpec())
        art = compile_program(prog, cfg.opts, costs=cfg.discovery)
        for f in ("analytic", "replay"):
            with pytest.raises(ValueError, match="does not model accelerators"):
                simulate(art, cfg, fidelity=f)

    def test_des_requires_program(self):
        prog = diamond_program()
        cfg = config()
        art = compiled_for(prog, cfg)
        with pytest.raises(ValueError, match="pass program="):
            simulate(art, cfg, fidelity="des")


class TestTierWeights:
    def test_stub_rows_are_zero(self):
        # inoutset groups close through stub tasks.
        specs = [
            TaskSpec(
                name=f"g{i}", depends=((0, DepMode.INOUTSET),), flops=FLOPS
            )
            for i in range(4)
        ] + [TaskSpec(name="read", depends=((0, DepMode.IN),), flops=FLOPS)]
        prog = Program([IterationSpec(index=0, tasks=specs)])
        cfg = config()
        art = compiled_for(prog, cfg)
        tw = tier_weights(art, cfg)
        assert art.n_stubs > 0
        for tid in art.stub_tids:
            assert tw.body[tid] == 0.0
            assert tw.creation[tid] == 0.0
            assert tw.replay[tid] == 0.0

    def test_body_bracket(self):
        prog = diamond_program()
        cfg = config()
        art = compiled_for(prog, cfg)
        tw = tier_weights(art, cfg)
        w = cfg.threads
        assert (tw.body_lo <= tw.body + tw.mem_shared * w + 1e-15).all()
        assert (tw.body + tw.mem_shared * w <= tw.body_hi + 1e-15).all()
        assert (tw.creation_lo <= tw.creation + 1e-15).all()

    def test_des_agrees_with_tier_makespan_on_trivial_chain(self):
        # On a 1-thread chain with abc opts both models are exact: same
        # creation costs, same bodies, fully serial.
        prog = chain_program(8)
        cfg = config(1)
        art = compiled_for(prog, cfg)
        rep = simulate(art, cfg, fidelity="replay").makespan
        des = TaskRuntime(prog, cfg).run().makespan
        assert rep == pytest.approx(des, rel=0.02)
