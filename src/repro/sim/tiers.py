"""The fidelity ladder: three fidelities over one :class:`CompiledTDG`.

The paper's headline phenomena — discovery-bound makespan vs TPL, the
persistent-graph replay win, METG — are graph-shape effects, and the
compiled CSR artifact freezes that shape.  This module runs experiments
*directly on the artifact* at three fidelities, all emitting the same
:class:`~repro.runtime.result.RunResult`:

``analytic`` (:func:`analytic`)
    Work/span bounds from one walk over the CSR: T₁, T∞, the Brent
    bounds ``max(T₁/N, T∞) ≤ TN ≤ T₁/N + T∞`` per barrier segment, plus
    the serial-producer discovery limit.  No events at all; the reported
    makespan is the nominal lower Brent bound and ``extra["bounds"]``
    carries certified lower/upper brackets.

``replay`` (:func:`replay`)
    A list-scheduling simulator (LIFO depth-first or FIFO, matching
    :attr:`RuntimeConfig.scheduler`) that replays the frozen graph with
    per-task costs stamped from the cost model — no program walk, no
    dependence resolution, no event-queue engine.  The producer is
    modeled as a clock advancing by the exact per-task creation costs
    stored in the artifact's discovery columns, joining the workers at
    taskwait/barrier waits just like the DES producer.

``des``
    The reference :class:`~repro.runtime.runtime.TaskRuntime` run on
    the source ``Program``.

:func:`simulate` picks a rung by name.

Deliberate model reductions at the cheap tiers (all absorbed by the
cross-check tolerance, see :mod:`repro.campaign.crosscheck`): task body
memory time is ``fp_bytes / dram_bw`` instead of the dynamic cache
hierarchy; the replay ready-pool is one shared stack/queue instead of
per-worker deques; throttling never pauses the producer; edge pruning
(overlapped non-persistent runs) is ignored, so discovery costs match
the static compile exactly.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.graph_stats import EdgeStats
from repro.memory.hierarchy import MemCounters
from repro.runtime.result import RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compiled import CompiledTDG
    from repro.core.program import Program
    from repro.runtime.runtime import RuntimeConfig

#: The fidelity ladder, cheapest first.  ``des`` is the reference.
FIDELITIES = ("analytic", "replay", "des")


# ======================================================================
# shared per-task weights
# ======================================================================
@dataclass(frozen=True)
class TierWeights:
    """Static per-task seconds, aligned by tid (stubs all-zero).

    ``body`` is the nominal task duration (flops at peak rate, footprint
    at unshared DRAM bandwidth, c_post for comm posts); ``body_lo`` /
    ``body_hi`` bracket what the DES memory hierarchy can charge (all
    bytes from L1 vs. all bytes from DRAM shared by every worker, plus
    worst-case scheduler overheads).  ``creation`` and ``replay`` are
    the exact producer-side costs from the artifact's discovery columns.
    """

    #: Static body seconds: compute + c_post + unshared memory service.
    body: np.ndarray
    #: Per-DRAM-sharer memory seconds (all-zero when the working set
    #: fits in cache; the replay tier multiplies by the live task count,
    #: the analytic tier by the thread count).
    mem_shared: np.ndarray
    body_lo: np.ndarray
    body_hi: np.ndarray
    #: Consumer-side overhead per executed task (pop + complete + release).
    overhead: np.ndarray
    creation: np.ndarray
    #: Lower-bound creation cost: prunable edges at their skip price.
    creation_lo: np.ndarray
    replay: np.ndarray


def tier_weights(compiled: "CompiledTDG", config: "RuntimeConfig") -> TierWeights:
    """Stamp the cost model onto the artifact's columns.

    Task memory time follows the DES hierarchy's envelope without its
    per-line state: the whole-graph working set picks the cache level
    that serves steady-state traffic — L1/L2/L3 service is unshared,
    DRAM service divides the bandwidth among concurrent tasks (the DES
    ``dram_sharers`` rule).
    """
    m = config.machine
    w = config.threads
    disc, sched = config.discovery, config.sched
    flops = np.asarray(compiled.flops, dtype=float)
    foot = np.asarray(compiled.foot_bytes, dtype=float)
    stub = np.asarray(compiled.is_stub, dtype=bool)
    comm = np.asarray(compiled.comm_kind, dtype=int) >= 0
    outdeg = np.diff(np.asarray(compiled.succ_offsets, dtype=float))

    compute = flops / m.flops_per_core + comm * sched.c_post
    ws = compiled.distinct_foot_bytes
    if ws <= m.l1_bytes:
        eff_bw, dram = m.l1_bw, False
    elif ws <= m.l2_bytes:
        eff_bw, dram = m.l2_bw, False
    elif ws <= m.l3_bytes:
        eff_bw, dram = m.l3_bw, False
    else:
        eff_bw, dram = m.dram_bw, True
    if dram:
        body = compute.copy()
        mem_shared = foot / m.dram_bw
    else:
        body = compute + foot / eff_bw
        mem_shared = np.zeros_like(foot)
    body_lo = compute + foot / m.l1_bw
    # Worst case: every byte walks the full hierarchy and DRAM is shared
    # by all threads (stall cycles never enter DES time, only counters).
    body_hi = compute + foot * (
        1.0 / m.l1_bw + 1.0 / m.l2_bw + 1.0 / m.l3_bw + w / m.dram_bw
    )
    overhead = (
        sched.c_pop + sched.c_complete + sched.c_release * outdeg
    ) * np.ones_like(body)
    ovh_hi = (
        sched.c_steal
        + sched.c_contention * w
        + sched.c_complete
        + sched.c_release * outdeg
    )
    body_hi = body_hi + ovh_hi
    for arr in (body, mem_shared, body_lo, body_hi, overhead):
        arr[stub] = 0.0

    addrs = np.asarray(compiled.disc_addrs, dtype=float)
    edges = np.asarray(compiled.disc_edges, dtype=float)
    skips = np.asarray(compiled.disc_skips, dtype=float)
    redirects = np.asarray(compiled.disc_redirects, dtype=float)
    creation = (
        disc.c_task
        + disc.c_dep * addrs
        + disc.c_edge * edges
        + disc.c_edge_skip * skips
        + disc.c_redirect * redirects
    )
    creation_lo = (
        disc.c_task
        + disc.c_dep * addrs
        + min(disc.c_edge, disc.c_edge_skip) * edges
        + disc.c_edge_skip * skips
        + disc.c_redirect * redirects
    )
    replay_cost = disc.c_replay + disc.c_fp_byte * np.asarray(
        compiled.fp_bytes, dtype=float
    )
    for arr in (creation, creation_lo, replay_cost):
        arr[stub] = 0.0
    return TierWeights(
        body=body,
        mem_shared=mem_shared,
        body_lo=body_lo,
        body_hi=body_hi,
        overhead=overhead,
        creation=creation,
        creation_lo=creation_lo,
        replay=replay_cost,
    )


def _rounds(compiled: "CompiledTDG") -> int:
    """How many times the graph executes (persistent = once per iteration)."""
    return compiled.n_iterations if compiled.persistent else 1


def _check_supported(config: "RuntimeConfig", fidelity: str) -> None:
    if config.execute_bodies:
        raise ValueError(
            f"fidelity {fidelity!r} cannot execute task bodies; "
            "use fidelity='des' for numeric validation runs"
        )
    if config.accelerator is not None:
        raise ValueError(
            f"fidelity {fidelity!r} does not model accelerators; "
            "use fidelity='des'"
        )


def _result(
    *,
    config: "RuntimeConfig",
    compiled: "CompiledTDG",
    fidelity: str,
    makespan: float,
    discovery_busy: float,
    discovery_span: tuple[float, float],
    execution_span: tuple[float, float],
    work_total: float,
    overhead_total: float,
    n_tasks: int,
    bounds: Optional[dict],
    extra: Optional[dict] = None,
) -> RunResult:
    """Assemble the unified result: absent fields explicit, not missing."""
    w = config.threads
    stats = EdgeStats()
    stats.merge(compiled.stats)
    full_extra = {
        "fidelity": fidelity,
        "bounds": bounds,
        "scheduler": None,  # per-worker pop/steal stats are DES-only
        "compiled_tdg": {"key": compiled.key, "n_tasks": compiled.n_tasks},
    }
    if extra:
        full_extra.update(extra)
    return RunResult(
        name=config.name,
        n_threads=w,
        makespan=float(makespan),
        discovery_busy=float(discovery_busy),
        discovery_span=discovery_span,
        execution_span=execution_span,
        # The cheap tiers do not attribute time to individual threads;
        # totals are exact, the per-thread split is uniform by design.
        work=np.full(w, work_total / w),
        overhead=np.full(w, overhead_total / w),
        n_tasks=n_tasks,
        edges=stats,
        mem=MemCounters(),  # explicit zeros: no memory model at this tier
        trace=None,
        comm=[],
        extra=full_extra,
    )


# ======================================================================
# analytic tier
# ======================================================================
def _segment_spans(
    compiled: "CompiledTDG",
    w_nom: np.ndarray,
    w_lo: np.ndarray,
    w_hi: np.ndarray,
) -> tuple[list[np.ndarray], list[np.ndarray], float, int]:
    """Per-segment T₁ and T∞ of three weight vectors, plus the nominal
    whole-graph critical path and the depth, in one walk.

    Returns ``([t1_nom, t1_lo, t1_hi], [span_nom, span_lo, span_hi],
    t_inf, depth)``.  The spans come from one forward relaxation over the
    CSR along :attr:`~repro.core.compiled.CompiledTDG.topo_order` — tid
    order is not topological, because an opt-(c) redirect stub is
    created after the reader it feeds.  Segment spans only follow
    intra-segment edges (taskwait barriers already serialize
    cross-segment work); ``t_inf`` follows every edge under ``w_nom``;
    the depth is the longest path in tasks.  Each vector's maxima and
    additions are the ones a walk of that vector alone would make, so
    the results do not depend on the fusion.
    """
    seg = compiled.segment
    n_seg = (max(seg) + 1) if seg else 1
    t1s = []
    for weights in (w_nom, w_lo, w_hi):
        t1 = np.zeros(n_seg)
        np.add.at(t1, seg, weights)
        t1s.append(t1)
    offsets, targets = compiled.succ_offsets, compiled.succ_targets
    n = compiled.n_tasks
    # Finish times along intra-segment paths, per vector, and along any
    # path under the nominal vector.
    d_nom = [0.0] * n
    d_lo = [0.0] * n
    d_hi = [0.0] * n
    d_all = [0.0] * n
    level = [1] * n
    s_nom = [0.0] * n_seg
    s_lo = [0.0] * n_seg
    s_hi = [0.0] * n_seg
    t_inf = 0.0
    wn, wl, wh = w_nom.tolist(), w_lo.tolist(), w_hi.tolist()
    for t in compiled.topo_order:
        st = seg[t]
        f_nom = d_nom[t] + wn[t]
        f_lo = d_lo[t] + wl[t]
        f_hi = d_hi[t] + wh[t]
        f_all = d_all[t] + wn[t]
        if f_nom > s_nom[st]:
            s_nom[st] = f_nom
        if f_lo > s_lo[st]:
            s_lo[st] = f_lo
        if f_hi > s_hi[st]:
            s_hi[st] = f_hi
        if f_all > t_inf:
            t_inf = f_all
        nl = level[t] + 1
        for s in targets[offsets[t]:offsets[t + 1]]:
            if seg[s] == st:
                if f_nom > d_nom[s]:
                    d_nom[s] = f_nom
                if f_lo > d_lo[s]:
                    d_lo[s] = f_lo
                if f_hi > d_hi[s]:
                    d_hi[s] = f_hi
            if f_all > d_all[s]:
                d_all[s] = f_all
            if nl > level[s]:
                level[s] = nl
    depth = max(level) if level else 0
    spans = [np.asarray(s_nom), np.asarray(s_lo), np.asarray(s_hi)]
    return t1s, spans, t_inf, depth


def analytic(compiled: "CompiledTDG", config: "RuntimeConfig") -> RunResult:
    """Work/span bounds over the CSR — no events, microseconds to run."""
    _check_supported(config, "analytic")
    w = config.threads
    tw = tier_weights(compiled, config)
    rounds = _rounds(compiled)

    # Nominal weights: shared DRAM at full thread contention (the
    # memory-bound steady state); T1/N then reads "all bytes at
    # aggregate DRAM bandwidth".
    body_nom = tw.body + tw.mem_shared * w
    (
        (t1_seg, t1_lo_seg, t1_hi_seg),
        (span_seg, span_lo_seg, span_hi_seg),
        t_inf_graph,
        depth,
    ) = _segment_spans(compiled, body_nom, tw.body_lo, tw.body_hi)

    t1 = float(t1_seg.sum()) * rounds
    t_inf = max(t_inf_graph, float(span_seg.sum())) * rounds
    t1_lo = float(t1_lo_seg.sum()) * rounds
    t_inf_lo = float(span_lo_seg.sum()) * rounds

    creation_total = float(tw.creation.sum())
    replay_total = float(tw.replay.sum())
    disc_total = creation_total + replay_total * (rounds - 1)
    # Overlapped non-persistent discovery may prune edges the static
    # compile materialized; the certified lower bound charges each
    # materialized/skipped edge at the cheapest outcome.
    if compiled.persistent or config.non_overlapped or rounds > 1:
        disc_lo = disc_total
    else:
        disc_lo = float(tw.creation_lo.sum())

    tn_lower = max(t1 / w, t_inf)
    tn_upper = t1 / w + t_inf
    lower = max(t1_lo / w, t_inf_lo, disc_lo)
    # Greedy (Brent) bound per segment with the producer occupying a
    # thread until its walk ends, discovery fully serialized before
    # execution — loose but certified-above for every engine mode.
    w_exec = max(1, w - 1)
    upper = disc_total + (
        float(t1_hi_seg.sum()) / w_exec + float(span_hi_seg.sum())
    ) * rounds
    makespan = disc_total + tn_lower if config.non_overlapped else max(
        tn_lower, disc_total
    )

    bounds = {
        "t1": t1,
        "t_inf": t_inf,
        "tn_lower": tn_lower,
        "tn_upper": tn_upper,
        "discovery_total": disc_total,
        "discovery_lower": disc_lo,
        "makespan_lower": lower,
        "makespan_upper": upper,
        "depth": depth,
        "avg_parallelism": (t1 / t_inf) if t_inf > 0 else 1.0,
        "rounds": rounds,
    }
    return _result(
        config=config,
        compiled=compiled,
        fidelity="analytic",
        makespan=makespan,
        discovery_busy=disc_total,
        discovery_span=(0.0, disc_total),
        execution_span=(0.0, makespan),
        work_total=t1,
        overhead_total=float(tw.overhead.sum()) * rounds,
        n_tasks=compiled.n_user_tasks * rounds,
        bounds=bounds,
    )


# ======================================================================
# replay tier
# ======================================================================
def replay(
    compiled: "CompiledTDG",
    config: "RuntimeConfig",
    *,
    workers: Optional[int] = None,
) -> RunResult:
    """List-scheduling replay of the frozen graph.

    The producer is a clock: submission times are the running sum of the
    per-task creation (round 0) or replay (later persistent rounds)
    costs; it parks at taskwait/segment boundaries until every armed
    task completed — helping as a worker while it waits — exactly the
    DES producer's state machine, minus throttling.  Workers are an
    anonymous pool of ``N`` (or ``N-1`` while the producer is busy):
    durations are static, so worker identity carries no state.

    ``workers`` replaces the config's thread count (the property tests'
    ``replay(N=∞)`` ideal schedule uses it).
    """
    _check_supported(config, "replay")
    w = workers or config.threads
    tw = tier_weights(compiled, config)
    rounds = _rounds(compiled)
    lifo = config.scheduler != "fifo-bf"

    n = compiled.n_tasks
    indeg0 = compiled.indegree
    offsets, targets = compiled.succ_offsets, compiled.succ_targets
    is_stub = compiled.is_stub
    seg = compiled.segment
    body = tw.body.tolist()
    ovh = tw.overhead.tolist()
    mem = tw.mem_shared.tolist() if tw.mem_shared.any() else None
    creation = tw.creation.tolist()
    replay_cost = tw.replay.tolist()
    user = compiled.user_tids
    stubs = compiled.stub_tids

    makespan = 0.0
    disc_busy = 0.0
    disc_last = 0.0
    exec_first = float("inf")
    exec_last = 0.0
    completed_user = 0
    work_total = 0.0

    # Overlapped non-persistent discovery prunes edges whose
    # predecessor already completed: the DES resolver folds them
    # into the skip count (charged c_edge_skip) and never
    # materializes the edge.  At submission time ``indegree -
    # npred`` is exactly that count, so the walk re-prices each
    # task's creation on the fly.  Persistent and non-overlapped
    # discovery never prune (nothing completes during the template
    # walk / behind the gate), matching the artifact.
    disc = config.discovery
    prune_delta = (
        0.0
        if compiled.persistent or config.non_overlapped
        else disc.c_edge - disc.c_edge_skip
    )

    t = 0.0
    for rnd in range(rounds):
        if rnd == 0:
            # First discovery: every tid (stubs armed by their
            # creator at zero cost, in creation order).
            walk = list(range(n))
            cost = creation
            prearm: list[int] = []
        else:
            # Persistent replay: stubs re-arm wholesale at the
            # barrier, the producer re-instances user tasks only.
            walk = user
            cost = replay_cost
            prearm = stubs
        t, stats = _run_round(
            t0=t,
            walk=walk,
            cost=cost,
            prearm=prearm,
            npred0=indeg0,
            offsets=offsets,
            targets=targets,
            is_stub=is_stub,
            seg=seg,
            body=body,
            ovh=ovh,
            mem=mem,
            mem_cap=config.machine.n_cores,
            workers=w,
            lifo=lifo,
            non_overlapped=config.non_overlapped,
            prune_delta=prune_delta if rnd == 0 else 0.0,
        )
        disc_busy += stats["disc_busy"]
        disc_last = stats["disc_last"]
        exec_first = min(exec_first, stats["exec_first"])
        exec_last = max(exec_last, stats["exec_last"])
        completed_user += stats["completed_user"]
        work_total += stats["work"]
        makespan = t

    ovh_round = float(tw.overhead.sum())
    if exec_first == float("inf"):
        exec_first = 0.0
    return _result(
        config=config,
        compiled=compiled,
        fidelity="replay",
        makespan=makespan,
        discovery_busy=disc_busy,
        discovery_span=(0.0, disc_last),
        execution_span=(exec_first, exec_last),
        work_total=work_total,
        overhead_total=ovh_round * rounds,
        n_tasks=completed_user,
        bounds=None,
        extra={"replay_workers": w},
    )


def _run_round(
    *,
    t0: float,
    walk: list,
    cost: list,
    prearm: list,
    npred0: list,
    offsets: list,
    targets: list,
    is_stub: list,
    seg: list,
    body: list,
    ovh: list,
    mem: Optional[list],
    mem_cap: int,
    workers: int,
    lifo: bool,
    non_overlapped: bool,
    prune_delta: float = 0.0,
) -> tuple[float, dict]:
    """One pass of the graph: producer walk + list schedule, merged.

    Returns (round end time, stats).  State is per-round: the implicit
    end-of-round barrier guarantees nothing crosses.  ``prune_delta``
    (c_edge - c_prune) re-prices already-satisfied edges at submission
    time, mirroring the DES resolver's pruning.
    """
    npred = list(npred0)
    armed = bytearray(len(npred))
    ready: deque = deque()
    push = ready.append
    pop = ready.pop if lifo else ready.popleft
    heap: list[tuple[float, int]] = []
    free = workers - 1 if workers > 1 else 0
    alive = 0
    completed = 0
    completed_user = 0
    target = len(walk) + len(prearm)
    disc_busy = 0.0
    disc_last = t0
    exec_first = float("inf")
    exec_last = t0
    work = 0.0
    now = t0

    def complete(tid: int, at: float) -> None:
        nonlocal alive, completed, completed_user, exec_last
        completed += 1
        alive -= 1
        if not is_stub[tid]:
            completed_user += 1
            if at > exec_last:
                exec_last = at
        for s in targets[offsets[tid]:offsets[tid + 1]]:
            npred[s] -= 1
            if npred[s] == 0 and armed[s]:
                if is_stub[s]:
                    complete(s, at)
                else:
                    push(s)

    def arm(tid: int, at: float) -> None:
        nonlocal alive
        armed[tid] = True
        alive += 1
        if npred[tid] == 0:
            if is_stub[tid]:
                complete(tid, at)
            else:
                push(tid)

    for tid in prearm:
        arm(tid, now)

    def arm_cost(tid: int) -> float:
        # Re-price already-satisfied (prunable) edges at submission time.
        if prune_delta:
            return cost[tid] - (npred0[tid] - npred[tid]) * prune_delta
        return cost[tid]

    if non_overlapped:
        # Gate closed: the full walk happens before any execution.
        for tid in walk:
            c = cost[tid]
            disc_busy += c
            now += c
            arm(tid, now)
        disc_last = now
        free = workers
    idx = 0
    n_walk = 0 if non_overlapped else len(walk)
    cur_seg = seg[walk[0]] if n_walk else -1
    p_busy = n_walk > 0  # producer mid-submission
    pending = arm_cost(walk[0]) if p_busy else 0.0
    next_arm = t0 + pending if p_busy else float("inf")

    while completed < target or heap:
        # Fill free workers from the ready pool.
        while free > 0 and ready:
            tid = pop()
            if now < exec_first:
                exec_first = now
            b = body[tid]
            if mem is not None:
                # Shared DRAM: the DES hierarchy divides bandwidth by
                # the number of cores concurrently running bodies.
                k = len(heap) + 1
                b += mem[tid] * (k if k < mem_cap else mem_cap)
            work += b
            heapq.heappush(heap, (now + b + ovh[tid], tid))
            free -= 1
        if p_busy and next_arm <= (heap[0][0] if heap else float("inf")):
            now = next_arm
            disc_busy += pending
            disc_last = now
            arm(walk[idx], now)
            idx += 1
            if idx >= n_walk:
                # Walk done: the producer joins the pool for good.
                p_busy = False
                free += 1
            elif seg[walk[idx]] != cur_seg:
                if alive == 0:
                    # Already quiescent: cross the barrier immediately.
                    cur_seg = seg[walk[idx]]
                    pending = arm_cost(walk[idx])
                    next_arm = now + pending
                else:
                    # Taskwait: wait for quiescence, helping as a worker.
                    p_busy = False
                    free += 1
            else:
                pending = arm_cost(walk[idx])
                next_arm = now + pending
            continue
        if not heap:
            if completed >= target:
                break
            raise RuntimeError(
                "replay deadlock: no running task and nothing ready "
                f"({completed}/{target} complete)"
            )
        now, tid = heapq.heappop(heap)
        free += 1
        complete(tid, now)
        if not p_busy and idx < n_walk and alive == 0:
            # Quiescent: the producer takes its thread back and crosses
            # the barrier.
            free -= 1
            cur_seg = seg[walk[idx]]
            p_busy = True
            pending = arm_cost(walk[idx])
            next_arm = now + pending

    return now, {
        "disc_busy": disc_busy,
        "disc_last": disc_last,
        "exec_first": exec_first,
        "exec_last": exec_last,
        "completed_user": completed_user,
        "work": work,
    }


# ======================================================================
# entrypoint
# ======================================================================
def simulate(
    compiled: "CompiledTDG",
    config: "RuntimeConfig",
    *,
    fidelity: str = "replay",
    program: "Optional[Program]" = None,
) -> RunResult:
    """Run one compiled graph at the chosen fidelity.

    The artifact-first entrypoint of the ladder: ``analytic`` and
    ``replay`` need only the artifact; ``des`` runs the reference
    engine on the source program instead, so it needs ``program``.  For
    spec-driven runs (caching, campaign fan-out) use
    :func:`repro.campaign.runner.run_experiment` with
    ``ExperimentSpec(fidelity=...)``.
    """
    if fidelity == "analytic":
        return analytic(compiled, config)
    if fidelity == "replay":
        return replay(compiled, config)
    if fidelity != "des":
        raise ValueError(
            f"unknown fidelity {fidelity!r}; expected one of {FIDELITIES}"
        )
    if program is None:
        raise ValueError(
            "the des tier replays the source program through the event "
            "engine; pass program= (or use run_experiment, which does)"
        )
    from repro.runtime.runtime import TaskRuntime

    res = TaskRuntime(program, config).run()
    res.extra.setdefault("fidelity", "des")
    res.extra.setdefault("bounds", None)
    return res
