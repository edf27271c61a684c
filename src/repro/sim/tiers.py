"""The fidelity ladder: three fidelities over one :class:`CompiledTDG`.

The paper's headline phenomena — discovery-bound makespan vs TPL, the
persistent-graph replay win, METG — are graph-shape effects, and the
compiled CSR artifact freezes that shape.  This module runs experiments
*directly on the artifact* at three fidelities, all emitting the same
:class:`~repro.runtime.result.RunResult`:

``analytic`` (:func:`analytic`)
    Work/span bounds from one level-synchronous numpy relaxation over
    the artifact's column arrays: T₁, T∞, the Brent bounds
    ``max(T₁/N, T∞) ≤ TN ≤ T₁/N + T∞`` per barrier segment, plus the
    serial-producer discovery limit.  No events and no Python loop over
    the edges; the reported makespan is the nominal lower Brent bound and
    ``extra["bounds"]`` carries certified lower/upper brackets.

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
    """Stamp the cost model onto the artifact's column
    :attr:`~repro.core.compiled.CompiledTDG.arrays`.

    Task memory time follows the DES hierarchy's envelope without its
    per-line state: the whole-graph working set picks the cache level
    that serves steady-state traffic — L1/L2/L3 service is unshared,
    DRAM service divides the bandwidth among concurrent tasks (the DES
    ``dram_sharers`` rule).
    """
    m = config.machine
    w = config.threads
    disc, sched = config.discovery, config.sched
    cols = compiled.arrays
    flops = np.asarray(cols["flops"], dtype=float)
    foot = np.asarray(cols["foot_bytes"], dtype=float)
    stub = cols["is_stub"]
    comm = cols["comm_kind"] >= 0
    outdeg = np.diff(np.asarray(cols["succ_offsets"], dtype=float))

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

    addrs = np.asarray(cols["disc_addrs"], dtype=float)
    edges = np.asarray(cols["disc_edges"], dtype=float)
    skips = np.asarray(cols["disc_skips"], dtype=float)
    redirects = np.asarray(cols["disc_redirects"], dtype=float)
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
        cols["fp_bytes"], dtype=float
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
    whole-graph critical path and the depth, in one relaxation.

    Returns ``([t1_nom, t1_lo, t1_hi], [span_nom, span_lo, span_hi],
    t_inf, depth)``.  The relaxation is level-synchronous over the
    artifact's :attr:`~repro.core.compiled.CompiledTDG.arrays`: each
    frontier holds the tasks whose predecessors have all finished, so a
    task's start is final when its frontier comes up, frontier ``k``
    holds the tasks whose longest path has ``k`` tasks, and the depth is
    the number of frontiers.  A frontier's finish times are pushed along
    its out-edges with one ``np.maximum.at`` per vector.  Segment spans
    only follow intra-segment edges (taskwait barriers already serialize
    cross-segment work), so cross-segment edges push 0.0, which the 0.0
    floor absorbs; ``t_inf`` follows every edge under ``w_nom``.  Starts
    are maxima and finishes one addition, as in a walk along a
    topological order, so each vector's results are bitwise those of
    such a walk of that vector alone.  Raises ``ValueError`` on a cycle.
    The cost is a round of array operations per frontier, so it grows
    with the graph's depth as well as its size.
    """
    cols = compiled.arrays
    # Decoded columns may be as narrow as <i1: the ones the walk does
    # arithmetic on are cast to the platform index type, so nothing can
    # wrap.  ``targets`` is only ever an index and keeps its stored type
    # (a copy would be the walk's largest allocation).
    offsets = np.asarray(cols["succ_offsets"], dtype=np.intp)
    seg = np.asarray(cols["segment"], dtype=np.intp)
    targets = cols["succ_targets"]
    n = len(seg)
    n_seg = int(seg.max()) + 1 if n else 1
    t1s = []
    for weights in (w_nom, w_lo, w_hi):
        t1 = np.zeros(n_seg)
        np.add.at(t1, seg, weights)
        t1s.append(t1)
    # Rows: intra-segment paths under each vector, any path under w_nom.
    weights = np.stack((w_nom, w_lo, w_hi, w_nom))
    start = np.zeros((4, n))
    out_deg = np.diff(offsets)
    cross = np.repeat(seg, out_deg) != seg[targets]
    npred = np.bincount(targets, minlength=n)
    frontier = np.flatnonzero(npred == 0)
    depth = done = 0
    while frontier.size:
        depth += 1
        done += frontier.size
        # The frontier's out-edges, as indices into ``targets``.
        deg = out_deg[frontier]
        first = offsets[frontier] - (np.cumsum(deg) - deg)
        edges = np.repeat(first, deg) + np.arange(int(deg.sum()))
        succ = targets[edges]
        push = np.repeat(
            start[:, frontier] + weights[:, frontier], deg, axis=1
        )
        push[:3, cross[edges]] = 0.0
        for row, values in zip(start, push):
            np.maximum.at(row, succ, values)
        released = np.bincount(succ, minlength=n)
        npred -= released
        frontier = np.flatnonzero((npred == 0) & (released > 0))
    if done != n:
        raise ValueError("CSR graph contains a cycle")
    finish = start + weights
    spans = []
    for row in finish[:3]:
        span = np.zeros(n_seg)
        np.maximum.at(span, seg, row)
        spans.append(span)
    return t1s, spans, float(finish[3].max(initial=0.0)), depth


def analytic(compiled: "CompiledTDG", config: "RuntimeConfig") -> RunResult:
    """Work/span bounds over the CSR — no events, no per-edge loop.

    Computes on the artifact's
    :attr:`~repro.core.compiled.CompiledTDG.arrays` (through
    :func:`tier_weights` and :func:`_segment_spans`) and never builds its
    ``topo_order``.
    """
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
    # Persistent rounds after the first walk the user tids at replay
    # cost and re-arm the stubs wholesale; a single round needs neither.
    later = (
        (compiled.user_tids, tw.replay.tolist(), compiled.stub_tids)
        if rounds > 1 else None
    )

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
            walk, cost, prearm = list(range(n)), creation, []
        else:
            # Persistent replay: stubs re-arm wholesale at the
            # barrier, the producer re-instances user tasks only.
            walk, cost, prearm = later
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
    (c_edge - c_edge_skip) re-prices already-satisfied edges at submission
    time, mirroring the DES resolver's pruning.
    """
    npred = list(npred0)
    armed = bytearray(len(npred))
    ready: deque = deque()
    push = ready.append
    pop = ready.pop if lifo else ready.popleft
    heap: list[tuple[float, int]] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    inf = float("inf")
    free = workers - 1 if workers > 1 else 0
    alive = 0
    completed = 0
    completed_user = 0
    target = len(walk) + len(prearm)
    disc_busy = 0.0
    disc_last = t0
    exec_first = inf
    exec_last = t0
    work = 0.0
    now = t0

    # Arming a task, completing one and pricing a submission are inlined
    # below (they run once per task); only a redirect stub, which
    # completes the moment it is ready, recurses: its successors are
    # released depth first, so the ready pool sees the DES's push order.
    def complete_stub(tid: int) -> None:
        nonlocal alive, completed
        completed += 1
        alive -= 1
        for s in targets[offsets[tid]:offsets[tid + 1]]:
            left = npred[s] - 1
            npred[s] = left
            if left == 0 and armed[s]:
                if is_stub[s]:
                    complete_stub(s)
                else:
                    push(s)

    for tid in prearm:
        armed[tid] = True
        alive += 1
        if npred[tid] == 0:
            if is_stub[tid]:
                complete_stub(tid)
            else:
                push(tid)

    if non_overlapped:
        # Gate closed: the full walk happens before any execution.
        for tid in walk:
            c = cost[tid]
            disc_busy += c
            now += c
            armed[tid] = True
            alive += 1
            if npred[tid] == 0:
                if is_stub[tid]:
                    complete_stub(tid)
                else:
                    push(tid)
        disc_last = now
        free = workers
    idx = 0
    n_walk = 0 if non_overlapped else len(walk)
    cur_seg = seg[walk[0]] if n_walk else -1
    p_busy = n_walk > 0  # producer mid-submission
    # A submission's price: its creation cost, with already-satisfied
    # (prunable) edges re-priced at submission time.
    if p_busy:
        nxt = walk[0]
        pending = (
            cost[nxt] - (npred0[nxt] - npred[nxt]) * prune_delta
            if prune_delta else cost[nxt]
        )
        next_arm = t0 + pending
    else:
        pending = 0.0
        next_arm = inf

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
            heappush(heap, (now + b + ovh[tid], tid))
            free -= 1
        if p_busy and next_arm <= (heap[0][0] if heap else inf):
            now = next_arm
            disc_busy += pending
            disc_last = now
            tid = nxt  # walk[idx], read when this arm was priced
            armed[tid] = True
            alive += 1
            if npred[tid] == 0:
                if is_stub[tid]:
                    complete_stub(tid)
                else:
                    push(tid)
            idx += 1
            if idx >= n_walk:
                # Walk done: the producer joins the pool for good.
                p_busy = False
                free += 1
                continue
            nxt = walk[idx]
            if seg[nxt] != cur_seg:
                if alive:
                    # Taskwait: wait for quiescence, helping as a worker.
                    p_busy = False
                    free += 1
                    continue
                # Already quiescent: cross the barrier immediately.
                cur_seg = seg[nxt]
            pending = (
                cost[nxt] - (npred0[nxt] - npred[nxt]) * prune_delta
                if prune_delta else cost[nxt]
            )
            next_arm = now + pending
            continue
        if not heap:
            if completed >= target:
                break
            raise RuntimeError(
                "replay deadlock: no running task and nothing ready "
                f"({completed}/{target} complete)"
            )
        # A running (never a stub) task completes.
        now, tid = heappop(heap)
        free += 1
        completed += 1
        completed_user += 1
        alive -= 1
        if now > exec_last:
            exec_last = now
        for s in targets[offsets[tid]:offsets[tid + 1]]:
            left = npred[s] - 1
            npred[s] = left
            if left == 0 and armed[s]:
                if is_stub[s]:
                    complete_stub(s)
                else:
                    push(s)
        if not p_busy and idx < n_walk and alive == 0:
            # Quiescent: the producer takes its thread back and crosses
            # the barrier.
            free -= 1
            nxt = walk[idx]
            cur_seg = seg[nxt]
            p_busy = True
            pending = (
                cost[nxt] - (npred0[nxt] - npred[nxt]) * prune_delta
                if prune_delta else cost[nxt]
            )
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
