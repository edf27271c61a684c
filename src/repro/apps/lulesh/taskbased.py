"""Task-based LULESH (the Ferat et al. port, Listing 1).

Builds the dependent-task program of one MPI rank: every mesh-wide loop
becomes a ``taskloop``-style strip of TPL tasks with dependences inferred
from the field groups it touches, MPI communications are tasks inserted in
the TDG (detached sends/recvs, dt Iallreduce), and the whole time-step loop
is a persistent-TDG candidate (``#pragma omp ptsg``).

Optimization (a) is applied here, at the application level: with
``opt_a=False`` every ``depend`` clause names one address per *field*
(LULESH's x, y, z arrays separately — the Fig. 3 pattern); with
``opt_a=True`` one address per field *group* suffices.
"""

from __future__ import annotations

from typing import Sequence

from repro.apps.lulesh.config import ELEM_GROUPS, NODE_GROUPS, LuleshConfig
from repro.apps.lulesh.loops import COMM_AFTER_LOOP, LOOP_SCHEDULE, LoopDef
from repro.cluster.mapping import Neighbor
from repro.core.program import CommKind, CommSpec, Program, TaskSpec
from repro.core.task import AccessMode, Dep, DepMode, FootprintAccess
from repro.util import Interner as _Interner


def _group_fields(array: str, group: str) -> int:
    return (NODE_GROUPS if array == "nodes" else ELEM_GROUPS)[group]


def build_task_program(
    cfg: LuleshConfig,
    *,
    opt_a: bool = False,
    neighbors: Sequence[Neighbor] = (),
    taskwait_around_comm: bool = False,
    offload: bool = False,
    name: str = "lulesh-task",
) -> Program:
    """Build the task-based LULESH program for one rank.

    Parameters
    ----------
    cfg:
        Problem size, iterations, TPL, arithmetic intensity.
    opt_a:
        Apply the user-side dependence minimization (§3.1 (a)).
    neighbors:
        This rank's frontier neighbors (empty for intra-node runs).
    taskwait_around_comm:
        Bracket the communication sequence with explicit ``taskwait``
        (the §4.1 ablation: the paper measures this costs ~7% of total
        time versus letting MPI tasks flow in the TDG).
    offload:
        Mark the element-centric loops ``device=True`` for the §7
        accelerator-offloading extension (requires a configured
        :class:`~repro.accel.AcceleratorSpec` on the runtime).

    Each loop's reads and writes become an access plan once per loop.
    Each ``(array, group, block, mode)`` access is expanded into depend
    items and a footprint entry once per call, memoized, and every spec
    that names it shares those immutable tuples, compute and comm tasks
    alike.  Addresses and chunk ids are interned in order of first use,
    so the ids, and with them every structural key, are fixed by the
    order in which the walk first names each location.
    """
    addr = _Interner()
    chunk = _Interner()
    tpl = cfg.tpl
    specs: list[TaskSpec] = []

    # The scatter-accumulated force arrays are tracked at a coarser
    # dependence granularity than the task blocks (the port expresses the
    # gather/scatter irregularity over node *ranges*): several writer tasks
    # share each force superblock (the m concurrent ``inoutset`` writers of
    # Fig. 4) and several downstream reader tasks depend on it (the n
    # readers) — the m*n explosion optimization (c) collapses.
    n_super = max(1, tpl // 8)

    # A key misses its memo exactly where the walk first names it, so the
    # interners hand out the ids an expansion per spec would.
    dep_memo: dict[tuple[str, str, int, DepMode], tuple[Dep, ...]] = {}
    fp_memo: dict[tuple[str, str, int, AccessMode], FootprintAccess] = {}

    def dep_items(array: str, group: str, block: int, mode: DepMode) -> tuple[Dep, ...]:
        """The depend items of one (array, group, block) access.

        Without optimization (a) the node-centric accesses name one address
        per *field* (x, y, z separately — the Fig. 3 pattern found in the
        Ferat et al. port); element-centric accesses were already merged in
        that port, so they stay one address per group.
        """
        key = (array, group, block, mode)
        items = dep_memo.get(key)
        if items is None:
            if array == "nodes" and group == "force":
                block = block * n_super // tpl
            if opt_a or array != "nodes":
                items = ((addr((array, group, block)), mode),)
            else:
                items = tuple(
                    (addr((array, group, block, f)), mode)
                    for f in range(_group_fields(array, group))
                )
            dep_memo[key] = items
        return items

    def footprint_entry(
        array: str, group: str, block: int, mode: AccessMode
    ) -> FootprintAccess:
        key = (array, group, block, mode)
        entry = fp_memo.get(key)
        if entry is None:
            entry = fp_memo[key] = (
                chunk((array, group, block)),
                cfg.group_block_bytes(array, group),
                mode,
            )
        return entry

    dt_addr = addr("dt")
    dt_in: Dep = (dt_addr, DepMode.IN)
    n_nodes, n_elems = cfg.n_nodes, cfg.n_elems

    # ------------------------------------------------------------------
    def access_plan(loop: LoopDef) -> list[tuple[str, str, bool, DepMode, AccessMode]]:
        """``(array, group, gathers, depend mode, access mode)`` per access,
        in clause order; ``gathers`` accesses span the +-1 block
        neighborhood, the others the task's own block."""
        plan = [
            (array, group, array[0] != loop.over[0], DepMode.IN, AccessMode.READ)
            for array, group in loop.reads
        ]
        if loop.ioset:
            # Scatter-accumulation: each writer read-modify-writes its
            # neighborhood blocks, concurrently with its inoutset peers.
            plan += [
                (array, group, True, DepMode.INOUTSET, AccessMode.READWRITE)
                for array, group in loop.writes
            ]
        else:
            plan += [
                (array, group, False, DepMode.OUT, AccessMode.WRITE)
                for array, group in loop.writes
            ]
        return plan

    def loop_tasks(loop_idx: int, loop: LoopDef) -> None:
        items = n_nodes if loop.over == "nodes" else n_elems
        flops = cfg.flops_per_item * loop.flops_scale * items / tpl
        device = offload and loop.over == "elems"
        plan = access_plan(loop)
        for i in range(tpl):
            own = (i,)
            near = range(max(0, i - 1), min(tpl, i + 2))
            deps: list[Dep] = [dt_in]
            fp: list[FootprintAccess] = []
            for array, group, gathers, dep_mode, mode in plan:
                for b in near if gathers else own:
                    deps.extend(dep_items(array, group, b, dep_mode))
                    fp.append(footprint_entry(array, group, b, mode))
            if loop.dt_partial:
                deps.append((addr(("dtred", loop.name, i)), DepMode.OUT))
            # Superblock mapping can repeat an item within one clause list;
            # real clauses name each location once.
            specs.append(
                TaskSpec(
                    name=f"{loop.name}[{i}]",
                    depends=tuple(dict.fromkeys(deps)),
                    flops=flops,
                    footprint=tuple(fp),
                    fp_bytes=48,
                    loop_id=loop_idx,
                    device=device,
                )
            )

    # ------------------------------------------------------------------
    def dt_task() -> None:
        """Local dt min + MPI_(I)allreduce — depends on every constraint
        partial of the previous iteration (Listing 1, line 4)."""
        deps: list[Dep] = []
        for li, loop in enumerate(LOOP_SCHEDULE):
            if loop.dt_partial:
                for i in range(tpl):
                    deps.append((addr(("dtred", loop.name, i)), DepMode.IN))
        deps.append((dt_addr, DepMode.OUT))
        specs.append(
            TaskSpec(
                name="CalcTimeConstraints_allreduce",
                depends=tuple(deps),
                flops=200.0,
                footprint=((chunk("dt"), 8, AccessMode.READWRITE),),
                fp_bytes=16,
                comm=CommSpec(kind=CommKind.IALLREDUCE, nbytes=8, detached=True),
                loop_id=-2,
                priority=True,
            )
        )

    # ------------------------------------------------------------------
    def comm_tasks() -> None:
        """Frontier force exchange with every neighbor (Listing 1 lines
        20-30): detached Irecv/Isend, pack/unpack on boundary blocks."""
        for ni, nb in enumerate(neighbors):
            nbytes = cfg.message_bytes(nb.kind)
            boundary = 0 if ni % 2 == 0 else tpl - 1
            rbuf = addr(("rbuf", nb.rank))
            sbuf = addr(("sbuf", nb.rank))
            specs.append(
                TaskSpec(
                    name=f"MPI_Irecv[{nb.rank}]",
                    depends=((rbuf, DepMode.OUT),),
                    comm=CommSpec(kind=CommKind.IRECV, nbytes=nbytes, peer=nb.rank, tag=0),
                    footprint=(
                        (chunk(("rbuf", nb.rank)), nbytes, AccessMode.WRITE),
                    ),
                    fp_bytes=32,
                    loop_id=-3,
                    priority=True,
                )
            )
            specs.append(
                TaskSpec(
                    name=f"Pack[{nb.rank}]",
                    depends=dep_items("nodes", "force", boundary, DepMode.IN)
                    + ((sbuf, DepMode.OUT),),
                    flops=nbytes / 8.0,
                    footprint=(
                        footprint_entry("nodes", "force", boundary, AccessMode.READ),
                        (chunk(("sbuf", nb.rank)), nbytes, AccessMode.WRITE),
                    ),
                    fp_bytes=32,
                    loop_id=-3,
                    priority=True,
                )
            )
            specs.append(
                TaskSpec(
                    name=f"MPI_Isend[{nb.rank}]",
                    depends=((sbuf, DepMode.IN),),
                    comm=CommSpec(kind=CommKind.ISEND, nbytes=nbytes, peer=nb.rank, tag=0),
                    footprint=(
                        (chunk(("sbuf", nb.rank)), nbytes, AccessMode.READ),
                    ),
                    fp_bytes=32,
                    loop_id=-3,
                    priority=True,
                )
            )
            specs.append(
                TaskSpec(
                    name=f"Unpack[{nb.rank}]",
                    depends=((rbuf, DepMode.IN),)
                    + dep_items("nodes", "force", boundary, DepMode.INOUT),
                    flops=nbytes / 8.0,
                    footprint=(
                        footprint_entry(
                            "nodes", "force", boundary, AccessMode.READWRITE
                        ),
                        (chunk(("rbuf", nb.rank)), nbytes, AccessMode.READ),
                    ),
                    fp_bytes=32,
                    loop_id=-3,
                    priority=True,
                )
            )

    # ------------------------------------------------------------------
    dt_task()
    for li, loop in enumerate(LOOP_SCHEDULE):
        loop_tasks(li, loop)
        if li == COMM_AFTER_LOOP:
            if taskwait_around_comm and neighbors:
                specs.append(TaskSpec(name="taskwait", barrier=True))
            comm_tasks()
            if taskwait_around_comm and neighbors:
                specs.append(TaskSpec(name="taskwait", barrier=True))

    return Program.from_template(
        specs,
        cfg.iterations,
        persistent_candidate=True,
        name=name,
    )


def tasks_per_iteration(cfg: LuleshConfig, n_neighbors: int = 0) -> int:
    """Expected user task count per iteration (tests/documentation)."""
    return 1 + len(LOOP_SCHEDULE) * cfg.tpl + 4 * n_neighbors
