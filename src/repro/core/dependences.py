"""OpenMP ``depend`` clause resolution (TDG discovery).

This implements the address-map algorithm production runtimes use: for every
storage location named in a ``depend`` clause the runtime tracks the last
writing entity and the readers since that write, and materializes precedence
edges accordingly.  The paper's optimizations hook in here:

- optimization **(b)**: duplicate edges detected in O(1) thanks to sequential
  submission (delegated to :meth:`repro.sim.table.TaskTable.add_edge`);
- optimization **(c)**: when a group of ``inoutset`` writers is closed by an
  access of another mode, an empty *redirect node* is inserted so the m
  writers and n downstream readers cost m+n edges instead of m*n (Fig. 4).

The resolver is part of the discovery hot path, so it works in ``tid``
space directly against the struct-of-arrays task table
(:meth:`DependenceResolver.resolve_tid`).

Semantics implemented (sufficient for the paper's workloads):

==========  =====================================================
mode        waits for
==========  =====================================================
IN          the last writing entity (writer task, inoutset group,
            or redirect node)
OUT/INOUT   all readers since the last write, plus the last
            writing entity
INOUTSET    like OUT versus earlier accesses, but mutually
            concurrent with the other members of its group
==========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.optimizations import OptimizationSet
from repro.core.task import Dep, DepMode
from repro.sim.table import COMPLETED as _COMPLETED
from repro.sim.table import TaskTable

#: DepMode values as plain ints (the resolve loop compares ints).
_IN = int(DepMode.IN)
_INOUTSET = int(DepMode.INOUTSET)


@dataclass(slots=True)
class AddrState:
    """Dependence bookkeeping for one storage address (tids throughout)."""

    #: The current "last write" entity: a single task for OUT/INOUT, the
    #: whole group for an open (or unredirected) inoutset, or a redirect
    #: node (singleton list) after optimization (c) closed a group.
    writers: list[int] = field(default_factory=list)
    #: Tasks that read the address since ``writers`` was installed.
    readers: list[int] = field(default_factory=list)
    #: True while ``writers`` is an inoutset group still accepting members.
    ioset_open: bool = False
    #: Predecessors the open inoutset group members must each wait for.
    ioset_preds: list[int] = field(default_factory=list)


@dataclass(slots=True)
class ResolutionResult:
    """Per-task outcome of dependence resolution (feeds the cost model)."""

    #: Number of ``depend`` addresses processed.
    n_addrs: int = 0
    #: Edges materialized (including to redirect nodes).
    n_edges: int = 0
    #: Edge creations avoided (pruned predecessors + deduplicated).
    n_skipped: int = 0
    #: Redirect nodes created while resolving this task.
    n_redirects: int = 0
    #: Duplicate edges eliminated by optimization (b) for this task.
    n_dup_skipped: int = 0
    #: Duplicate edges materialized because (b) is off.
    n_dup_created: int = 0
    #: Completed-predecessor edges pruned (non-persistent graphs).
    n_pruned: int = 0
    #: Redirect stub tids (the runtime arms and counts them); most tasks
    #: make none, so this stays the shared empty tuple until one is made.
    redirect_tids: tuple[int, ...] = ()


class DependenceResolver:
    """Resolves task ``depend`` clauses against a :class:`TaskTable`.

    One resolver instance corresponds to one data environment — the
    paper's persistent-TDG implicit barrier resets it between iterations,
    dropping inter-iteration edges (§3.3's explanation of why (p)
    *reduces* the first iteration's edge count).
    """

    def __init__(self, table: TaskTable, opts: OptimizationSet):
        self.table = table
        self.opts = opts
        self._dedup = opts.b
        self._addr_map: dict[int, AddrState] = {}

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all address state (implicit barrier / region boundary)."""
        self._addr_map.clear()

    # ------------------------------------------------------------------
    def resolve_tid(self, tid: int, depends: tuple[Dep, ...]) -> ResolutionResult:
        """Create the edges implied by ``depends`` for freshly created ``tid``.

        The IN and OUT/INOUT handlers are inlined here with the edge
        loop of :meth:`~repro.sim.table.TaskTable.add_edge` open-coded
        against hoisted table columns — one edge-creation attempt per
        predecessor is the dominant operation count of discovery, and
        per-edge bound-method dispatch and attribute loads dominate its
        cost at simulation scale.  Semantics are identical to
        ``add_edge``; only group closing stays in its (rare) helper.
        """
        res = ResolutionResult(n_addrs=len(depends))
        addr_map = self._addr_map
        table = self.table
        last_succ, state, succs = table.last_succ, table.state, table.succs
        npred, presat = table.npred, table.presat
        prune = table.prune_completed
        dedup = self._dedup
        ne = ns = n_created = n_dup_skip = n_dup_made = n_pruned = 0
        for addr, mode in depends:
            st = addr_map.get(addr)
            if st is None:
                st = addr_map[addr] = AddrState()
            if mode == _IN:
                if st.ioset_open:
                    self._close_ioset(st, res)
                preds = st.writers
                st.readers.append(tid)
            elif mode == _INOUTSET:
                if st.ioset_open:
                    # Join the open group: concurrent with its members,
                    # ordered after the predecessors its opener waited for.
                    preds = st.ioset_preds
                    st.writers.append(tid)
                else:
                    # Open a group: ordered like a write.  The replaced
                    # lists are never mutated again, so no copy is needed.
                    preds = st.ioset_preds = st.readers or st.writers
                    st.writers = [tid]
                    st.readers = []
                    st.ioset_open = True
            else:  # OUT and INOUT are equivalent for ordering purposes
                if st.ioset_open:
                    self._close_ioset(st, res)
                # Readers already transitively order this task after the
                # writers; only a write-after-write with no intervening
                # read needs direct writer edges.
                preds = st.readers or st.writers
                st.writers = [tid]
                st.readers = []
            for p in preds:
                if p == tid:
                    ns += 1
                    continue
                if last_succ[p] == tid:
                    if dedup:
                        n_dup_skip += 1
                        ns += 1
                        continue
                    n_dup_made += 1
                if state[p] == _COMPLETED:
                    if prune:
                        # The predecessor was consumed before this task
                        # was discovered: no constraint is needed.
                        n_pruned += 1
                        ns += 1
                        continue
                    # Persistent graph: the edge must exist for future
                    # iterations, but it is already satisfied now.
                    presat[tid] += 1
                else:
                    npred[tid] += 1
                out = succs[p]
                if out:
                    out.append(tid)
                else:  # the row's first out-edge (its list was ``()``)
                    succs[p] = [tid]
                last_succ[p] = tid
                n_created += 1
                ne += 1
        if ne or ns:
            stats = table.stats
            stats.created += n_created
            stats.pruned += n_pruned
            stats.duplicates_skipped += n_dup_skip
            stats.duplicates_created += n_dup_made
            res.n_edges += ne
            res.n_skipped += ns
            res.n_dup_skipped += n_dup_skip
            res.n_dup_created += n_dup_made
            res.n_pruned += n_pruned
        return res

    # ------------------------------------------------------------------
    def _edge(self, pred: int, succ: int, res: ResolutionResult) -> None:
        if self.table.add_edge(pred, succ, dedup=self._dedup):
            res.n_edges += 1
        else:
            res.n_skipped += 1

    def _close_ioset(self, st: AddrState, res: ResolutionResult) -> None:
        """Close an open inoutset group on a non-INOUTSET access.

        With optimization (c) the m group members are funnelled through an
        empty redirect node which becomes the new "last writer"; without it
        the group itself stays in ``writers`` and every subsequent reader
        pays m edges (the m*n explosion of Fig. 4).
        """
        if not st.ioset_open:
            return
        st.ioset_open = False
        st.ioset_preds = []
        if self.opts.c and len(st.writers) > 1:
            table = self.table
            redirect = table.new_stub()
            res.n_redirects += 1
            res.redirect_tids += (redirect,)
            stats = table.stats
            dup_skip0 = stats.duplicates_skipped
            dup_made0 = stats.duplicates_created
            pruned0 = stats.pruned
            for w in st.writers:
                self._edge(w, redirect, res)
            res.n_dup_skipped += stats.duplicates_skipped - dup_skip0
            res.n_dup_created += stats.duplicates_created - dup_made0
            res.n_pruned += stats.pruned - pruned0
            # The stub's predecessor count is final as soon as its edges
            # exist (nothing adds predecessors later); snapshot it for
            # persistent replay before any completion can decrement it.
            table.npred_initial[redirect] = (
                table.npred[redirect] + table.presat[redirect]
            )
            st.writers = [redirect]
