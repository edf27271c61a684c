"""Cross-rank MPI verification over the compiled TDGs — no DES run.

Single-rank verification sees one address space; the defects the paper's
cluster runs (§4) expose live *between* ranks: a send whose receive was
never posted, tag reuse that makes FIFO matching timing-dependent, and
post orders that deadlock under rendezvous.  This module analyses all
ranks' statically discovered TDGs — each rank's MPI operations are the
rows of its :class:`~repro.core.compiled.CompiledTDG` whose
``comm_kind`` is set, in post (``comm_tids``) order — and answers three
questions:

**Matching** (``V-MPI-UNMATCHED``).  Point-to-point operations match the
way the :class:`~repro.mpi.comm.Communicator` matches them: FIFO per
``(src, dst, tag)`` channel, in post order.  Collectives join per-rank
call-order slots.  Leftover operations would hang the run.

**Ambiguity** (``V-MPI-TAGDUP``).  Two sends on one channel whose posting
tasks are unordered reach the FIFO in timing-dependent order — results
change with the schedule even though every operation matches.

**Deadlock** (``V-MPI-CYCLE``).  Each operation becomes two events,
``post`` and ``complete``; edges encode what must wait for what:

- ``post(op) -> complete(op)`` — an operation completes after it posts;
- ``complete(a) -> post(b)`` when task(a) happens-before task(b) locally
  — b's task cannot start (hence post) until a's task, including its
  detached request, completes;
- ``post(send) -> complete(recv)`` for a matched pair — data cannot
  arrive before it was sent;
- ``post(recv) -> complete(send)`` when the payload exceeds the eager
  threshold — the rendezvous protocol blocks the send until the receive
  is posted (the LULESH face-message regime, §4.1);
- all posts of a collective slot precede all its completions.

A cycle in this event graph is a dependency loop no schedule can break —
the classic crossed rendezvous sends, found without simulating a single
event.

The same event graph, taken as a reachability structure, extends each
rank's happens-before across the network: task ``a`` precedes task ``b``
(same rank) if some communication chain carries a's completion around the
cluster and back before b starts.  :func:`find_cluster_races` reruns the
race scan per rank under this relation; races involving communication
tasks — which exist only in cluster builds, so single-rank analysis never
sees them — are reported as ``V-RACE-XRANK``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.optimizations import OptimizationSet
from repro.core.program import CommKind, Program
from repro.mpi.network import NetworkSpec, bxi_like
from repro.runtime.costs import DiscoveryCosts
from repro.verify.findings import Finding
from repro.verify.races import scan_conflicts
from repro.verify.static_graph import StaticTDG, discover_static

#: Cap on unmatched-operation findings — beyond this the channel layout
#: (tags/peers) is systematically wrong, not individually.
MAX_UNMATCHED_FINDINGS = 25


@dataclass(frozen=True, slots=True)
class CommOp:
    """One MPI operation: a comm row of a rank's compiled TDG."""

    #: Global operation index (event ids: ``post = 2*idx``, ``complete =
    #: 2*idx + 1``).
    idx: int
    rank: int
    #: Per-rank post ordinal: the position of ``tid`` in ``comm_tids``.
    op_index: int
    #: The posting task's row in the rank's compiled TDG.
    tid: int
    kind: CommKind
    #: Peer rank for point-to-point, ``-1`` for collectives.
    peer: int
    tag: int
    nbytes: int
    #: Name of the posting task.
    name: str
    iteration: int

    @property
    def label(self) -> str:
        return f"rank{self.rank}:{self.name}"


def _post(i: int) -> int:
    return 2 * i


def _complete(i: int) -> int:
    return 2 * i + 1


class _EventReach:
    """Reachability over the comm event graph via SCC condensation.

    Tarjan emits strongly connected components in reverse topological
    order of the condensation — every component reachable from C is
    emitted before C — so one pass over the emission order closes
    per-component reachability bitmasks.
    """

    def __init__(self, n_events: int, edges: Sequence[tuple[int, int]]):
        self.n = n_events
        succs: list[list[int]] = [[] for _ in range(n_events)]
        for u, v in edges:
            succs[u].append(v)
        self._succs = succs
        self.comp = [-1] * n_events
        self.sccs: list[list[int]] = []
        self._tarjan()
        reach = [0] * len(self.sccs)
        for c, members in enumerate(self.sccs):
            mask = 1 << c
            for u in members:
                for v in self._succs[u]:
                    mask |= reach[self.comp[v]]
            reach[c] = mask
        self._reach = reach

    def _tarjan(self) -> None:
        n = self.n
        index = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack: list[int] = []
        counter = 0
        for root in range(n):
            if index[root] != -1:
                continue
            # Iterative Tarjan: (node, iterator position) work stack.
            work = [(root, 0)]
            while work:
                u, pos = work.pop()
                if pos == 0:
                    index[u] = low[u] = counter
                    counter += 1
                    stack.append(u)
                    on_stack[u] = True
                recurse = False
                succ = self._succs[u]
                for k in range(pos, len(succ)):
                    v = succ[k]
                    if index[v] == -1:
                        work.append((u, k + 1))
                        work.append((v, 0))
                        recurse = True
                        break
                    if on_stack[v]:
                        low[u] = min(low[u], index[v])
                if recurse:
                    continue
                if low[u] == index[u]:
                    comp_id = len(self.sccs)
                    members = []
                    while True:
                        v = stack.pop()
                        on_stack[v] = False
                        self.comp[v] = comp_id
                        members.append(v)
                        if v == u:
                            break
                    self.sccs.append(members)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[u])

    def cycles(self) -> list[list[int]]:
        """SCCs with more than one event — dependency loops."""
        return [m for m in self.sccs if len(m) > 1]

    def reaches(self, u: int, v: int) -> bool:
        cu, cv = self.comp[u], self.comp[v]
        return bool(self._reach[cu] >> cv & 1)


@dataclass
class ClusterTDG:
    """All ranks' static TDGs coupled by the comm event graph.

    The cluster analogue of :class:`~repro.verify.static_graph.StaticTDG`:
    per-rank graphs, their MPI operations read off the compiled comm
    columns, matching results and the event-graph reachability that
    extends happens-before across ranks.
    """

    tdgs: list[StaticTDG]
    network: NetworkSpec
    ops: list[CommOp] = field(default_factory=list)
    #: Global op indices per rank, in post order.
    rank_ops: list[list[int]] = field(default_factory=list)
    #: Matched ``(send idx, recv idx)`` pairs.
    pairs: list[tuple[int, int]] = field(default_factory=list)
    #: Complete collective slots (all ranks joined), op indices per slot.
    coll_groups: list[list[int]] = field(default_factory=list)
    #: P2P ops that never match, in op order.
    unmatched_p2p: list[int] = field(default_factory=list)
    #: Collective slots missing ranks: ``(slot, joined op idxs, missing ranks)``.
    incomplete_colls: list[tuple[int, list[int], list[int]]] = field(
        default_factory=list
    )
    #: Structural guard findings raised while building (empty when sound).
    structural_findings: list[Finding] = field(default_factory=list)
    _reach: Optional[_EventReach] = field(default=None, repr=False)
    #: Memoized event lists of :meth:`happens_before`, by ``(rank, tid)``.
    _srcs: dict[tuple[int, int], list[int]] = field(
        default_factory=dict, repr=False
    )
    _dsts: dict[tuple[int, int], list[int]] = field(
        default_factory=dict, repr=False
    )

    @property
    def n_ranks(self) -> int:
        return len(self.tdgs)

    # ------------------------------------------------------------------
    def events(self) -> _EventReach:
        """The comm event graph (built lazily, cached)."""
        if self._reach is not None:
            return self._reach
        edges: list[tuple[int, int]] = []
        for op in self.ops:
            edges.append((_post(op.idx), _complete(op.idx)))
        for r, idxs in enumerate(self.rank_ops):
            tdg = self.tdgs[r]
            for i in idxs:
                for j in idxs:
                    if i != j and tdg.happens_before(
                        self.ops[i].tid, self.ops[j].tid
                    ):
                        edges.append((_complete(i), _post(j)))
        for s, rcv in self.pairs:
            edges.append((_post(s), _complete(rcv)))
            if not self.network.is_eager(self.ops[s].nbytes):
                edges.append((_post(rcv), _complete(s)))
        for group in self.coll_groups:
            for i in group:
                for j in group:
                    if i != j:
                        edges.append((_post(i), _complete(j)))
        self._reach = _EventReach(2 * len(self.ops), edges)
        return self._reach

    # ------------------------------------------------------------------
    def happens_before(self, rank: int, a: int, b: int) -> bool:
        """Cross-rank happens-before for two tasks (tids) of ``rank``'s TDG.

        True when ``a`` is guaranteed complete before ``b`` starts — by
        the rank's own segments/edges, or through a communication chain:
        a precedes some operation's post, whose effect reaches (through
        matches, rendezvous stalls and remote dependences) the completion
        of an operation that b depends on.
        """
        if self.tdgs[rank].happens_before(a, b):
            return True
        srcs = self._sources(rank, a)
        if not srcs:
            return False
        reach = self.events()
        dsts = self._sinks(rank, b)
        return any(reach.reaches(s, d) for s in srcs for d in dsts)

    def _sources(self, rank: int, a: int) -> list[int]:
        """Events task ``a`` precedes: the completion of its own
        operations and the post of every operation it happens-before."""
        key = (rank, a)
        srcs = self._srcs.get(key)
        if srcs is None:
            tdg = self.tdgs[rank]
            srcs = []
            for i in self.rank_ops[rank]:
                tid = self.ops[i].tid
                if tid == a:
                    srcs.append(_complete(i))
                elif tdg.happens_before(a, tid):
                    srcs.append(_post(i))
            self._srcs[key] = srcs
        return srcs

    def _sinks(self, rank: int, b: int) -> list[int]:
        """Completions of the other operations that happen-before task ``b``."""
        key = (rank, b)
        dsts = self._dsts.get(key)
        if dsts is None:
            tdg = self.tdgs[rank]
            dsts = [
                _complete(j)
                for j in self.rank_ops[rank]
                if self.ops[j].tid != b and tdg.happens_before(self.ops[j].tid, b)
            ]
            self._dsts[key] = dsts
        return dsts

    def ordered(self, rank: int, a: int, b: int) -> bool:
        return self.happens_before(rank, a, b) or self.happens_before(
            rank, b, a
        )


# ======================================================================
# construction
# ======================================================================
def build_cluster_tdg(
    programs: Sequence[Program],
    opts: OptimizationSet | str = "abcp",
    *,
    costs: Optional[DiscoveryCosts] = None,
) -> ClusterTDG:
    """Statically discover every rank's TDG and match their comm ops.

    Mirrors what :class:`~repro.cluster.cluster.Cluster` would discover,
    but through :func:`~repro.verify.static_graph.discover_static` — zero
    DES events.  Each rank's operations are its compiled comm rows; the
    eager/rendezvous threshold is :func:`~repro.mpi.network.bxi_like`'s.  A
    persistent artifact holds only the template iteration (replay repeats
    it verbatim), so when every rank runs persistent, matching happens on
    the template; the iteration structure must then agree across ranks,
    and a violation is reported as a structural finding instead of
    unsound matching.
    """
    if isinstance(opts, str):
        opts = OptimizationSet.parse(opts)
    tdgs = [discover_static(p, opts, costs=costs) for p in programs]

    persistent = [t.compiled.persistent for t in tdgs]
    guards: list[Finding] = []
    template_only = all(persistent)
    if any(persistent) and not template_only:
        mixed = sorted(r for r, p in enumerate(persistent) if p)
        guards.append(
            Finding(
                rule="V-MPI-UNMATCHED",
                message=(
                    f"ranks {mixed} run persistent (template-only TDGs) but "
                    "the others do not — per-iteration matching across "
                    "ranks is undefined; MPI analysis skipped"
                ),
                hint="use one optimization set / persistent_candidate "
                "setting for every rank of an SPMD program",
            )
        )
    if template_only:
        iters = [len(t.program.iterations) for t in tdgs]
        if len(set(iters)) > 1:
            guards.append(
                Finding(
                    rule="V-MPI-UNMATCHED",
                    message=(
                        f"iteration counts differ across ranks {iters}: "
                        "replayed templates post diverging operation "
                        "sequences — the run deadlocks once the shortest "
                        "rank stops posting"
                    ),
                    hint="give every rank the same outer iteration count",
                )
            )

    ctdg = ClusterTDG(tdgs=tdgs, network=bxi_like(), structural_findings=guards)
    if guards:
        ctdg.rank_ops = [[] for _ in tdgs]
        return ctdg

    for r, tdg in enumerate(tdgs):
        c = tdg.compiled
        mine: list[int] = []
        for k, tid in enumerate(c.comm_tids):
            idx = len(ctdg.ops)
            mine.append(idx)
            ctdg.ops.append(
                CommOp(
                    idx=idx,
                    rank=r,
                    op_index=k,
                    tid=tid,
                    kind=CommKind(c.comm_kind[tid]),
                    peer=c.comm_peer[tid],
                    tag=c.comm_tag[tid],
                    nbytes=c.comm_nbytes[tid],
                    name=c.name[tid],
                    iteration=c.iteration[tid],
                )
            )
        ctdg.rank_ops.append(mine)

    _match(ctdg)
    return ctdg


def _match(ctdg: ClusterTDG) -> None:
    """FIFO-match p2p channels and call-order collective slots in place."""
    sends: dict[tuple[int, int, int], list[int]] = defaultdict(list)
    recvs: dict[tuple[int, int, int], list[int]] = defaultdict(list)
    colls: list[list[int]] = [[] for _ in range(ctdg.n_ranks)]
    for op in ctdg.ops:
        if op.kind == CommKind.ISEND:
            sends[(op.rank, op.peer, op.tag)].append(op.idx)
        elif op.kind == CommKind.IRECV:
            recvs[(op.peer, op.rank, op.tag)].append(op.idx)
        else:
            colls[op.rank].append(op.idx)

    for key in sorted(set(sends) | set(recvs)):
        ss, rr = sends.get(key, []), recvs.get(key, [])
        ctdg.pairs.extend(zip(ss, rr))
        ctdg.unmatched_p2p.extend(ss[len(rr):])
        ctdg.unmatched_p2p.extend(rr[len(ss):])
    ctdg.unmatched_p2p.sort()

    n_slots = max((len(c) for c in colls), default=0)
    for slot in range(n_slots):
        joined = [colls[r][slot] for r in range(ctdg.n_ranks) if len(colls[r]) > slot]
        missing = [r for r in range(ctdg.n_ranks) if len(colls[r]) <= slot]
        if missing:
            ctdg.incomplete_colls.append((slot, joined, missing))
        else:
            ctdg.coll_groups.append(joined)


# ======================================================================
# checks
# ======================================================================
def check_mpi(ctdg: ClusterTDG) -> list[Finding]:
    """Matching, ambiguity and deadlock findings for one cluster."""
    findings: list[Finding] = list(ctdg.structural_findings)
    if ctdg.structural_findings:
        return findings
    findings.extend(_check_unmatched(ctdg))
    findings.extend(_check_tagdup(ctdg))
    findings.extend(_check_cycles(ctdg))
    return findings


def _check_unmatched(ctdg: ClusterTDG) -> list[Finding]:
    findings: list[Finding] = []
    for i in ctdg.unmatched_p2p[:MAX_UNMATCHED_FINDINGS]:
        op = ctdg.ops[i]
        if op.kind == CommKind.ISEND:
            msg = (
                f"Isend from rank {op.rank} to rank {op.peer} (tag {op.tag}, "
                f"{op.nbytes} B) posted by {op.name!r} never matches: "
                f"rank {op.peer} posts no corresponding Irecv"
            )
        else:
            msg = (
                f"Irecv on rank {op.rank} from rank {op.peer} (tag {op.tag}, "
                f"{op.nbytes} B) posted by {op.name!r} never matches: "
                f"rank {op.peer} posts no corresponding Isend"
            )
        findings.append(
            Finding(
                rule="V-MPI-UNMATCHED",
                message=msg,
                tasks=(op.name,),
                iteration=op.iteration,
                rank=op.rank,
                hint=(
                    "post the matching operation on the peer rank, or fix "
                    "the peer/tag so existing operations pair up"
                ),
                data={
                    "kind": op.kind.name,
                    "peer": op.peer,
                    "tag": op.tag,
                    "op_index": op.op_index,
                },
            )
        )
    dropped = len(ctdg.unmatched_p2p) - MAX_UNMATCHED_FINDINGS
    if dropped > 0:
        findings.append(
            Finding(
                rule="V-MPI-UNMATCHED",
                message=(
                    f"{dropped} further unmatched operations not listed — "
                    "the channel layout (peers/tags) is systematically "
                    "wrong, not per-operation"
                ),
                data={"dropped": dropped},
            )
        )
    for slot, joined, missing in ctdg.incomplete_colls:
        names = tuple(sorted(ctdg.ops[i].label for i in joined))
        findings.append(
            Finding(
                rule="V-MPI-UNMATCHED",
                message=(
                    f"Iallreduce slot {slot} is joined by only "
                    f"{len(joined)}/{ctdg.n_ranks} ranks — ranks {missing} "
                    "never post a matching call, so the joiners wait forever"
                ),
                tasks=names,
                hint="every rank must post the same collective sequence",
                data={"slot": slot, "missing": list(missing)},
            )
        )
    return findings


def _check_tagdup(ctdg: ClusterTDG) -> list[Finding]:
    """Channels whose operations reach the FIFO in schedule-dependent order."""
    by_channel: dict[tuple[str, int, int, int], list[int]] = defaultdict(list)
    for op in ctdg.ops:
        if op.kind == CommKind.ISEND:
            by_channel[("send", op.rank, op.peer, op.tag)].append(op.idx)
        elif op.kind == CommKind.IRECV:
            by_channel[("recv", op.peer, op.rank, op.tag)].append(op.idx)

    findings: list[Finding] = []
    for (side, src, dst, tag), idxs in sorted(by_channel.items()):
        if len(idxs) < 2:
            continue
        home = src if side == "send" else dst
        racy: Optional[tuple[CommOp, CommOp]] = None
        for x in range(len(idxs)):
            for y in range(x + 1, len(idxs)):
                a, b = ctdg.ops[idxs[x]], ctdg.ops[idxs[y]]
                if not ctdg.ordered(home, a.tid, b.tid):
                    racy = (a, b)
                    break
            if racy:
                break
        if racy is None:
            continue
        a, b = racy
        kind = "Isends from" if side == "send" else "Irecvs on"
        findings.append(
            Finding(
                rule="V-MPI-TAGDUP",
                message=(
                    f"{len(idxs)} {kind} rank {home} share channel "
                    f"(src {src}, dst {dst}, tag {tag}) and at least "
                    f"{a.name!r}/{b.name!r} post in "
                    "schedule-dependent order — FIFO matching pairs them "
                    "nondeterministically"
                ),
                tasks=(a.name, b.name),
                iteration=a.iteration,
                rank=home,
                hint=(
                    "give each logical message stream its own tag, or "
                    "order the posting tasks with a dependence"
                ),
                data={"src": src, "dst": dst, "tag": tag, "n_ops": len(idxs)},
            )
        )
    return findings


def _check_cycles(ctdg: ClusterTDG) -> list[Finding]:
    findings: list[Finding] = []
    for scc in ctdg.events().cycles():
        members = sorted({ev // 2 for ev in scc})
        labels = tuple(
            ctdg.ops[i].label
            for i in sorted(
                members, key=lambda i: (ctdg.ops[i].rank, ctdg.ops[i].op_index)
            )
        )
        ranks = sorted({ctdg.ops[i].rank for i in members})
        protos = sorted(
            {
                "rendezvous"
                if not ctdg.network.is_eager(ctdg.ops[i].nbytes)
                else "eager"
                for i in members
                if ctdg.ops[i].kind != CommKind.IALLREDUCE
            }
        )
        findings.append(
            Finding(
                rule="V-MPI-CYCLE",
                message=(
                    f"static deadlock: {len(members)} operations across "
                    f"ranks {ranks} form a dependency cycle "
                    f"({', '.join(labels)}) — no schedule can complete them"
                ),
                tasks=labels,
                hint=(
                    "break the wait loop: reorder the posts so one side's "
                    "receive precedes its send, or keep payloads under the "
                    "eager threshold"
                ),
                data={"ranks": ranks, "n_ops": len(members), "protocols": protos},
            )
        )
    return findings


# ======================================================================
# cross-rank races
# ======================================================================
def find_cluster_races(ctdg: ClusterTDG) -> list[Finding]:
    """Per-rank race scan under the cross-rank happens-before.

    Communication edges only *add* ordering, so this prunes local false
    positives; races that involve a communication task (invisible to any
    single-rank analysis, because the comm tasks exist only in cluster
    builds) are classified ``V-RACE-XRANK``.
    """
    if ctdg.structural_findings:
        return []
    findings: list[Finding] = []
    for r, tdg in enumerate(ctdg.tdgs):
        findings.extend(
            scan_conflicts(
                tdg,
                ordered=lambda a, b, _r=r: ctdg.ordered(_r, a, b),
                xrank=True,
                rank=r,
            )
        )
    return findings
