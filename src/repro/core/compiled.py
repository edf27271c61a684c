"""The compiled TDG: one frozen CSR graph artifact shared by every layer.

The paper's flagship optimization — the persistent task sub-graph (§3.2) —
wins by *reusing* a discovered graph instead of rediscovering it.  This
module gives the reproduction a single frozen representation of a
discovered TDG that every consumer reads:

- :class:`~repro.runtime.runtime.TaskRuntime` snapshots one after the
  first persistent iteration (:meth:`CompiledTDG.from_table`) and replays
  against the same CSR arrays;
- :mod:`repro.verify` compiles one statically (:func:`compile_program`)
  instead of maintaining its own shadow graph — static-vs-DES edge
  equality becomes equality by construction;
- :mod:`repro.analysis.graphtools` and :mod:`repro.cluster.mapping` read
  the CSR arrays directly (shape metrics, rank partition summaries).

Artifacts are content-addressed: :func:`structural_signature` hashes the
program's *structure* (names, loop ids, dependences, taskwait positions,
firstprivate sizes, flops) together with the discovery optimization set —
everything that determines the discovered graph — through
:func:`repro.util.serde.content_key`.  Two structurally identical programs
compile to the same key in any process, which is what lets
:class:`CompiledGraphCache` (same atomic-write idiom as the campaign
:class:`~repro.campaign.cache.ResultCache`) share compiled graphs across
runs and across consumers.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.core.graph_stats import EdgeStats
from repro.util.serde import canonical_json, content_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.graph import TaskGraph
    from repro.core.optimizations import OptimizationSet
    from repro.core.program import Program
    from repro.runtime.costs import DiscoveryCosts
    from repro.sim.table import TaskTable

#: On-disk format of cached compiled graphs; bump on schema change so
#: stale entries miss instead of deserializing wrongly.
COMPILED_FORMAT = 3

#: Signature schema version (bump when the signature covers new fields —
#: old cache entries then miss, never alias).
_SIGNATURE_FORMAT = 1


# ======================================================================
# structural signature
# ======================================================================
def _spec_signature(spec) -> list:
    """The structure-determining fields of one :class:`TaskSpec`.

    Bodies, footprints and comm payloads may vary without changing the
    discovered graph; names, loop ids, dependences and taskwait positions
    may not.  ``fp_bytes`` and ``flops`` ride along because the compiled
    artifact stores them as columns (replay costs and shape weights).
    """
    return [
        spec.name,
        spec.loop_id,
        [[a, int(m)] for a, m in spec.depends],
        bool(spec.barrier),
        spec.fp_bytes,
        spec.flops,
    ]


def structural_signature(program: "Program", opts: "OptimizationSet") -> str:
    """Content hash identifying the graph ``compile_program`` would build.

    Iteration spec lists shared across iterations (the
    :meth:`~repro.core.program.Program.from_template` layout) are
    serialized once and reused, so signing a large program costs one pass
    over its distinct specs — content-equal programs hash equal whether
    or not their iterations share lists.
    """
    frag_by_list: dict[int, list] = {}
    iterations = []
    for it in program.iterations:
        frag = frag_by_list.get(id(it.tasks))
        if frag is None:
            frag = frag_by_list[id(it.tasks)] = [
                _spec_signature(s) for s in it.tasks
            ]
        iterations.append(frag)
    return content_key(
        {
            "format": _SIGNATURE_FORMAT,
            "persistent_candidate": bool(program.persistent_candidate),
            "opts": opts.to_dict(),
            "iterations": iterations,
        }
    )


# ======================================================================
# the artifact
# ======================================================================
@dataclass
class CompiledTDG:
    """A discovered TDG frozen into CSR arrays.

    All columns are aligned by ``tid``; ``succ_targets[succ_offsets[t]:
    succ_offsets[t + 1]]`` are ``t``'s successors in edge-creation order
    (duplicate edges kept — :attr:`stats` accounts for multiplicity).
    ``indegree`` is each task's total predecessor count including
    pre-satisfied edges (the runtime's ``npred_initial``), i.e. what a
    replay reset re-arms the task with.
    """

    #: Content key (:func:`structural_signature`) of the source program.
    key: str
    persistent: bool
    # ---- CSR ----------------------------------------------------------
    succ_offsets: list[int]
    succ_targets: list[int]
    indegree: list[int]
    # ---- aligned columns ---------------------------------------------
    name: list[str]
    loop_id: list[int]
    iteration: list[int]
    #: Barrier epoch per task (taskwait markers / persistent-iteration
    #: boundaries increment it) — the coarse happens-before relation.
    segment: list[int]
    #: Index of the originating spec within its iteration's task list
    #: (-1 for redirect stubs).
    spec_pos: list[int]
    is_stub: list[bool]
    fp_bytes: list[int]
    flops: list[float]
    #: Owning MPI rank per task (one rank per compiled program; kept as a
    #: column so cluster-level views can concatenate artifacts).
    owner: list[int]
    # ---- accounting ---------------------------------------------------
    stats: EdgeStats
    #: Predicted producer busy seconds per iteration (empty when compiled
    #: without a cost model; advisory — recompute from a
    #: :class:`~repro.runtime.costs.DiscoveryCosts` when costs differ).
    iteration_costs: list[float] = field(default_factory=list)
    # ---- comm-edge metadata (aligned columns) ------------------------
    #: :class:`~repro.core.program.CommKind` int per task, -1 when the
    #: task posts no MPI request.  Together with peer/tag/nbytes this is
    #: what the cross-rank verifier matches endpoints on — the static
    #: comm manifest is readable straight off cached artifacts.
    comm_kind: list[int] = field(default_factory=list)
    comm_peer: list[int] = field(default_factory=list)
    comm_tag: list[int] = field(default_factory=list)
    comm_nbytes: list[int] = field(default_factory=list)
    # ---- per-task discovery accounting (aligned columns) -------------
    #: Resolution counts per task — addresses scanned, edges created,
    #: edge-creations skipped, redirect stubs created.  Stubs carry
    #: zeros (their creation is charged to the creating task).  Together
    #: with a :class:`~repro.runtime.costs.DiscoveryCosts` these
    #: reconstruct the exact per-task producer cost
    #: (:meth:`creation_costs`), which is what lets the replay tier
    #: stamp submission times without re-resolving anything.
    disc_addrs: list[int] = field(default_factory=list)
    disc_edges: list[int] = field(default_factory=list)
    disc_skips: list[int] = field(default_factory=list)
    disc_redirects: list[int] = field(default_factory=list)
    # ---- memory-model columns ----------------------------------------
    #: Total footprint bytes each task touches (sum over its chunks) —
    #: what the DES memory hierarchy charges body time for.
    foot_bytes: list[int] = field(default_factory=list)
    #: Distinct footprint bytes over the whole graph (each chunk counted
    #: once at its largest extent): the working-set size the cheap tiers
    #: compare against cache capacities.
    distinct_foot_bytes: int = 0

    def __post_init__(self) -> None:
        # Artifacts built before the comm columns existed (or tests that
        # construct the dataclass directly) normalize to "no comm".
        if not self.comm_kind:
            n = len(self.indegree)
            self.comm_kind = [-1] * n
            self.comm_peer = [-1] * n
            self.comm_tag = [0] * n
            self.comm_nbytes = [0] * n
        # Same for the discovery columns: direct construction gets zero
        # counts (creation costs degrade to c_task per task).
        if not self.disc_addrs:
            n = len(self.indegree)
            self.disc_addrs = [0] * n
            self.disc_edges = [0] * n
            self.disc_skips = [0] * n
            self.disc_redirects = [0] * n
        if not self.foot_bytes:
            self.foot_bytes = [0] * len(self.indegree)

    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self.indegree)

    @property
    def n_user_tasks(self) -> int:
        return sum(1 for s in self.is_stub if not s)

    @property
    def n_stubs(self) -> int:
        return sum(1 for s in self.is_stub if s)

    @property
    def n_edges(self) -> int:
        """Materialized edges (with multiplicity), per the paper's counts."""
        return len(self.succ_targets)

    @property
    def stub_tids(self) -> list[int]:
        return [t for t, s in enumerate(self.is_stub) if s]

    @property
    def user_tids(self) -> list[int]:
        """Non-stub tids in submission order (the replay template)."""
        return [t for t, s in enumerate(self.is_stub) if not s]

    @property
    def comm_tids(self) -> list[int]:
        """Tids that post an MPI request, in submission order."""
        return [t for t, k in enumerate(self.comm_kind) if k >= 0]

    def successors(self, tid: int) -> list[int]:
        return self.succ_targets[self.succ_offsets[tid]:self.succ_offsets[tid + 1]]

    def unique_edges(self) -> set[tuple[int, int]]:
        """Distinct ``(pred, succ)`` pairs (multiplicity folded)."""
        offsets, targets = self.succ_offsets, self.succ_targets
        return {
            (p, s)
            for p in range(self.n_tasks)
            for s in targets[offsets[p]:offsets[p + 1]]
        }

    def replay_costs(self, costs: "DiscoveryCosts") -> list[float]:
        """Per-task re-instancing cost under ``costs``, aligned by tid.

        Stubs replay for free (they are re-armed wholesale at the
        barrier, not walked by the producer).
        """
        c_replay, c_fp = costs.c_replay, costs.c_fp_byte
        return [
            0.0 if stub else c_replay + c_fp * fp
            for stub, fp in zip(self.is_stub, self.fp_bytes)
        ]

    def creation_costs(self, costs: "DiscoveryCosts") -> list[float]:
        """Per-task first-discovery cost under ``costs``, aligned by tid.

        Exactly :meth:`DiscoveryCosts.creation_cost` replayed from the
        stored resolution counts; stubs cost nothing (their c_redirect is
        charged to the creating task's ``disc_redirects``).  Artifacts
        built without discovery columns (direct construction) degrade to
        ``c_task`` per user task.
        """
        return [
            0.0
            if stub
            else (
                costs.c_task
                + costs.c_dep * a
                + costs.c_edge * e
                + costs.c_edge_skip * s
                + costs.c_redirect * r
            )
            for stub, a, e, s, r in zip(
                self.is_stub,
                self.disc_addrs,
                self.disc_edges,
                self.disc_skips,
                self.disc_redirects,
            )
        ]

    # ------------------------------------------------------------------
    @classmethod
    def from_table(
        cls,
        table: "TaskTable",
        *,
        key: str,
        segment: Sequence[int],
        spec_pos: Sequence[int],
        owner: int = 0,
        iteration_costs: Sequence[float] = (),
        disc: Optional[Sequence[tuple[int, int, int, int]]] = None,
    ) -> "CompiledTDG":
        """Freeze a discovered :class:`~repro.sim.table.TaskTable`.

        Cheap by design (one CSR flatten plus column copies): the runtime
        calls this at the first persistent barrier, on the hot path of an
        uncached run.  ``segment`` and ``spec_pos`` are supplied by the
        caller — the table does not track them.  ``disc`` rows are
        ``(n_addrs, n_edges, n_skipped, n_redirects)`` per tid (zeros for
        stubs), filling the discovery columns.
        """
        n = len(table)
        if len(segment) != n or len(spec_pos) != n:
            raise ValueError(
                f"segment/spec_pos must align with the table "
                f"({len(segment)}/{len(spec_pos)} vs {n} tasks)"
            )
        if disc is not None and len(disc) != n:
            raise ValueError(
                f"disc must align with the table ({len(disc)} vs {n} tasks)"
            )
        offsets, targets = table.build_csr()
        stats = EdgeStats()
        stats.merge(table.stats)
        foot_bytes: list[int] = []
        chunk_extent: dict[int, int] = {}
        for fp in table.footprint:
            tot = 0
            for cid, nb in fp:
                tot += nb
                if nb > chunk_extent.get(cid, 0):
                    chunk_extent[cid] = nb
            foot_bytes.append(tot)
        comm_kind = [-1] * n
        comm_peer = [-1] * n
        comm_tag = [0] * n
        comm_nbytes = [0] * n
        for tid, c in enumerate(table.comm):
            if c is not None:
                comm_kind[tid] = int(c.kind)
                comm_peer[tid] = c.peer
                comm_tag[tid] = c.tag
                comm_nbytes[tid] = c.nbytes
        return cls(
            key=key,
            persistent=table.persistent,
            succ_offsets=offsets,
            succ_targets=targets,
            indegree=list(table.npred_initial),
            name=list(table.name),
            loop_id=list(table.loop_id),
            iteration=list(table.iteration),
            segment=list(segment),
            spec_pos=list(spec_pos),
            is_stub=list(table.is_stub),
            fp_bytes=list(table.fp_bytes),
            flops=list(table.flops),
            owner=[owner] * n,
            stats=stats,
            iteration_costs=list(iteration_costs),
            comm_kind=comm_kind,
            comm_peer=comm_peer,
            comm_tag=comm_tag,
            comm_nbytes=comm_nbytes,
            disc_addrs=[row[0] for row in disc] if disc is not None else [],
            disc_edges=[row[1] for row in disc] if disc is not None else [],
            disc_skips=[row[2] for row in disc] if disc is not None else [],
            disc_redirects=[row[3] for row in disc] if disc is not None else [],
            foot_bytes=foot_bytes,
            distinct_foot_bytes=sum(chunk_extent.values()),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict; inverse of :meth:`from_dict`."""
        return {
            "key": self.key,
            "persistent": self.persistent,
            "succ_offsets": self.succ_offsets,
            "succ_targets": self.succ_targets,
            "indegree": self.indegree,
            "name": self.name,
            "loop_id": self.loop_id,
            "iteration": self.iteration,
            "segment": self.segment,
            "spec_pos": self.spec_pos,
            "is_stub": self.is_stub,
            "fp_bytes": self.fp_bytes,
            "flops": self.flops,
            "owner": self.owner,
            "stats": self.stats.to_dict(),
            "iteration_costs": self.iteration_costs,
            "comm_kind": self.comm_kind,
            "comm_peer": self.comm_peer,
            "comm_tag": self.comm_tag,
            "comm_nbytes": self.comm_nbytes,
            "disc_addrs": self.disc_addrs,
            "disc_edges": self.disc_edges,
            "disc_skips": self.disc_skips,
            "disc_redirects": self.disc_redirects,
            "foot_bytes": self.foot_bytes,
            "distinct_foot_bytes": self.distinct_foot_bytes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CompiledTDG":
        d = dict(data)
        d["stats"] = EdgeStats.from_dict(d["stats"])
        d["is_stub"] = [bool(v) for v in d["is_stub"]]
        return cls(**d)


# ======================================================================
# compilation
# ======================================================================
def compile_program(
    program: "Program",
    opts: "OptimizationSet",
    *,
    costs: Optional["DiscoveryCosts"] = None,
    owner: int = 0,
    keep_graph: bool = False,
    bus=None,
) -> "CompiledTDG | tuple[CompiledTDG, TaskGraph]":
    """Statically discover ``program``'s TDG and freeze it.

    Walks the program through the production
    :class:`~repro.core.dependences.DependenceResolver` exactly as the
    producer thread would, with no task ever executing:

    - with optimization (p) active on a persistent candidate, only the
      template iteration is resolved and every later iteration is a
      replay (the implicit barrier resets the resolver) — matching the
      runtime's persistent mode, and matching the artifact the runtime
      snapshots at its first persistent barrier *by construction*;
    - otherwise every iteration is resolved against the same address
      map, so inter-iteration edges appear exactly as in a
      non-persistent run.

    Because no task completes during static discovery no edge is ever
    pruned: edge counts match a persistent-mode or non-overlapped DES run
    exactly.  ``costs`` fills :attr:`CompiledTDG.iteration_costs`;
    ``keep_graph`` additionally returns the builder
    :class:`~repro.core.graph.TaskGraph` (live :class:`Task` views for
    the verify layer).  ``bus`` (an
    :class:`~repro.sim.InstrumentationBus`) receives the same
    ``task_create`` events a DES producer would emit, with time 0.0
    (static compilation has no clock) — discovery counters work
    identically on compiled and simulated discovery.
    """
    from repro.core.dependences import DependenceResolver
    from repro.core.graph import TaskGraph
    from repro.core.task import split_footprint

    persistent = opts.p and program.persistent_candidate
    graph = TaskGraph(persistent=persistent)
    table = graph.table
    resolver = DependenceResolver(table, opts)
    create_cbs = bus.task_create if bus is not None else None
    # Normalized footprint per spec object: ``Program.from_template``
    # shares spec objects across iterations, so each is split once.
    spec_prep: dict[int, tuple] = {}
    segment: list[int] = []
    spec_pos: list[int] = []
    disc: list[tuple[int, int, int, int]] = []
    iteration_costs: list[float] = []
    seg = 0

    for it in program.iterations:
        it_cost = 0.0
        if persistent and it.index > 0:
            # Replay: no resolution, only firstprivate copies.
            if costs is not None:
                it_cost = sum(
                    costs.replay_cost(spec)
                    for spec in it.tasks
                    if not spec.barrier
                )
            iteration_costs.append(it_cost)
            seg += 1  # the implicit end-of-iteration barrier
            continue
        for pos, spec in enumerate(it.tasks):
            if spec.barrier:
                seg += 1
                continue
            prep = spec_prep.get(id(spec))
            if prep is None:
                prep = spec_prep[id(spec)] = split_footprint(spec.footprint)
            tid = table.new_fast(
                spec.name, spec.loop_id, it.index, spec.flops,
                prep[0], prep[1], spec.fp_bytes, spec.comm, None,
            )
            segment.append(seg)
            spec_pos.append(pos)
            res = resolver.resolve_tid(tid, spec.depends)
            table.npred_initial[tid] = table.npred[tid] + table.presat[tid]
            disc.append(
                (res.n_addrs, res.n_edges, res.n_skipped, res.n_redirects)
            )
            for _stub in res.redirect_tids:
                # Stubs are created during this task's resolution and
                # share its barrier epoch.
                segment.append(seg)
                spec_pos.append(-1)
                disc.append((0, 0, 0, 0))
            cost = costs.creation_cost(spec, res) if costs is not None else 0.0
            it_cost += cost
            if create_cbs:
                for cb in create_cbs:
                    cb(table, tid, res, cost, 0.0)
        iteration_costs.append(it_cost)
        if persistent:
            resolver.reset()
            seg += 1

    compiled = CompiledTDG.from_table(
        table,
        key=structural_signature(program, opts),
        segment=segment,
        spec_pos=spec_pos,
        owner=owner,
        iteration_costs=iteration_costs if costs is not None else (),
        disc=disc,
    )
    if keep_graph:
        return compiled, graph
    return compiled


# ======================================================================
# the cache
# ======================================================================
class CompiledGraphCache:
    """A directory of compiled graphs, content-addressed by signature.

    Same idiom as the campaign :class:`~repro.campaign.cache.ResultCache`:
    ``<root>/<key[:2]>/<key>.json`` entries written atomically (temp file
    + ``os.replace``), safe under concurrent writers, resumable.  A hit
    means "this exact program structure was already compiled" — by this
    process, a campaign worker, or a previous run entirely.
    """

    #: Subdirectory name campaign caches use for their compiled graphs.
    SUBDIR = "compiled"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @classmethod
    def for_campaign(cls, cache_root: Union[str, Path]) -> "CompiledGraphCache":
        """The compiled-graph cache nested inside a campaign cache dir."""
        return cls(Path(cache_root) / cls.SUBDIR)

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def contains(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def get(self, key: str) -> Optional[CompiledTDG]:
        """The cached artifact for ``key``, or None on miss/stale format."""
        path = self.path_for(key)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if doc.get("format") != COMPILED_FORMAT or doc.get("key") != key:
            return None
        return CompiledTDG.from_dict(doc["compiled"])

    def put(self, compiled: CompiledTDG) -> Path:
        """Store ``compiled`` under its key, atomically."""
        key = compiled.key
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = canonical_json(
            {"format": COMPILED_FORMAT, "key": key, "compiled": compiled.to_dict()}
        )
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(doc)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------
    # alias index: arbitrary string key -> structural signature
    #
    # The cheap fidelity tiers key their warm path off the *spec* (app +
    # params + opts), which is knowable without building the program —
    # but artifacts are addressed by structural_signature, which is not.
    # The alias layer bridges the two: a tiny <root>/alias/<key>.json
    # pointing at the signature, written with the same atomic idiom.
    def alias_path(self, alias: str) -> Path:
        return self.root / "alias" / alias[:2] / f"{alias}.json"

    def get_alias(self, alias: str) -> Optional[str]:
        """The signature a previously stored alias points to, or None."""
        try:
            doc = json.loads(self.alias_path(alias).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if doc.get("format") != COMPILED_FORMAT or doc.get("alias") != alias:
            return None
        key = doc.get("key")
        return key if isinstance(key, str) else None

    def put_alias(self, alias: str, key: str) -> Path:
        """Record ``alias -> key``, atomically."""
        path = self.alias_path(alias)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = canonical_json(
            {"format": COMPILED_FORMAT, "alias": alias, "key": key}
        )
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{alias[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(doc)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def invalidate(self, key: str) -> bool:
        """Drop a stale artifact (e.g. after a
        :class:`~repro.core.persistent.PersistentStructureError`);
        returns whether an entry existed."""
        try:
            os.unlink(self.path_for(key))
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def keys(self) -> list[str]:
        """Sorted keys of every stored artifact."""
        return sorted(p.stem for p in self.root.glob("*/*.json"))
