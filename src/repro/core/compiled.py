"""The compiled TDG: one frozen CSR graph artifact shared by every layer.

The paper's flagship optimization — the persistent task sub-graph (§3.2) —
wins by *reusing* a discovered graph instead of rediscovering it.  This
module gives the reproduction a single frozen representation of a
discovered TDG that every consumer reads:

- :func:`compile_program` is its one producer: the production resolver
  walks the program and :meth:`CompiledTDG.from_table` freezes the table,
  which for a persistent or non-overlapped run is the table the DES
  discovers;
- :mod:`repro.verify` compiles one statically instead of maintaining its
  own shadow graph — static-vs-DES edge equality becomes equality by
  construction;
- :mod:`repro.analysis.graphtools` reads the CSR arrays directly (shape
  metrics).

Artifacts are content-addressed: :func:`structural_signature` hashes the
program's *structure* (names, loop ids, dependences, taskwait positions,
firstprivate sizes, flops) together with the discovery optimization set —
everything that determines the discovered graph — as the sha256 of one
canonical-JSON document.  Two structurally identical programs compile to
the same key in any process, which is what lets
:class:`CompiledGraphCache` (atomic files next to the campaign store)
share compiled graphs across runs.  An artifact holds structure only,
no cost model, so one key always names the same bytes.  On disk an
artifact is a digest-checked file of typed little-endian column arrays
(:meth:`CompiledTDG.to_bytes`); a damaged, stale or misfiled one decodes
to None (:meth:`CompiledTDG.from_bytes`), so it misses and is recompiled,
never misparsed.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.graph_stats import EdgeStats, topological_order
from repro.util.serde import canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.optimizations import OptimizationSet
    from repro.core.program import Program
    from repro.runtime.costs import DiscoveryCosts
    from repro.sim.table import TaskTable

#: On-disk format of cached compiled graphs; bump on schema change so
#: stale entries miss instead of deserializing wrongly.  Format 5 is the
#: binary column layout of :meth:`CompiledTDG.to_bytes`, structure only,
#: with the iteration count in the header.
COMPILED_FORMAT = 5

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

    The sha256 of the canonical JSON of ``{"format", "iterations",
    "opts", "persistent_candidate"}``, streamed: each distinct iteration
    spec list (the :meth:`~repro.core.program.Program.from_template`
    layout shares one across iterations) is encoded once and its bytes
    are fed to the hash once per iteration, so signing a large program
    costs one pass over its distinct specs — content-equal programs hash
    equal whether or not their iterations share lists.
    """
    frag_by_list: dict[int, bytes] = {}
    h = hashlib.sha256(b'{"format":%d,"iterations":[' % _SIGNATURE_FORMAT)
    for i, it in enumerate(program.iterations):
        frag = frag_by_list.get(id(it.tasks))
        if frag is None:
            frag = frag_by_list[id(it.tasks)] = canonical_json(
                [_spec_signature(s) for s in it.tasks]
            ).encode()
        if i:
            h.update(b",")
        h.update(frag)
    # Keys after "iterations", in canonical (sorted) order.
    h.update(
        (
            '],"opts":' + canonical_json(opts.to_dict())
            + ',"persistent_candidate":'
            + canonical_json(bool(program.persistent_candidate)) + "}"
        ).encode()
    )
    return h.hexdigest()


# ======================================================================
# the artifact
# ======================================================================
#: Little-endian byte length of the canonical-JSON header that opens an
#: artifact file.
_HEADER_LEN = struct.Struct("<I")

#: Integer column types, narrowest first: each integer column is stored
#: in the first that holds its range, so the type follows the content
#: and equal artifacts encode to equal bytes.
_INT_DTYPES = ("<i1", "<i2", "<i4", "<i8")
_INT_RANGES = tuple((d, np.iinfo(d).min, np.iinfo(d).max) for d in _INT_DTYPES)

#: The payload's columns in file order, each with the types it may take.
#: ``name`` holds ``<i4`` codes into the header's sorted ``names``.
_COLUMNS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("succ_offsets", _INT_DTYPES),
    ("succ_targets", _INT_DTYPES),
    ("indegree", _INT_DTYPES),
    ("name", ("<i4",)),
    ("loop_id", _INT_DTYPES),
    ("iteration", _INT_DTYPES),
    ("segment", _INT_DTYPES),
    ("spec_pos", _INT_DTYPES),
    ("is_stub", ("|b1",)),
    ("fp_bytes", _INT_DTYPES),
    ("flops", ("<f8",)),
    ("owner", _INT_DTYPES),
    ("comm_kind", _INT_DTYPES),
    ("comm_peer", _INT_DTYPES),
    ("comm_tag", _INT_DTYPES),
    ("comm_nbytes", _INT_DTYPES),
    ("disc_addrs", _INT_DTYPES),
    ("disc_edges", _INT_DTYPES),
    ("disc_skips", _INT_DTYPES),
    ("disc_redirects", _INT_DTYPES),
    ("foot_bytes", _INT_DTYPES),
)

#: Columns with one entry per task (the CSR is sized otherwise).
_PER_TASK = tuple(
    c for c, _ in _COLUMNS if c not in ("succ_offsets", "succ_targets")
)

#: The numeric columns :attr:`CompiledTDG.arrays` holds, each with the
#: type a list column converts to (integers ``<i8``).
_ARRAY_DTYPES = tuple(
    (c, "<i8" if dtypes is _INT_DTYPES else dtypes[0])
    for c, dtypes in _COLUMNS
    if c != "name"
)


def _encode_column(values: list, dtypes: tuple[str, ...]) -> tuple[str, np.ndarray]:
    """``(dtype, array)`` for one column; integers take the narrowest type."""
    if dtypes is not _INT_DTYPES:
        return dtypes[0], np.asarray(values, dtype=dtypes[0])
    if not values:
        return _INT_DTYPES[0], np.zeros(0, dtype=_INT_DTYPES[0])
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"integer column holds {arr.dtype} values")
    lo, hi = arr.min(), arr.max()
    dtype = next(d for d, dmin, dmax in _INT_RANGES if dmin <= lo and hi <= dmax)
    return dtype, arr.astype(dtype)


def _digest(header: dict, payload) -> str:
    """sha256 over the canonical header (without its digest) and payload."""
    h = hashlib.sha256(canonical_json(header).encode())
    h.update(payload)
    return h.hexdigest()


def _read_only(arrays: dict[str, np.ndarray]) -> Mapping[str, np.ndarray]:
    """``arrays`` frozen: non-writeable arrays behind a read-only mapping."""
    for arr in arrays.values():
        arr.flags.writeable = False
    return MappingProxyType(arrays)


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
    #: The source program's iteration count: how many times a persistent
    #: graph executes (once per iteration, the template included).
    n_iterations: int
    # ---- comm-edge metadata (aligned columns) ------------------------
    #: :class:`~repro.core.program.CommKind` int per task, -1 when the
    #: task posts no MPI request.  Together with peer/tag/nbytes these
    #: rows, in :attr:`comm_tids` order, are the operations the rank
    #: posts; the cross-rank verifier (:mod:`repro.verify.mpi`) reads a
    #: rank's operations from these columns alone.
    comm_kind: list[int]
    comm_peer: list[int]
    comm_tag: list[int]
    comm_nbytes: list[int]
    # ---- per-task discovery accounting (aligned columns) -------------
    #: Resolution counts per task — addresses scanned, edges created,
    #: edge-creations skipped, redirect stubs created.  Stubs carry
    #: zeros (their creation is charged to the creating task).  Together
    #: with a :class:`~repro.runtime.costs.DiscoveryCosts` these
    #: reconstruct the exact per-task producer cost
    #: (:meth:`creation_costs`), which is what lets the replay tier
    #: stamp submission times without re-resolving anything.
    disc_addrs: list[int]
    disc_edges: list[int]
    disc_skips: list[int]
    disc_redirects: list[int]
    # ---- memory-model columns ----------------------------------------
    #: Total footprint bytes each task touches (sum over its chunks) —
    #: what the DES memory hierarchy charges body time for.
    foot_bytes: list[int]
    #: Distinct footprint bytes over the whole graph (each chunk counted
    #: once at its largest extent): the working-set size the cheap tiers
    #: compare against cache capacities.
    distinct_foot_bytes: int

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

    @cached_property
    def topo_order(self) -> list[int]:
        """The graph's :func:`~repro.core.graph_stats.topological_order`.

        Derived once per artifact and never serialized: every sequential
        pass over the CSR walks this order, because tid order is not
        topological once redirect stubs exist (the analytic tier's
        frontier-by-frontier relaxation needs none).  The CSR is never
        mutated after construction, so the cache cannot go stale.
        """
        return topological_order(self.succ_offsets, self.succ_targets)

    @cached_property
    def arrays(self) -> Mapping[str, np.ndarray]:
        """Every column but ``name`` as a read-only numpy array, by name.

        What :func:`~repro.sim.tiers.tier_weights` and the analytic
        tier compute on.  A decoded artifact
        (:meth:`from_bytes`) starts with the arrays it decoded, in their
        stored types (integers ``<i1``..``<i8``); any other artifact
        converts its list columns once, on first use (integers ``<i8``).
        Never serialized; the columns are never mutated after
        construction, so the view cannot go stale.
        """
        return _read_only(
            {c: np.asarray(getattr(self, c), dtype=d) for c, d in _ARRAY_DTYPES}
        )

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

    def creation_costs(self, costs: "DiscoveryCosts") -> list[float]:
        """Per-task first-discovery cost under ``costs``, aligned by tid.

        Exactly :meth:`DiscoveryCosts.creation_cost` replayed from the
        stored resolution counts; stubs cost nothing (their c_redirect is
        charged to the creating task's ``disc_redirects``).
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
        disc: Sequence[tuple[int, int, int, int]],
        n_iterations: int,
        owner: int = 0,
    ) -> "CompiledTDG":
        """Freeze a discovered :class:`~repro.sim.table.TaskTable`.

        One CSR flatten plus column copies.  ``segment`` and ``spec_pos``
        are supplied by the caller — the table does not track them.
        ``disc`` rows are ``(n_addrs, n_edges, n_skipped, n_redirects)``
        per tid (zeros for stubs), filling the discovery columns.
        """
        n = len(table)
        if len(segment) != n or len(spec_pos) != n or len(disc) != n:
            raise ValueError(
                f"segment/spec_pos/disc must align with the table "
                f"({len(segment)}/{len(spec_pos)}/{len(disc)} vs {n} tasks)"
            )
        offsets, targets = table.build_csr()
        stats = EdgeStats()
        stats.merge(table.stats)
        foot_bytes: list[int] = []
        chunk_extent: dict[int, int] = {}
        for fp in table.footprint:
            tot = 0
            for entry in fp:  # (chunk, bytes) or (chunk, bytes, mode)
                cid = entry[0]
                nb = entry[1]
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
            n_iterations=n_iterations,
            comm_kind=comm_kind,
            comm_peer=comm_peer,
            comm_tag=comm_tag,
            comm_nbytes=comm_nbytes,
            disc_addrs=[row[0] for row in disc],
            disc_edges=[row[1] for row in disc],
            disc_skips=[row[2] for row in disc],
            disc_redirects=[row[3] for row in disc],
            foot_bytes=foot_bytes,
            distinct_foot_bytes=sum(chunk_extent.values()),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Every field as plain JSON-ready values (for comparing artifacts)."""
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
            "n_iterations": self.n_iterations,
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

    def to_bytes(self) -> bytes:
        """The artifact file: header length, header, column payload.

        A little-endian ``uint32`` header length, then a canonical-JSON
        header (format, key, scalar fields, the sorted distinct task
        ``names``, the column layout ``[name, dtype, count]`` and a
        ``sha256`` over the rest of the header and the payload), then
        each column's little-endian bytes in layout order.  Integer
        columns take the narrowest of ``<i1``..``<i8`` holding their
        range, floats are ``<f8`` (bit-exact), ``is_stub`` is ``|b1`` and
        ``name`` is stored as ``<i4`` codes into ``names`` — so equal
        artifacts give equal bytes.
        """
        names = sorted(set(self.name))
        code = {nm: i for i, nm in enumerate(names)}
        layout: list[list] = []
        parts: list[bytes] = []
        for col, dtypes in _COLUMNS:
            values = getattr(self, col)
            if col == "name":
                values = [code[nm] for nm in values]
            dtype, arr = _encode_column(values, dtypes)
            layout.append([col, dtype, len(arr)])
            parts.append(arr.tobytes())
        payload = b"".join(parts)
        header = {
            "format": COMPILED_FORMAT,
            "key": self.key,
            "persistent": self.persistent,
            "stats": self.stats.to_dict(),
            "n_iterations": self.n_iterations,
            "distinct_foot_bytes": self.distinct_foot_bytes,
            "names": names,
            "columns": layout,
        }
        header["sha256"] = _digest(header, payload)
        head = canonical_json(header).encode()
        return _HEADER_LEN.pack(len(head)) + head + payload

    @classmethod
    def from_bytes(cls, buf: bytes, key: str) -> Optional["CompiledTDG"]:
        """Decode a :meth:`to_bytes` file stored under ``key``, else None.

        Never raises on bad input.  A short buffer, a header that does
        not parse, another format or key, an unexpected column set or
        dtype, counts that do not align (``n + 1`` offsets,
        ``offsets[-1]`` targets, ``n`` per task), missing or extra
        payload bytes, a digest mismatch and a missing, non-integer or
        negative ``n_iterations`` all return None: a damaged,
        stale or misfiled artifact misses rather than misparses.  The
        decoded column arrays, views of ``buf``, become the artifact's
        :attr:`arrays`.
        """
        if len(buf) < _HEADER_LEN.size:
            return None
        start = _HEADER_LEN.size + _HEADER_LEN.unpack_from(buf)[0]
        try:
            header = json.loads(buf[_HEADER_LEN.size:start])
        except (ValueError, RecursionError):  # also UnicodeDecodeError
            return None
        if (
            not isinstance(header, dict)
            or header.get("format") != COMPILED_FORMAT
            or header.get("key") != key
        ):
            return None
        layout = header.get("columns")
        if not isinstance(layout, list) or len(layout) != len(_COLUMNS):
            return None
        arrays: dict[str, np.ndarray] = {}
        offset = start
        for (col, dtypes), entry in zip(_COLUMNS, layout):
            if not (
                isinstance(entry, list)
                and len(entry) == 3
                and entry[0] == col
                and entry[1] in dtypes
                and type(entry[2]) is int
                and entry[2] >= 0
            ):
                return None
            dtype = np.dtype(entry[1])
            end = offset + entry[2] * dtype.itemsize
            if end > len(buf):
                return None
            arrays[col] = np.frombuffer(buf, dtype, entry[2], offset)
            offset = end
        n = len(arrays["indegree"])
        offsets = arrays["succ_offsets"]
        if (
            offset != len(buf)
            or len(offsets) != n + 1
            or len(arrays["succ_targets"]) != offsets[-1]
            or any(len(arrays[c]) != n for c in _PER_TASK)
        ):
            return None
        digest = header.pop("sha256", None)
        try:
            if digest != _digest(header, memoryview(buf)[start:]):
                return None
            stats = EdgeStats.from_dict(header["stats"])
        except (KeyError, TypeError, ValueError):
            return None
        names = header.get("names")
        codes = arrays.pop("name")
        persistent = header.get("persistent")
        n_iterations = header.get("n_iterations")
        distinct = header.get("distinct_foot_bytes")
        if (
            not isinstance(names, list)
            or not isinstance(persistent, bool)
            or type(n_iterations) is not int
            or n_iterations < 0
            or type(distinct) is not int
            or (n and not (0 <= codes.min() and codes.max() < len(names)))
        ):
            return None
        art = cls(
            key=key,
            persistent=persistent,
            stats=stats,
            n_iterations=n_iterations,
            distinct_foot_bytes=distinct,
            name=np.asarray(names, dtype=object)[codes].tolist(),
            **{col: arr.tolist() for col, arr in arrays.items()},
        )
        art.__dict__["arrays"] = _read_only(arrays)  # fills the cached view
        return art


# ======================================================================
# compilation
# ======================================================================
def compile_program(
    program: "Program",
    opts: "OptimizationSet",
    *,
    costs: Optional["DiscoveryCosts"] = None,
    owner: int = 0,
    bus=None,
) -> CompiledTDG:
    """Statically discover ``program``'s TDG and freeze it.

    Walks the program through the production
    :class:`~repro.core.dependences.DependenceResolver` exactly as the
    producer thread would, with no task ever executing:

    - with optimization (p) active on a persistent candidate, only the
      template iteration is resolved and every later iteration is a
      replay (the implicit barrier resets the resolver) — matching the
      runtime's persistent mode, whose table at its first persistent
      barrier freezes to the same bytes *by construction*;
    - otherwise every iteration is resolved against the same address
      map, so inter-iteration edges appear exactly as in a
      non-persistent run.

    Because no task completes during static discovery no edge is ever
    pruned: edge counts match a persistent-mode or non-overlapped DES run
    exactly.  The walk fills a private
    :class:`~repro.sim.table.TaskTable` and freezes it with
    :meth:`CompiledTDG.from_table`.  ``bus`` (an
    :class:`~repro.sim.InstrumentationBus`) receives the same
    ``task_create`` events a DES producer would emit, with time 0.0
    (static compilation has no clock) and each task priced by ``costs``
    (0.0 without) — discovery counters work identically on compiled and
    simulated discovery.  The artifact itself never depends on ``costs``.
    """
    from repro.core.dependences import DependenceResolver
    from repro.sim.table import TaskTable

    persistent = opts.p and program.persistent_candidate
    table = TaskTable(persistent=persistent)
    resolver = DependenceResolver(table, opts)
    create_cbs = bus.task_create if bus is not None else None
    segment: list[int] = []
    spec_pos: list[int] = []
    disc: list[tuple[int, int, int, int]] = []
    seg = 0

    for it in program.iterations:
        if persistent and it.index > 0:
            # Replay: no resolution, only firstprivate copies.
            seg += 1  # the implicit end-of-iteration barrier
            continue
        for pos, spec in enumerate(it.tasks):
            if spec.barrier:
                seg += 1
                continue
            tid = table.new_fast(
                spec.name, spec.loop_id, it.index, spec.flops,
                spec.footprint, spec.fp_bytes, spec.comm, None,
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
            if create_cbs:
                cost = costs.creation_cost(spec, res) if costs is not None else 0.0
                for cb in create_cbs:
                    cb(table, tid, res, cost, 0.0)
        if persistent:
            resolver.reset()
            seg += 1

    return CompiledTDG.from_table(
        table,
        key=structural_signature(program, opts),
        segment=segment,
        spec_pos=spec_pos,
        disc=disc,
        n_iterations=program.n_iterations,
        owner=owner,
    )


# ======================================================================
# the cache
# ======================================================================
def _write_atomic(path: Path, data: bytes) -> Path:
    """Write ``data`` to ``path``: temp file + ``os.replace``.

    Readers see the old entry or the new one, never a torn write; a
    failed write removes its temp file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem[:8]}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


class CompiledGraphCache:
    """A directory of compiled graphs, content-addressed by signature.

    ``<root>/<key[:2]>/<key>.tdg`` entries (:meth:`CompiledTDG.to_bytes`)
    written atomically (temp file + ``os.replace``), safe under
    concurrent writers, resumable.  The cheap-tier runner
    (:func:`repro.campaign.runner.run_experiment` at ``analytic`` or
    ``replay``) is its one writer and its one reader.  A hit means "this
    exact program structure was already compiled" — by this process, a
    campaign worker, or a previous run entirely.  An entry that does not
    decode for its key (damaged, truncated, another format, copied under
    another name) is a miss; format-3 ``<key>.json`` artifacts are never
    read.  The directory is created by the first write.  The artifact of
    the last decode is kept with the bytes it came from, so a replay and
    an analytic spec of one program decode it once.
    """

    #: Subdirectory name campaign caches use for their compiled graphs.
    SUBDIR = "compiled"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        #: ``(key, file bytes, artifact)`` of the last successful decode.
        self._last: Optional[tuple[str, bytes, CompiledTDG]] = None

    @classmethod
    def for_campaign(cls, cache_root: Union[str, Path]) -> "CompiledGraphCache":
        """The compiled-graph cache nested inside a campaign directory."""
        return cls(Path(cache_root) / cls.SUBDIR)

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.tdg"

    def get(self, key: str) -> Optional[CompiledTDG]:
        """The stored artifact for ``key``, or None when it is missing or
        does not decode as a current-format artifact of ``key``.

        The file is read every time; while it still holds the bytes of
        the last decode, that decode's artifact is returned again (callers
        share it: an artifact is never mutated after construction).  Any
        other request drops the kept artifact before decoding.
        """
        last, self._last = self._last, None
        try:
            buf = self.path_for(key).read_bytes()
        except OSError:
            return None
        if last is not None and last[0] == key and last[1] == buf:
            self._last = last
            return last[2]
        art = CompiledTDG.from_bytes(buf, key)
        if art is not None:
            self._last = (key, buf, art)
        return art

    def put(self, compiled: CompiledTDG) -> Path:
        """Store ``compiled`` under its key, atomically."""
        return _write_atomic(self.path_for(compiled.key), compiled.to_bytes())

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
        doc = {"format": COMPILED_FORMAT, "alias": alias, "key": key}
        return _write_atomic(
            self.alias_path(alias), (canonical_json(doc) + "\n").encode()
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.tdg"))

    def keys(self) -> list[str]:
        """Sorted keys of every stored artifact."""
        return sorted(p.stem for p in self.root.glob("*/*.tdg"))
