"""Campaign-scoped SQLite stores: results, traces, counters.

:class:`CampaignDB` owns one store file and its two connections — a
**write** connection (WAL journal) and a lazily-opened **read-only**
query connection — the pyotter ``otter/db`` split that lets analyses
run against a store a campaign is still writing.  Every write is one
transaction of plain ``executemany`` calls (:func:`_transaction`), so a
failed write leaves the store as it was.

:class:`DbResultStore` is the campaign result store built on it:
``get`` / ``put`` / ``put_error`` keyed by the spec's sha256, so
``run_campaign(store=...)`` resumes and deduplicates by content key
while every result lands as a queryable row.  :func:`open_store` opens
it from a locator path (a ``.sqlite`` file, or a campaign directory
holding :data:`STORE_FILENAME`), which is how campaign worker processes
reopen the parent's store.

:func:`write_trace` stores a finished
:class:`~repro.obs.recorder.TraceRecorder` and :func:`write_counters` a
discovery-counters snapshot; span, barrier, comm and counter columns map
1:1 onto the ``repro.obs.trace`` v1 event fields and the
``repro.obs.counters`` v1 rows (see :mod:`repro.db.schema`).
"""

from __future__ import annotations

import hashlib
import json
import math
import sqlite3
from contextlib import contextmanager
from itertools import count, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

from repro.db.schema import (
    SCHEMA_VERSION,
    SchemaError,
    check_schema,
    columns_of,
    init_schema,
    insert_sql,
    stored_version,
)
from repro.util.serde import canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.spec import ExperimentSpec
    from repro.obs.critical_path import CriticalPathResult
    from repro.obs.profile import ProfileReport
    from repro.obs.recorder import TraceRecorder
    from repro.runtime.result import RunResult

#: The store file a campaign directory (``--cache-dir``) holds.
STORE_FILENAME = "campaign.sqlite"

#: File suffixes :func:`open_store` treats as SQLite stores.
_DB_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: Milliseconds a connection waits on a locked store before failing —
#: generous because campaign worker pools write concurrently.
_BUSY_TIMEOUT_MS = 30_000


def run_id(run: str) -> int:
    """The 60-bit integer id the trace tables use for a run key.

    Content-derived (a sha256 prefix), so the id is stable across
    processes and insertion orders — byte-identical dumps need nothing
    beyond the key itself.  ``trace_runs`` maps ids back to keys.  60
    bits keep the value well inside SQLite's signed 64-bit INTEGER while
    making collisions between the handful of runs a store holds
    vanishingly unlikely.
    """
    return int(hashlib.sha256(run.encode()).hexdigest()[:15], 16)


class CampaignDB:
    """One store file; write and read-only connections open lazily."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._conn: Optional[sqlite3.Connection] = None
        self._read: Optional[sqlite3.Connection] = None

    # -- connections ----------------------------------------------------
    @property
    def conn(self) -> sqlite3.Connection:
        """The write connection (created on first use; WAL mode)."""
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path, isolation_level=None)
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
                init_schema(conn)
                check_schema(conn)
            except BaseException as exc:
                conn.close()
                # Locked, read-only or I/O failures pass through; any
                # other database error means the file is not a store.
                if isinstance(exc, sqlite3.DatabaseError) and not isinstance(
                    exc, sqlite3.OperationalError
                ):
                    raise SchemaError(
                        f"not a repro.db store: {self.path}: {exc}"
                    ) from exc
                raise
            self._conn = conn
        return self._conn

    @property
    def read(self) -> sqlite3.Connection:
        """The read-only query connection (never writes, never migrates)."""
        if self._read is None:
            if not self.path.is_file():
                raise SchemaError(f"no such store: {self.path}")
            try:
                conn = sqlite3.connect(
                    f"file:{self.path}?mode=ro", uri=True,
                    isolation_level=None,
                )
                conn.execute("SELECT 1 FROM sqlite_master LIMIT 1")
            except sqlite3.OperationalError:
                # A live WAL writer can block pure read-only opens (no
                # -shm access); fall back to a write-capable handle
                # pinned read-only at the SQLite level.
                conn = sqlite3.connect(self.path, isolation_level=None)
                try:
                    conn.execute("PRAGMA query_only=ON")
                except sqlite3.DatabaseError as exc:
                    conn.close()
                    raise SchemaError(
                        f"not a repro.db store: {self.path}: {exc}"
                    ) from exc
            except sqlite3.DatabaseError as exc:
                raise SchemaError(
                    f"not a repro.db store: {self.path}: {exc}"
                ) from exc
            conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
            schema, version = stored_version(conn)
            if schema != "repro.db" or version != SCHEMA_VERSION:
                conn.close()
                raise SchemaError(
                    f"store {self.path} has schema {schema!r} version "
                    f"{version}; this code reads repro.db version "
                    f"{SCHEMA_VERSION} (open for writing to migrate)"
                )
            self._read = conn
        return self._read

    def close(self) -> None:
        # The read connection first: only a write connection's close can
        # checkpoint, and only the last close in the process does, which
        # leaves the store file self-contained.
        for conn in (self._read, self._conn):
            if conn is not None:
                conn.close()
        self._conn = self._read = None

    def __enter__(self) -> "CampaignDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- querying -------------------------------------------------------
    def query(
        self, sql: str, params: Sequence = ()
    ) -> tuple[list[str], list[tuple]]:
        """Run ``sql`` on the read-only connection.

        Returns ``(column_names, rows)`` — the shape every canned report
        and the ``repro query --sql`` passthrough emit.
        """
        cur = self.read.execute(sql, params)
        columns = [d[0] for d in cur.description] if cur.description else []
        return columns, cur.fetchall()

    def table_counts(self) -> dict[str, int]:
        """Row count per table (deterministic key order)."""
        from repro.db.schema import TABLES

        out = {}
        for name in sorted(TABLES):
            (count,) = self.read.execute(
                f"SELECT COUNT(*) FROM {name}"
            ).fetchone()
            out[name] = int(count)
        return out

    def dump(self) -> str:
        """The full SQL dump — byte-identical for identical campaigns.

        ``WITHOUT ROWID`` tables dump rows in primary-key order, so the
        dump is independent of worker scheduling; nothing wall-clock is
        ever stored (schema rule), so it is stable across re-runs.
        """
        return "\n".join(self.conn.iterdump())


@contextmanager
def _transaction(db: CampaignDB) -> Iterator[sqlite3.Connection]:
    """One ``BEGIN IMMEDIATE … COMMIT`` on ``db``'s write connection.

    Any exception rolls the whole transaction back.  A transaction that
    is already open is joined, not nested, so a composite write (e.g.
    :func:`store_profile`) commits once or not at all.
    """
    conn = db.conn
    if conn.in_transaction:
        yield conn
        return
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield conn
        conn.execute("COMMIT")
    except BaseException:
        conn.execute("ROLLBACK")
        raise


# ======================================================================
# the campaign result store
# ======================================================================
class DbResultStore:
    """Content-addressed result store backed by :class:`CampaignDB`.

    The one result backend the campaign engine drives (``contains``/
    ``get``/``put``/``put_error``/``get_error``/``keys``/``len``), keyed
    by the spec sha256: a hit means "this exact experiment already ran".
    It is also the worker→parent channel and the resume state, and every
    result is extracted into queryable ``specs``/``runs`` rows.
    ``campaign`` tags rows so reports can compare two campaign ids in
    one store.
    """

    def __init__(
        self,
        path: Union[str, Path, CampaignDB],
        *,
        campaign: str = "",
    ) -> None:
        self.db = path if isinstance(path, CampaignDB) else CampaignDB(path)
        self.campaign = campaign

    # -- locator protocol (how worker processes reopen the store) -------
    @property
    def locator(self) -> str:
        return str(self.db.path)

    @property
    def root(self) -> Path:
        """Directory alongside the store file (compiled-TDG artifacts
        and other campaign-scoped files nest here)."""
        return self.db.path.parent

    # -- result interface -----------------------------------------------
    def contains(self, spec: "ExperimentSpec") -> bool:
        try:
            row = self.db.read.execute(
                "SELECT 1 FROM runs WHERE key = ?", (spec.key,)
            ).fetchone()
        except SchemaError:
            # A store nobody has written yet contains nothing.
            return False
        return row is not None

    def get(self, spec: "ExperimentSpec") -> Optional["RunResult"]:
        """The stored result for ``spec``, or None on miss."""
        from repro.runtime.result import RunResult

        try:
            row = self.db.read.execute(
                "SELECT doc FROM runs WHERE key = ?", (spec.key,)
            ).fetchone()
        except SchemaError:
            return None
        if row is None:
            return None
        return RunResult.from_dict(json.loads(row[0]))

    def put(self, spec: "ExperimentSpec", result: "RunResult") -> None:
        """Store spec + result rows in one transaction (the resume unit)."""
        extra = result.extra
        bounds = extra.get("bounds") or {}
        compiled = extra.get("compiled_tdg") or {}
        cache_hit = compiled.get("cache_hit")
        spec_row = (
            spec.key,
            spec.app,
            spec.engine,
            spec.fidelity,
            spec.ranks,
            spec.seed,
            spec.scale,
            spec.config.name,
            canonical_json(spec.params_dict),
            spec.to_json(),
        )
        run_row = (
            spec.key,
            self.campaign,
            result.name,
            extra.get("fidelity", spec.fidelity),
            result.makespan,
            result.discovery_busy,
            result.work_total,
            result.overhead_total,
            result.n_tasks,
            result.n_threads,
            result.edges.created,
            None if cache_hit is None else int(bool(cache_hit)),
            bounds.get("makespan_lower"),
            bounds.get("makespan_upper"),
            canonical_json(result.to_dict()),
        )
        with _transaction(self.db) as conn:
            conn.execute(insert_sql("specs", replace=True), spec_row)
            conn.execute(insert_sql("runs", replace=True), run_row)
            # A fresh success supersedes any stale failure record.
            conn.execute("DELETE FROM errors WHERE key = ?", (spec.key,))

    def put_error(self, spec: "ExperimentSpec", message: str) -> None:
        self.db.conn.execute(
            insert_sql("errors", replace=True), (spec.key, message)
        )

    def get_error(self, spec: "ExperimentSpec") -> Optional[str]:
        try:
            row = self.db.read.execute(
                "SELECT message FROM errors WHERE key = ?", (spec.key,)
            ).fetchone()
        except SchemaError:
            return None
        return None if row is None else row[0]

    def __len__(self) -> int:
        try:
            (n,) = self.db.read.execute("SELECT COUNT(*) FROM runs").fetchone()
        except SchemaError:
            return 0
        return int(n)

    def keys(self) -> list[str]:
        """Sorted keys of every stored run."""
        try:
            rows = self.db.read.execute(
                "SELECT key FROM runs ORDER BY key"
            ).fetchall()
        except SchemaError:
            return []
        return [r[0] for r in rows]


def open_store(locator: Union[str, Path], *, campaign: str = "") -> DbResultStore:
    """Open the result store a locator names.

    A path ending in ``.sqlite``/``.sqlite3``/``.db`` (or an existing
    regular file) is the store file itself; any other path is a campaign
    directory holding :data:`STORE_FILENAME`, whose compiled-graph
    artifacts land next to it under ``compiled/``.  This is how campaign
    worker processes reopen the parent's store from one string.
    """
    path = Path(locator)
    if path.suffix not in _DB_SUFFIXES and not path.is_file():
        path = path / STORE_FILENAME
    return DbResultStore(path, campaign=campaign)


# ======================================================================
# traces
# ======================================================================
def delete_trace(db: CampaignDB, run: str) -> None:
    """Drop every trace row of ``run`` (spans/barriers/comms/counters)."""
    rid = run_id(run)
    with _transaction(db) as conn:
        for table in ("spans", "barriers", "comms", "counters"):
            conn.execute(f"DELETE FROM {table} WHERE run = ?", (rid,))


def write_trace(db: CampaignDB, run: str, recorder: "TraceRecorder") -> None:
    """Store a finished recording: spans, then barriers and comm records.

    Replaces every trace row ``run`` already has, its counters included
    (write those after with :func:`write_counters`), in one transaction:
    a failed write keeps the earlier recording.  Only the recorded span
    columns are written: ``slack``/``on_path`` stay NULL until
    :func:`annotate_critical_path` stamps them through the ``(run, seq)``
    key, so ``spans`` needs no secondary index, and omitting them cuts
    the per-row insert cost by ~40%.
    """
    rid = run_id(run)
    names = recorder.name_table()
    with _transaction(db) as conn:
        delete_trace(db, run)
        conn.execute(insert_sql("trace_runs", replace=True), (rid, run))
        conn.executemany(
            insert_sql("spans", columns=columns_of("spans")[:10]),
            zip(
                repeat(rid), count(), recorder.span_tid,
                map(names.__getitem__, recorder.span_name),
                recorder.span_loop, recorder.span_iteration,
                recorder.span_rank, recorder.span_worker,
                recorder.span_start, recorder.span_end,
            ),
        )
        conn.executemany(
            insert_sql("barriers"),
            zip(repeat(rid), count(), recorder.barrier_kind,
                recorder.barrier_time),
        )
        conn.executemany(
            insert_sql("comms"),
            (
                (rid, i, rec.kind, rec.rank, rec.peer, rec.nbytes,
                 rec.post_time,
                 None if math.isnan(rec.complete_time) else rec.complete_time,
                 rec.iteration)
                for i, rec in enumerate(recorder.comm_records)
            ),
        )


def write_counters(db: CampaignDB, run: str, doc: dict) -> int:
    """Store a counters document's per-iteration rows under ``run``.

    ``doc`` is a ``repro.obs.counters`` snapshot
    (:meth:`~repro.obs.counters.DiscoveryCounters.to_dict`); rows
    ``run`` already has are replaced in the same transaction.  Returns
    the number of rows written.
    """
    rid = run_id(run)
    columns = columns_of("counters")[1:]
    rows = [(rid, *(row[c] for c in columns)) for row in doc["per_iteration"]]
    with _transaction(db) as conn:
        conn.execute("DELETE FROM counters WHERE run = ?", (rid,))
        conn.execute(insert_sql("trace_runs", replace=True), (rid, run))
        conn.executemany(insert_sql("counters"), rows)
    return len(rows)


def read_trace(db: CampaignDB, run: str) -> "TraceRecorder":
    """Rebuild a :class:`TraceRecorder` from the stored rows.

    The inverse of :func:`write_trace`: spans (names re-interned in
    first-seen order), barriers and comm records round-trip; the
    table-to-rank registration map is recording-time state and is not
    reconstructed.
    """
    from repro.obs.recorder import CommRecord, TraceRecorder

    rid = run_id(run)
    rec = TraceRecorder()
    for row in db.read.execute(
        "SELECT tid, name, loop, iteration, rank, worker, t_start, t_end "
        "FROM spans WHERE run = ? ORDER BY seq", (rid,)
    ):
        rec.add_span(*row)
    for kind, t in db.read.execute(
        "SELECT kind, time FROM barriers WHERE run = ? ORDER BY seq", (rid,)
    ):
        rec.barrier_kind.append(kind)
        rec.barrier_time.append(t)
    for kind, rank, peer, nbytes, post, complete, it in db.read.execute(
        "SELECT kind, rank, peer, nbytes, post, complete, iteration "
        "FROM comms WHERE run = ? ORDER BY seq", (rid,)
    ):
        rec.comm_records.append(
            CommRecord(
                kind=kind, rank=rank, peer=peer, nbytes=nbytes,
                post_time=post,
                complete_time=float("nan") if complete is None else complete,
                iteration=it,
            )
        )
    return rec


# ======================================================================
# critical-path annotation
# ======================================================================
#: The per-span annotation update: one ``(run, seq)`` primary-key seek.
_ANNOTATE_SQL = (
    "UPDATE spans SET slack = ?, on_path = ? WHERE run = ? AND seq = ?"
)


def annotate_critical_path(
    db: CampaignDB,
    run: str,
    cp: "CriticalPathResult",
    *,
    rank: int = 0,
) -> int:
    """Stamp per-span ``slack`` and ``on_path`` from a measured analysis.

    Only spans of ``rank`` match.  Persistent runs match them by ``(tid,
    iteration)`` (the template executes once per iteration);
    non-persistent runs by ``tid`` alone (the artifact gives every
    iteration's tasks their own tids).  Only existing span rows update —
    path tasks without a span (zero-weight stubs) have nothing to
    annotate.

    One read of the rank's ``(seq, tid, iteration)`` columns maps each
    match key to its span rows, so every update is a single ``(run,
    seq)`` primary-key seek: linear in spans, where an update keyed on
    ``tid`` scans every span of the run.  Returns the number of span
    rows stamped.
    """
    rid = run_id(run)
    persistent = cp.persistent
    with _transaction(db) as conn:
        seqs: dict[object, list[int]] = {}
        for seq, tid, iteration in conn.execute(
            "SELECT seq, tid, iteration FROM spans WHERE run = ? AND rank = ?",
            (rid, rank),
        ):
            key = (tid, iteration) if persistent else tid
            seqs.setdefault(key, []).append(seq)
        stamps: dict[int, tuple[float, int]] = {}
        for itcp in cp.iterations:
            path = set(itcp.path)
            for t, slack in enumerate(itcp.slack):
                key = (t, itcp.iteration) if persistent else t
                for seq in seqs.get(key, ()):
                    stamps[seq] = (slack, int(t in path))
        conn.executemany(
            _ANNOTATE_SQL,
            [(slack, on, rid, seq) for seq, (slack, on) in sorted(stamps.items())],
        )
    return len(stamps)


# ======================================================================
# metrics snapshots
# ======================================================================
def write_metrics(
    db: CampaignDB,
    campaign: str,
    snapshot: int,
    rows: Sequence[dict],
) -> int:
    """Persist one metrics snapshot (sample rows from a registry).

    ``rows`` is what :meth:`~repro.metrics.registry.MetricsRegistry.snapshot`
    returns — the caller decides the volatility cut; by convention only
    non-volatile (deterministic) samples land here.  Keyed on
    ``(campaign, snapshot, name, labels)`` with REPLACE semantics, so
    re-running a campaign overwrites its snapshots instead of colliding.
    Returns the number of rows written.
    """
    values = [
        (
            campaign,
            snapshot,
            row["name"],
            canonical_json(row.get("labels") or {}),
            row["kind"],
            row.get("help") or "",
            float(row["value"]),
            None if row.get("doc") is None else canonical_json(row["doc"]),
        )
        for row in rows
    ]
    with _transaction(db) as conn:
        conn.executemany(insert_sql("metrics", replace=True), values)
    return len(values)


def metrics_snapshots(
    db: CampaignDB, campaign: Optional[str] = None
) -> list[tuple[str, int]]:
    """Every persisted ``(campaign, snapshot)`` pair, sorted."""
    sql = "SELECT DISTINCT campaign, snapshot FROM metrics"
    params: tuple = ()
    if campaign is not None:
        sql += " WHERE campaign = ?"
        params = (campaign,)
    sql += " ORDER BY campaign, snapshot"
    return [(c, int(s)) for c, s in db.read.execute(sql, params)]


def latest_snapshot(
    db: CampaignDB, campaign: Optional[str] = None
) -> tuple[str, int]:
    """The newest (highest-id) snapshot, resolving the campaign if unique.

    With ``campaign=None`` the store must hold metrics for exactly one
    campaign id — otherwise raises :class:`ValueError` naming them so
    the CLI can ask the user to disambiguate.
    """
    pairs = metrics_snapshots(db, campaign)
    if not pairs:
        raise ValueError(
            f"no metrics snapshots in {db.path}"
            + (f" for campaign {campaign!r}" if campaign is not None else "")
        )
    names = sorted({c for c, _ in pairs})
    if campaign is None and len(names) > 1:
        raise ValueError(
            f"store holds metrics for {len(names)} campaigns "
            f"({', '.join(names)}); pass --campaign to pick one"
        )
    name = campaign if campaign is not None else names[0]
    return name, max(s for c, s in pairs if c == name)


def read_metrics(
    db: CampaignDB,
    campaign: Optional[str] = None,
    snapshot: Optional[int] = None,
) -> list[dict]:
    """Sample rows of one snapshot (default: the latest).

    Rows come back in the registry-snapshot shape (``name``/``kind``/
    ``help``/``labels``/``value``/``doc`` with JSON fields decoded) plus
    ``campaign``/``snapshot``, ready for
    :func:`~repro.metrics.prometheus.render_prometheus`.
    """
    if snapshot is None:
        campaign, snapshot = latest_snapshot(db, campaign)
    elif campaign is None:
        campaign, _ = latest_snapshot(db)
    rows = db.read.execute(
        "SELECT name, labels, kind, help, value, doc FROM metrics "
        "WHERE campaign = ? AND snapshot = ? ORDER BY name, labels",
        (campaign, snapshot),
    ).fetchall()
    out = []
    for name, labels, kind, help_text, value, doc in rows:
        out.append(
            {
                "campaign": campaign,
                "snapshot": snapshot,
                "name": name,
                "labels": json.loads(labels),
                "kind": kind,
                "help": help_text,
                "value": value,
                "doc": None if doc is None else json.loads(doc),
            }
        )
    return out


# ======================================================================
# profile storage
# ======================================================================
def store_profile(
    db: CampaignDB, report: "ProfileReport", *, campaign: str = ""
) -> str:
    """Persist one :func:`~repro.obs.profile.profile_spec` run entirely.

    Writes the spec + result rows (so the run joins campaign queries),
    the recording and the discovery counters, and — when the engine
    compiled a TDG — annotates spans with measured critical-path slack,
    all in one transaction: a profile is stored whole or not at all.
    Returns the run key (the profiled spec's key).
    """
    run = report.spec.key
    with _transaction(db):
        write_trace(db, run, report.recorder)
        write_counters(db, run, report.counters)
        if report.cp is not None:
            annotate_critical_path(
                db, run, report.cp, rank=report.profiled_rank
            )
        DbResultStore(db, campaign=campaign).put(report.spec, report.result)
    return run
