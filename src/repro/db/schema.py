"""The ``repro.db`` schema: versioned DDL for campaign-scoped stores.

One SQLite file holds everything a campaign produces — content-addressed
specs and run results, streamed trace columns (task spans, barriers, MPI
requests) and per-iteration discovery counters — so a million-run
campaign is analyzable with SQL instead of re-reading loose JSON blobs
wholesale.

Design rules (they are what make stores diffable in CI):

- **Single source of truth.**  :data:`TABLES` declares every table as
  data; the ``CREATE TABLE`` statements, the store's insert statements
  and the ``repro info`` inventory are all generated from it, so they
  can never drift apart.
- **Deterministic row order.**  Every table is ``WITHOUT ROWID`` with an
  explicit primary key, so ``iterdump()`` emits rows in key order no
  matter which worker process inserted them first — two identical
  campaigns produce byte-identical dumps.
- **No wall-clock data.**  Only simulated times and content-derived
  values are stored; real timestamps would break dump determinism.
- **Versioned schema with a migration gate.**  The layout version lives
  in the ``meta`` table.  Policy (mirroring ``repro.obs.trace v1``):
  purely additive changes (new table, new nullable column) bump
  :data:`SCHEMA_VERSION` and register an upgrade step in
  :data:`MIGRATIONS`; any change to the meaning or type of an existing
  column bumps the version *without* a migration, so old stores are
  rejected loudly instead of being misread.
"""

from __future__ import annotations

import sqlite3

#: Version of the store layout; see the policy note in the module doc.
#: v2 added the ``metrics`` table (campaign telemetry snapshots) — a
#: purely additive change with a registered v1 -> v2 migration step.
SCHEMA_VERSION = 2

#: Schema identifier stamped into ``meta`` (rejects foreign SQLite files).
SCHEMA_NAME = "repro.db"

#: Discovery-counter columns, in the order of
#: :data:`repro.obs.counters._COUNTER_FIELDS` (one DB column each).
COUNTER_COLUMNS = (
    ("tasks_created", "INTEGER"),
    ("addrs_resolved", "INTEGER"),
    ("edges_created", "INTEGER"),
    ("edges_skipped", "INTEGER"),
    ("dup_edges_skipped", "INTEGER"),
    ("dup_edges_created", "INTEGER"),
    ("edges_pruned", "INTEGER"),
    ("redirect_nodes", "INTEGER"),
    ("replay_stamps", "INTEGER"),
    ("fp_copy_bytes", "INTEGER"),
    ("creation_cost", "REAL"),
    ("replay_cost", "REAL"),
)

#: Every table: ``name -> (columns, primary key)``.  Columns are
#: ``(name, SQL type)`` pairs; the primary key is a tuple of column
#: names.  ``spans``/``barriers``/``comms`` map the ``repro.obs.trace``
#: v1 event fields 1:1 (``start``/``end`` become ``t_start``/``t_end``
#: only because ``end`` is an SQL keyword); ``counters`` maps the
#: ``repro.obs.counters`` v1 per-iteration rows.
TABLES: dict[str, tuple[tuple[tuple[str, str], ...], tuple[str, ...]]] = {
    "meta": (
        (("key", "TEXT"), ("value", "TEXT")),
        ("key",),
    ),
    "specs": (
        (
            ("key", "TEXT"),
            ("app", "TEXT"),
            ("engine", "TEXT"),
            ("fidelity", "TEXT"),
            ("ranks", "INTEGER"),
            ("seed", "INTEGER"),
            ("scale", "REAL"),
            ("config_name", "TEXT"),
            ("params", "TEXT"),  # canonical JSON of the app params
            ("doc", "TEXT"),  # canonical JSON of the full spec
        ),
        ("key",),
    ),
    "runs": (
        (
            ("key", "TEXT"),  # spec content key (sha256)
            ("campaign", "TEXT"),  # campaign id that executed the run
            ("name", "TEXT"),
            ("fidelity", "TEXT"),
            ("makespan", "REAL"),
            ("discovery_busy", "REAL"),
            ("work_total", "REAL"),
            ("overhead_total", "REAL"),
            ("n_tasks", "INTEGER"),
            ("n_threads", "INTEGER"),
            ("edges_created", "INTEGER"),
            ("cache_hit", "INTEGER"),  # compiled-TDG artifact hit (NULL: n/a)
            ("makespan_lower", "REAL"),  # analytic bounds (NULL for DES)
            ("makespan_upper", "REAL"),
            ("doc", "TEXT"),  # canonical JSON of the full RunResult
        ),
        ("key",),
    ),
    "errors": (
        (("key", "TEXT"), ("message", "TEXT")),
        ("key",),
    ),
    "trace_runs": (
        # ``id`` = :func:`repro.db.store.run_id` of ``key`` — a
        # content-derived 60-bit integer, so trace tables carry a cheap
        # INTEGER run column (the spans primary key stays hot) while
        # dumps stay deterministic (nothing depends on insertion order).
        (("id", "INTEGER"), ("key", "TEXT")),
        ("id",),
    ),
    "spans": (
        (
            ("run", "INTEGER"),  # run id (trace_runs.id) of the recording
            ("seq", "INTEGER"),  # recording order within the run
            ("tid", "INTEGER"),
            ("name", "TEXT"),
            ("loop", "INTEGER"),
            ("iteration", "INTEGER"),
            ("rank", "INTEGER"),
            ("worker", "INTEGER"),
            ("t_start", "REAL"),
            ("t_end", "REAL"),
            ("slack", "REAL"),  # critical-path slack (NULL until analyzed)
            ("on_path", "INTEGER"),  # 1 = on the measured critical path
        ),
        ("run", "seq"),
    ),
    "barriers": (
        (
            ("run", "INTEGER"),
            ("seq", "INTEGER"),
            ("kind", "TEXT"),
            ("time", "REAL"),
        ),
        ("run", "seq"),
    ),
    "comms": (
        (
            ("run", "INTEGER"),
            ("seq", "INTEGER"),
            ("kind", "TEXT"),
            ("rank", "INTEGER"),
            ("peer", "INTEGER"),
            ("nbytes", "INTEGER"),
            ("post", "REAL"),
            ("complete", "REAL"),  # NULL: request still in flight
            ("iteration", "INTEGER"),
        ),
        ("run", "seq"),
    ),
    "counters": (
        (
            ("run", "INTEGER"),
            ("rank", "INTEGER"),
            ("iteration", "INTEGER"),
            *COUNTER_COLUMNS,
        ),
        ("run", "rank", "iteration"),
    ),
    # No writer fills ``findings`` any more; dropping the table changes
    # the schema, so it waits for the next versioned migration.
    "findings": (
        (
            ("run", "INTEGER"),
            ("seq", "INTEGER"),
            ("rule", "TEXT"),
            ("severity", "TEXT"),
            ("rank", "INTEGER"),
            ("iteration", "INTEGER"),
            ("tasks", "TEXT"),  # canonical JSON list of task names
            ("message", "TEXT"),
        ),
        ("run", "seq"),
    ),
    # Campaign telemetry snapshots (``repro.metrics``; schema v2).  One
    # row per metric sample per snapshot; histogram bucket/sum detail
    # rides in ``doc`` as canonical JSON.  Only *deterministic* metrics
    # are ever persisted (wall-clock series are marked volatile and
    # excluded by the snapshot writer), so the store's byte-identical-
    # dump rule survives: two identical serial campaigns write identical
    # metrics rows.  ``snapshot`` is event-paced (runs settled when the
    # snapshot was cut), never wall-clock-paced.
    "metrics": (
        (
            ("campaign", "TEXT"),
            ("snapshot", "INTEGER"),
            ("name", "TEXT"),
            ("labels", "TEXT"),  # canonical JSON object of label pairs
            ("kind", "TEXT"),  # counter | gauge | histogram
            ("help", "TEXT"),
            ("value", "REAL"),  # scalar value; histogram observation count
            ("doc", "TEXT"),  # canonical JSON histogram doc (NULL scalar)
        ),
        ("campaign", "snapshot", "name", "labels"),
    ),
}

#: Secondary indexes (deterministic DDL; they do not affect dump rows).
#: ``spans`` deliberately has none: its ``(run, seq)`` primary key
#: already clusters each run's rows for the per-run aggregate scans the
#: reports run, critical-path annotation reads a run's ``(seq, tid,
#: iteration)`` once and updates each span through that key, and a
#: secondary index would roughly double the per-span streaming-insert
#: cost (the bench's ``--max-db-overhead`` gate).
INDEXES = (
    "CREATE INDEX IF NOT EXISTS idx_runs_campaign ON runs(campaign)",
)

def table_ddl(name: str) -> str:
    """The CREATE statement for one table (used by migration steps)."""
    cols, pk = TABLES[name]
    body = ", ".join(f"{c} {t}" for c, t in cols)
    body += f", PRIMARY KEY ({', '.join(pk)})"
    return f"CREATE TABLE IF NOT EXISTS {name} ({body}) WITHOUT ROWID"


def _migrate_v1_add_metrics(conn: sqlite3.Connection) -> None:
    """v1 -> v2: add the (empty) ``metrics`` telemetry table.

    Purely additive — no existing row is touched, which is what makes
    the upgrade lossless and its ``iterdump()`` deterministic.
    """
    conn.execute(table_ddl("metrics"))


#: ``from-version -> upgrade(conn)`` steps for additive changes.  A
#: version gap with no registered step means "rebuild the store".
MIGRATIONS: dict[int, object] = {
    1: _migrate_v1_add_metrics,
}


class SchemaError(RuntimeError):
    """The file is not a ``repro.db`` store, or its version is foreign."""


def columns_of(table: str) -> tuple[str, ...]:
    """Column names of ``table``, in declaration (insert) order."""
    cols, _pk = TABLES[table]
    return tuple(name for name, _type in cols)


def table_inventory() -> dict[str, list[str]]:
    """``table -> [columns]`` for every table (the ``repro info`` view)."""
    return {name: list(columns_of(name)) for name in TABLES}


def ddl() -> str:
    """The full CREATE script, generated from :data:`TABLES`."""
    stmts = [table_ddl(name) for name in TABLES]
    stmts.extend(INDEXES)
    return ";\n".join(stmts) + ";"


def insert_sql(
    table: str,
    *,
    replace: bool = False,
    columns: "tuple[str, ...] | None" = None,
) -> str:
    """Generated INSERT statement for ``table``.

    Covers every column unless ``columns`` names a subset (columns left
    out take their default NULL — ``write_trace`` uses this to skip the
    span annotation columns, which measurably cheapens each row).
    """
    cols = columns_of(table) if columns is None else columns
    unknown = set(cols) - set(columns_of(table))
    if unknown:
        raise KeyError(f"unknown columns for {table}: {sorted(unknown)}")
    verb = "INSERT OR REPLACE" if replace else "INSERT"
    return (
        f"{verb} INTO {table} ({', '.join(cols)}) "
        f"VALUES ({', '.join('?' * len(cols))})"
    )


def init_schema(conn: sqlite3.Connection) -> None:
    """Create the tables and stamp the version (idempotent)."""
    conn.executescript(ddl())
    conn.execute(
        "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema', ?)",
        (SCHEMA_NAME,),
    )
    conn.execute(
        "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema_version', ?)",
        (str(SCHEMA_VERSION),),
    )
    conn.commit()


def stored_version(conn: sqlite3.Connection) -> tuple[str, int]:
    """The ``(schema, version)`` stamp of an opened store."""
    try:
        rows = dict(
            conn.execute(
                "SELECT key, value FROM meta "
                "WHERE key IN ('schema', 'schema_version')"
            ).fetchall()
        )
    except sqlite3.DatabaseError as exc:
        raise SchemaError(f"not a repro.db store: {exc}") from exc
    if "schema" not in rows or "schema_version" not in rows:
        raise SchemaError("not a repro.db store: missing meta stamp")
    return rows["schema"], int(rows["schema_version"])


def check_schema(conn: sqlite3.Connection) -> None:
    """The migration gate: reject stores this code cannot read.

    Exact-version stores pass; older stores pass only if a contiguous
    chain of :data:`MIGRATIONS` upgrades them in place; anything else
    (newer store, foreign schema, gap in the chain) raises
    :class:`SchemaError` instead of misreading rows.
    """
    schema, version = stored_version(conn)
    if schema != SCHEMA_NAME:
        raise SchemaError(f"not a repro.db store: schema={schema!r}")
    while version < SCHEMA_VERSION:
        step = MIGRATIONS.get(version)
        if step is None:
            raise SchemaError(
                f"store schema version {version} has no migration path "
                f"to {SCHEMA_VERSION}; re-run the campaign into a fresh store"
            )
        step(conn)  # type: ignore[operator]
        version += 1
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(version),),
        )
        conn.commit()
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"store schema version {version} is newer than this code "
            f"understands ({SCHEMA_VERSION}); upgrade repro"
        )
