"""Buffered batched writers: the pyotter idiom for streaming into SQLite.

A :class:`BufferedWriter` accumulates rows in a plain Python list and
flushes them with one ``executemany`` per batch — the per-event cost on
the simulation hot path is a list append, and the SQLite work amortizes
over thousands of rows.  Each flush runs in one explicit transaction
(on autocommit connections every row would otherwise commit its own WAL
frame, an ~8x slowdown), so a flush is atomic: a crash between flushes
loses at most one unflushed batch and never corrupts the store (WAL
journaling).
"""

from __future__ import annotations

import sqlite3
from typing import Iterable, Sequence

from repro.db.schema import insert_sql

#: Default rows per ``executemany`` flush.
DEFAULT_BATCH = 8192


class BufferedWriter:
    """Append rows for one table; flush with batched ``executemany``."""

    __slots__ = ("conn", "sql", "batch", "rows", "rows_written")

    def __init__(
        self,
        conn: sqlite3.Connection,
        table: str,
        *,
        batch: int = DEFAULT_BATCH,
        replace: bool = False,
        columns: "tuple[str, ...] | None" = None,
    ) -> None:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.conn = conn
        self.sql = insert_sql(table, replace=replace, columns=columns)
        self.batch = batch
        self.rows: list[Sequence] = []
        #: Total rows flushed to the database so far.
        self.rows_written = 0

    def append(self, row: Sequence) -> None:
        """Buffer one row; flushes automatically at the batch size."""
        self.rows.append(row)
        if len(self.rows) >= self.batch:
            self.flush()

    def extend(self, rows: Iterable[Sequence]) -> None:
        """Buffer many rows at once; flushes once the batch size is reached.

        One list ``extend`` over a bulk ``zip`` of columns builds rows far
        faster than an ``append`` per row; the flush then writes them all.
        """
        self.rows.extend(rows)
        if len(self.rows) >= self.batch:
            self.flush()

    def flush(self) -> None:
        """Write every buffered row: one ``executemany``, one transaction.

        Joins the caller's transaction when one is open (e.g. a store
        ``put`` flushing mid-transaction) instead of nesting.
        """
        if not self.rows:
            return
        conn = self.conn
        own = not conn.in_transaction
        if own:
            conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany(self.sql, self.rows)
            if own:
                conn.execute("COMMIT")
        except BaseException:
            if own:
                conn.execute("ROLLBACK")
            raise
        self.rows_written += len(self.rows)
        self.rows.clear()
