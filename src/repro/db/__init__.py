"""``repro.db``: the campaign-scoped SQLite results/trace store.

One WAL-journaled SQLite file per campaign holds specs, run results,
streamed trace columns and discovery counters — the pyotter
architecture (transactional ``executemany`` writes in, read-only SQL
out) adapted to this simulator's content-addressed campaign engine.  See
:mod:`repro.db.schema` for the layout and its versioning policy.
"""

from repro.db.queries import (
    REPORTS,
    discovery_regressions,
    list_runs,
    slack_by_loop,
    top_critical_tasks,
)
from repro.db.schema import (
    SCHEMA_VERSION,
    SchemaError,
    table_inventory,
)
from repro.db.store import (
    STORE_FILENAME,
    CampaignDB,
    DbResultStore,
    annotate_critical_path,
    delete_trace,
    latest_snapshot,
    metrics_snapshots,
    open_store,
    read_metrics,
    read_trace,
    run_id,
    store_profile,
    write_counters,
    write_metrics,
    write_trace,
)

__all__ = [
    "CampaignDB",
    "DbResultStore",
    "REPORTS",
    "SCHEMA_VERSION",
    "STORE_FILENAME",
    "SchemaError",
    "annotate_critical_path",
    "delete_trace",
    "discovery_regressions",
    "latest_snapshot",
    "list_runs",
    "metrics_snapshots",
    "open_store",
    "read_metrics",
    "read_trace",
    "run_id",
    "slack_by_loop",
    "store_profile",
    "table_inventory",
    "top_critical_tasks",
    "write_counters",
    "write_metrics",
    "write_trace",
]
