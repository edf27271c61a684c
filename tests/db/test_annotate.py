"""Critical-path annotation: the ``(run, seq)``-keyed stamp vs per-tid UPDATEs.

:func:`repro.db.store.annotate_critical_path` reads a rank's span keys
once and updates every span through its primary key.  The reference
below is the per-tid ``UPDATE ... WHERE run AND rank AND tid`` form it
replaced (one whole-run scan per task); both must leave the same
``(seq, slack, on_path)`` column on non-persistent, persistent and
multi-rank recordings.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.calibration import scaled_llvm, scaled_mpc, scaled_skylake
from repro.campaign.spec import ExperimentSpec
from repro.db import CampaignDB, annotate_critical_path, write_trace
from repro.db.store import _ANNOTATE_SQL, run_id
from repro.memory.machine import tiny_test_machine
from repro.obs.critical_path import CriticalPathResult, IterationCriticalPath
from repro.obs.profile import profile_spec
from repro.obs.recorder import TraceRecorder
from repro.runtime import presets

PARAMS = {"s": 8, "iterations": 2, "tpl": 8}
MACHINE = scaled_skylake(4)

SPECS = {
    "llvm": ExperimentSpec(
        app="lulesh", config=scaled_llvm(MACHINE, n_threads=4),
        params=PARAMS, seed=0,
    ),
    "persistent": ExperimentSpec(
        app="lulesh", config=scaled_mpc(MACHINE, opts="abcp", n_threads=4),
        params=PARAMS, seed=0,
    ),
    "cluster": ExperimentSpec(
        app="lulesh",
        config=presets.mpc_omp(tiny_test_machine(4), n_threads=2),
        params=PARAMS, ranks=8, seed=0,
    ),
}


def reference_annotate(db, run, cp, *, rank=0):
    """The per-tid UPDATE annotation (one run scan per analysed task)."""
    rid = run_id(run)
    rows = []
    for itcp in cp.iterations:
        path = set(itcp.path)
        for t, slack in enumerate(itcp.slack):
            key = (t, itcp.iteration) if cp.persistent else (t,)
            rows.append((slack, int(t in path), rid, rank, *key))
    sql = (
        "UPDATE spans SET slack = ?, on_path = ? "
        "WHERE run = ? AND rank = ? AND tid = ?"
        + (" AND iteration = ?" if cp.persistent else "")
    )
    conn = db.conn
    conn.execute("BEGIN IMMEDIATE")
    conn.executemany(sql, rows)
    conn.execute("COMMIT")


def annotated_column(db, run):
    return db.conn.execute(
        "SELECT seq, slack, on_path FROM spans WHERE run = ? ORDER BY seq",
        (run_id(run),),
    ).fetchall()


@pytest.fixture(scope="module", params=sorted(SPECS))
def annotated(request, tmp_path_factory):
    """One recording annotated by the reference and by the store."""
    report = profile_spec(SPECS[request.param])
    assert report.cp is not None
    run = report.spec.key
    root = tmp_path_factory.mktemp(request.param)
    with CampaignDB(root / "ref.sqlite") as ref, \
            CampaignDB(root / "new.sqlite") as new:
        write_trace(ref, run, report.recorder)
        reference_annotate(ref, run, report.cp, rank=report.profiled_rank)
        write_trace(new, run, report.recorder)
        stamped = annotate_critical_path(
            new, run, report.cp, rank=report.profiled_rank
        )
        (n_stamped,) = new.conn.execute(
            "SELECT COUNT(*) FROM spans WHERE run = ? AND slack IS NOT NULL",
            (run_id(run),),
        ).fetchone()
        yield (request.param, report, stamped, n_stamped,
               annotated_column(ref, run), annotated_column(new, run))


class TestAnnotateCriticalPath:
    def test_matches_per_tid_reference(self, annotated):
        _, report, _, _, ref, new = annotated
        assert len(new) == report.recorder.n_spans
        assert new == ref

    def test_returns_span_rows_stamped(self, annotated):
        _, report, stamped, n_stamped, _, new = annotated
        assert stamped == sum(slack is not None for _, slack, _ in new)
        assert stamped == n_stamped
        # Redirect stubs are analysed but own no span: never counted.
        n_analysed = sum(len(it.slack) for it in report.cp.iterations)
        assert 0 < stamped <= n_analysed

    def test_only_profiled_rank_is_stamped(self, annotated):
        name, report, _, _, _, new = annotated
        ranks = report.recorder.span_rank
        for seq, slack, on_path in new:
            if ranks[seq] == report.profiled_rank:
                assert slack is not None and on_path in (0, 1)
            else:
                assert slack is None and on_path is None
        if name == "cluster":
            assert len(set(ranks)) == 8

    def test_update_seeks_the_primary_key(self, tmp_path):
        with CampaignDB(tmp_path / "plan.sqlite") as db:
            plan = db.conn.execute(
                "EXPLAIN QUERY PLAN " + _ANNOTATE_SQL, (0.0, 0, 1, 2)
            ).fetchall()
        # SQLite < 3.36 spells the detail "SEARCH TABLE spans ...".
        (detail,) = [row[-1] for row in plan]
        assert detail.startswith("SEARCH ")
        assert detail.endswith("spans USING PRIMARY KEY (run=? AND seq=?)")


spans_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),  # tid
        st.integers(min_value=0, max_value=2),  # iteration
        st.integers(min_value=0, max_value=2),  # rank
    ),
    max_size=30,
)

#: Per-iteration slack columns.  Analysed tids no span carries play the
#: redirect stubs; spans whose tid no column reaches stay unannotated.
analysis_st = st.lists(
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8),
    min_size=1, max_size=3,
)


class TestAnnotateProperty:
    @settings(max_examples=60, deadline=None)
    @given(spans=spans_st, columns=analysis_st, persistent=st.booleans(),
           rank=st.integers(min_value=0, max_value=2))
    def test_matches_reference_on_any_recording(
        self, tmp_path_factory, spans, columns, persistent, rank
    ):
        rec = TraceRecorder()
        for i, (tid, iteration, span_rank) in enumerate(spans):
            rec.add_span(tid, "t", 0, iteration, span_rank, 0, i, i + 1.0)
        if not persistent:
            columns = columns[:1]
        cp = CriticalPathResult(
            length=1.0, static_t_inf=1.0, persistent=persistent,
            iterations=[
                IterationCriticalPath(
                    iteration=it if persistent else -1, length=1.0,
                    path=[t for t, s in enumerate(slack) if s == 0.0],
                    slack=slack, through=[1.0 - s for s in slack],
                )
                for it, slack in enumerate(columns)
            ],
        )
        root = tmp_path_factory.mktemp("prop")
        with CampaignDB(root / "ref.sqlite") as ref, \
                CampaignDB(root / "new.sqlite") as new:
            write_trace(ref, "r", rec)
            reference_annotate(ref, "r", cp, rank=rank)
            write_trace(new, "r", rec)
            stamped = annotate_critical_path(new, "r", cp, rank=rank)
            got = annotated_column(new, "r")
            assert got == annotated_column(ref, "r")
        assert stamped == sum(slack is not None for _, slack, _ in got)
