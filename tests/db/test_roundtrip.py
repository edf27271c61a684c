"""Property tests: recorder columns and results survive the store."""

from __future__ import annotations

import math
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.campaign.runner import run_experiment
from repro.campaign.spec import ExperimentSpec
from repro.db import (
    CampaignDB,
    DbResultStore,
    read_trace,
    run_id,
    write_counters,
    write_trace,
)
from repro.memory.machine import tiny_test_machine
from repro.obs.counters import DiscoveryCounters, IterationCounters
from repro.obs.recorder import TraceRecorder
from repro.obs.recorder import CommRecord
from repro.runtime import presets
from repro.util.serde import canonical_json

CFG = presets.mpc_omp(tiny_test_machine(4), n_threads=4)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
small_int = st.integers(min_value=0, max_value=50)

spans_st = st.lists(
    st.tuples(
        small_int,  # tid
        st.sampled_from(["alpha", "beta", "gamma[3]"]),  # name
        st.integers(min_value=-2, max_value=40),  # loop
        st.integers(min_value=-1, max_value=8),  # iteration
        st.integers(min_value=0, max_value=3),  # rank
        st.integers(min_value=0, max_value=7),  # worker
        finite,  # start
        finite,  # end
    ),
    max_size=40,
)

barriers_st = st.lists(
    st.tuples(st.sampled_from(["taskwait", "persistent"]), finite), max_size=8
)

comms_st = st.lists(
    st.tuples(
        st.sampled_from(["isend", "irecv", "iallreduce"]),
        st.integers(min_value=0, max_value=3),  # rank
        st.integers(min_value=-1, max_value=3),  # peer
        st.integers(min_value=0, max_value=1 << 30),  # nbytes
        finite,  # post
        st.one_of(st.none(), finite),  # complete (None -> in flight)
        st.integers(min_value=-1, max_value=8),
    ),
    max_size=10,
)

counters_st = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=-1, max_value=8)),
    st.tuples(small_int, small_int, finite),
    max_size=6,
)


def synthetic_recorder(spans, barriers, comms) -> TraceRecorder:
    rec = TraceRecorder()
    for tid, name, loop, it, rank, worker, start, end in spans:
        rec.span_tid.append(tid)
        rec.span_name.append(rec.names(name))
        rec.span_loop.append(loop)
        rec.span_iteration.append(it)
        rec.span_rank.append(rank)
        rec.span_worker.append(worker)
        rec.span_start.append(start)
        rec.span_end.append(end)
    for kind, time in barriers:
        rec.barrier_kind.append(kind)
        rec.barrier_time.append(time)
    for kind, rank, peer, nbytes, post, complete, it in comms:
        rec.comm_records.append(CommRecord(
            kind=kind, rank=rank, peer=peer, nbytes=nbytes, post_time=post,
            complete_time=math.nan if complete is None else complete,
            iteration=it,
        ))
    return rec


def synthetic_counters(counters) -> dict:
    dc = DiscoveryCounters()
    for (rank, it), (created, edges, cost) in counters.items():
        dc.rows[rank, it] = IterationCounters(
            tasks_created=created, edges_created=edges, creation_cost=cost)
    return dc.to_dict()


def stored_counters(db, run) -> list[dict]:
    """The run's counter rows as ``per_iteration`` dicts, via SQL."""
    columns, rows = db.query(
        "SELECT * FROM counters WHERE run = ? ORDER BY rank, iteration",
        (run_id(run),),
    )
    return [dict(zip(columns[1:], row[1:])) for row in rows]


class TestTraceRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(spans=spans_st, barriers=barriers_st, comms=comms_st,
           counters=counters_st)
    def test_columns_survive(self, tmp_path_factory, spans, barriers, comms,
                             counters):
        rec = synthetic_recorder(spans, barriers, comms)
        doc = synthetic_counters(counters)
        path = tmp_path_factory.mktemp("db") / "t.sqlite"
        with CampaignDB(path) as db:
            write_trace(db, "r1", rec)
            write_counters(db, "r1", doc)
            back = read_trace(db, "r1")
            stored = stored_counters(db, "r1")
        assert back.span_tid == rec.span_tid
        assert back.name_table() == rec.name_table()
        assert back.span_name == rec.span_name
        assert back.span_loop == rec.span_loop
        assert back.span_iteration == rec.span_iteration
        assert back.span_rank == rec.span_rank
        assert back.span_worker == rec.span_worker
        assert back.span_start == rec.span_start
        assert back.span_end == rec.span_end
        assert back.barrier_kind == rec.barrier_kind
        assert back.barrier_time == rec.barrier_time
        # NaN != NaN, and SQLite normalizes -0.0 REALs to +0.0, so
        # compare comm records field-wise with NaN-aware equality
        assert len(back.comm_records) == len(rec.comm_records)
        for a, b in zip(back.comm_records, rec.comm_records):
            for f, x in a.to_dict().items():
                y = b.to_dict()[f]
                if isinstance(x, float) and math.isnan(x):
                    assert math.isnan(y), (f, x, y)
                else:
                    assert x == y, (f, x, y)
        assert stored == doc["per_iteration"]

    def test_rewrite_replaces_not_appends(self, tmp_path):
        rec = synthetic_recorder([(1, "a", 0, 0, 0, 0, 0.0, 1.0)], [], [])
        doc = synthetic_counters({(0, 0): (1, 0, 0.5)})
        with CampaignDB(tmp_path / "t.sqlite") as db:
            write_trace(db, "r1", rec)
            write_trace(db, "r1", rec)
            write_counters(db, "r1", doc)
            write_counters(db, "r1", doc)
            _, rows = db.query(
                "SELECT (SELECT COUNT(*) FROM spans),"
                " (SELECT COUNT(*) FROM counters)")
        assert rows == [(1, 1)]


class TestResultRoundTrip:
    BASE = run_experiment(ExperimentSpec(
        app="lulesh", config=CFG,
        params={"s": 6, "iterations": 1, "tpl": 2}))

    @settings(max_examples=20, deadline=None)
    @given(makespan=finite, discovery=finite, n_tasks=small_int)
    def test_scalar_fields_bitwise(self, tmp_path_factory, makespan,
                                   discovery, n_tasks):
        # mutate the scalar columns the runs table mirrors; the doc and
        # the row must agree bit-for-bit after a put/get cycle
        res = replace(self.BASE, makespan=makespan, discovery_busy=discovery,
                      n_tasks=n_tasks)
        spec = ExperimentSpec(app="lulesh", config=CFG,
                              params={"s": 6, "iterations": 1, "tpl": 2},
                              seed=int(abs(hash((makespan, discovery)))) % 997)
        path = tmp_path_factory.mktemp("db") / "s.sqlite"
        store = DbResultStore(path)
        store.put(spec, res)
        got = store.get(spec)
        assert canonical_json(got.to_dict()) == canonical_json(res.to_dict())
        _, rows = store.db.query(
            "SELECT makespan, discovery_busy, n_tasks FROM runs WHERE key=?",
            (spec.key,))
        assert rows == [(makespan, discovery, n_tasks)]
