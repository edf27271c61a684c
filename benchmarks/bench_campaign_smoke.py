"""Campaign engine smoke check (CI): store, determinism, fan-out.

Runs a tiny Fig-1-style LULESH TPL campaign, plus one persistent-TDG
(opt p) spec, three ways and asserts the engine's core contracts:

1. a 2-worker parallel campaign produces bitwise-identical serialized
   results to the serial run (the DES is seed-deterministic, so worker
   scheduling must not leak into results);
2. re-invoking the same campaign against the same store executes nothing
   (every run is a content-addressed store hit);
3. mutating one spec re-executes exactly that run.

Wall-clock speedup is reported informationally — on single-core CI
runners process fan-out cannot beat serial execution.

Usage: ``python benchmarks/bench_campaign_smoke.py [campaign-dir]``
(results go to ``<campaign-dir>/campaign.sqlite``; a temporary directory
when omitted; run as a script, not under pytest).
"""

from __future__ import annotations

import sys
import tempfile
from dataclasses import replace

from repro.campaign import ExperimentSpec, run_campaign
from repro.db import open_store
from repro.runtime import presets
from repro.util.serde import canonical_json

TPLS = (2, 4, 8, 16, 32, 64)
JOBS = 2


def build_specs() -> list[ExperimentSpec]:
    base = ExperimentSpec(
        app="lulesh",
        config=presets.mpc_omp(n_threads=4),
        params={"s": 12, "iterations": 2, "tpl": TPLS[0]},
    )
    persistent = replace(base, config=presets.mpc_omp(n_threads=4, opts="abcp"))
    return [base.with_params(tpl=t) for t in TPLS] + [persistent]


def main(cache_dir: str | None = None) -> int:
    specs = build_specs()

    serial = run_campaign(specs)
    assert serial.ok, serial.failures[0].error
    reference = [canonical_json(r.to_dict()) for r in serial.results]
    print(f"serial:   {serial.summary()}")

    tmp = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-smoke-")
        cache_dir = tmp.name
    store = open_store(cache_dir)
    try:
        # A persistent store may be pre-warmed by a previous invocation
        # (the CI runs this script twice to prove the resume contract), so
        # assert relative to what the store already holds.
        pre_hits = sum(1 for s in specs if store.contains(s))
        fanout = run_campaign(specs, jobs=JOBS, store=store)
        assert fanout.ok, fanout.failures[0].error
        got = [canonical_json(r.to_dict()) for r in fanout.results]
        assert got == reference, "parallel campaign diverged from serial run"
        assert fanout.n_executed == len(specs) - pre_hits, fanout.summary()
        tag = "all store hits" if pre_hits == len(specs) else \
            f"speedup vs serial: {serial.wall / max(fanout.wall, 1e-9):.2f}x, informational"
        print(f"parallel: {fanout.summary()} ({tag})")

        again = run_campaign(specs, jobs=JOBS, store=store)
        assert again.n_executed == 0, f"expected all hits: {again.summary()}"
        assert again.n_cached == len(specs)
        assert [canonical_json(r.to_dict()) for r in again.results] == reference
        print(f"resumed:  {again.summary()} — all store hits")

        mutated = list(specs)
        mutated[2] = mutated[2].with_params(tpl=TPLS[2] + 1)
        expect_new = 0 if store.contains(mutated[2]) else 1
        third = run_campaign(mutated, jobs=JOBS, store=store)
        assert third.n_executed == expect_new, third.summary()
        assert third.n_cached == len(specs) - expect_new
        print(f"mutated:  {third.summary()} — "
              f"{'already cached' if expect_new == 0 else 'exactly one spec re-executed'}")
    finally:
        store.db.close()
        if tmp is not None:
            tmp.cleanup()

    print("campaign smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
