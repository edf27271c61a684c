"""The benchmark's four workloads, and the child process that runs one repeat.

Every repeat runs in a fresh interpreter so that set-up — imports, spec and
program construction, store open — is paid and timed each time, as a user of
the API pays it.  ``run.py`` spawns::

    python workloads.py WORKLOAD --seed N --size full|tiny --tmp DIR --t0 T
        [--trace] [--reference reference.json]

and reads one JSON record from the last line of standard output.  Inputs
derive from ``--seed`` alone (it becomes the spec seed, which drives the
scheduler's steal-victim draws); everything runs single-threaded in this
process (campaigns use ``jobs=1``).

A repeat times set-up (``setup_s``: from the parent's spawn time ``--t0`` to
the first measured call), then runs the workload's measured phase a few
times in a row (``Workload.cycles`` passes), timing every pass (``wall_s``)
and separately the passes that find this process already warm (``warm_s``:
for the sweep, the part of a pass that reuses stored compiled graphs;
elsewhere, every pass after the first).  With ``--trace``, a pass under the
layer tracer (``trace.py``) and one more untraced pass follow; neither
feeds an end-to-end sample.  The repeat then checks the outputs of every
pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

#: Every workload is LULESH at this grain cost, on the scaled Skylake node.
FLOPS_PER_ITEM = 25.0

#: Workload inputs per size: ``full`` is what BENCHMARK.json measures,
#: ``tiny`` the smoke-test scale.
SIZES: dict[str, dict[str, dict]] = {
    "full": {
        "des-discovery": {"s": 32, "iterations": 4, "tpl": 576},
        "des-persistent": {"s": 32, "iterations": 6, "tpl": 576},
        "sweep-campaign": {"s": 32, "iterations": 4, "tpls": (8, 32, 96)},
        "profile-store": {"s": 16, "iterations": 3, "tpl": 48},
    },
    "tiny": {
        "des-discovery": {"s": 8, "iterations": 2, "tpl": 8},
        "des-persistent": {"s": 8, "iterations": 3, "tpl": 8},
        "sweep-campaign": {"s": 8, "iterations": 2, "tpls": (4, 8, 16)},
        "profile-store": {"s": 8, "iterations": 2, "tpl": 8},
    },
}

#: Threads of the sweep's warm pass: a new spec key (so a result-store
#: miss) whose compiled graph is already stored (so an artifact hit).
WARM_THREADS = 12


def lulesh_spec(config, seed: int, *, s: int, iterations: int, tpl: int,
                fidelity: str = "des"):
    from repro.campaign.spec import ExperimentSpec

    return ExperimentSpec(
        app="lulesh",
        config=config,
        params={"s": s, "iterations": iterations, "tpl": tpl,
                "flops_per_item": FLOPS_PER_ITEM},
        fidelity=fidelity,
        seed=seed,
    )


def _pass_metrics(k: int) -> tuple[str, ...]:
    """Samples a pass of a cache-free workload feeds: all, or all + warm."""
    return ("wall_s",) if k == 0 else ("wall_s", "warm_s")


class Workload:
    """Set-up, then ``cycles`` runs of the measured phase, then checks.

    ``setup(params, seed, tmp, passes)`` prepares ``passes`` runs of the
    phase.  ``cycle(k, timed)`` runs pass ``k``, wrapping each timed part in
    ``timed(metrics, fn)``, and appends that pass's deterministic outputs
    to ``digests``.  ``check()`` returns ``(name, passed)`` pairs.
    """

    #: Untraced passes per repeat.
    cycles = 2

    def __init__(self) -> None:
        self.digests: list[dict] = []

    def setup(self, params: dict, seed: int, tmp: Path, passes: int) -> None:
        raise NotImplementedError

    def cycle(self, k: int, timed) -> None:
        raise NotImplementedError

    @property
    def operations(self) -> int:
        """Operations a repeat attempts besides its checks."""
        return len(self.digests)

    def failed_operations(self) -> int:
        return 0

    def check(self) -> list[tuple[str, bool]]:
        return [("every pass, traced or not, repeats the first one's outputs",
                 all(d == self.digests[0] for d in self.digests))]

    def store_counts(self) -> dict[str, int]:
        """Rows and bytes the last pass left in its result store."""
        return {"db.store.rows_written": 0, "db.store.store_bytes": 0}


class DesWorkload(Workload):
    """A LULESH program simulated by ``TaskRuntime`` (the DES reference)."""

    def __init__(self, persistent: bool) -> None:
        super().__init__()
        self.persistent = persistent

    def setup(self, params, seed, tmp, passes):
        from repro.analysis.calibration import scaled_llvm, scaled_mpc, scaled_skylake
        from repro.campaign.runner import build_programs, derive_config

        machine = scaled_skylake()
        config = (
            scaled_mpc(machine, opts="abcp") if self.persistent
            else scaled_llvm(machine)
        )
        spec = lulesh_spec(config, seed, **params)
        self.config = derive_config(spec)
        self.program = build_programs(spec)[0]

    def _run(self):
        from repro.runtime.runtime import TaskRuntime

        return TaskRuntime(self.program, self.config).run()

    def cycle(self, k, timed):
        res = timed(_pass_metrics(k), self._run)
        self.digests.append({"n_tasks": res.n_tasks,
                             "edges_created": res.edges.created,
                             "makespan": res.makespan})


class SweepWorkload(Workload):
    """A cold campaign and its report, an artifact-warm pass, a resume."""

    def setup(self, params, seed, tmp, passes):
        from repro.analysis.calibration import scaled_llvm, scaled_mpc, scaled_skylake
        from repro.db.store import CampaignDB

        machine = scaled_skylake()
        configs = (scaled_llvm(machine), scaled_mpc(machine, opts="abc"))
        self.specs = [
            lulesh_spec(config, seed, s=params["s"],
                        iterations=params["iterations"], tpl=tpl,
                        fidelity=fidelity)
            for config in configs
            for tpl in params["tpls"]
            for fidelity in ("replay", "analytic")
        ]
        self.warm_specs = [
            replace(s, config=replace(s.config, n_threads=WARM_THREADS))
            for s in self.specs
        ]
        # One fresh store per pass; its directory holds the compiled graphs.
        self.dbs = [CampaignDB(tmp / f"pass{k}" / "sweep.sqlite")
                    for k in range(passes)]
        for db in self.dbs:
            db.conn  # opens the store and creates its schema
        self.passes: list[tuple] = []

    @property
    def operations(self):
        return 3 * len(self.specs) * len(self.passes)

    def cycle(self, k, timed):
        from repro.campaign.engine import run_campaign
        from repro.db.store import DbResultStore
        from repro.metrics.report import render_report

        db = self.dbs[k]
        store = DbResultStore(db)

        def cold():
            return run_campaign(self.specs, store=store), render_report(db)

        cold_campaign, html = timed(("wall_s",), cold)
        warm = timed(("warm_s",),
                     lambda: run_campaign(self.warm_specs, store=store))
        resume = run_campaign(self.specs, store=store)
        self.passes.append((cold_campaign, html, warm, resume))
        self.digests.append({
            "n_tasks": sum(r.n_tasks for r in cold_campaign.results if r),
            "makespans": [r.makespan if r else None for r in cold_campaign.results],
        })

    def failed_operations(self):
        return sum(c.n_failed for cold, _, warm, resume in self.passes
                   for c in (cold, warm, resume))

    def check(self):
        checks = super().check()
        for cold, html, warm, resume in self.passes:
            bounds = {
                (r.spec.config.name, r.spec.params_dict["tpl"]): r.result.extra["bounds"]
                for r in cold.records if r.ok and r.spec.fidelity == "analytic"
            }
            bracketed = True
            for r in cold.records:
                if r.ok and r.spec.fidelity == "replay":
                    b = bounds.get((r.spec.config.name, r.spec.params_dict["tpl"]))
                    bracketed &= b is not None and (
                        b["makespan_lower"] <= r.result.makespan <= b["makespan_upper"]
                    )
            checks += [
                ("replay makespans inside the analytic bounds", bracketed),
                ("warm pass hits the compiled-graph cache for every spec",
                 all(r.ok and r.result.extra.get("compiled_tdg", {}).get("cache_hit")
                     is True for r in warm.records)),
                ("resume pass hits the result store for every spec",
                 all(r.cached for r in resume.records)),
                ("resumed makespans equal the cold ones",
                 [r.result.makespan if r.ok else None for r in resume.records]
                 == [r.result.makespan if r.ok else None for r in cold.records]),
                ("report renders the swept app", "lulesh" in html),
            ]
        return checks

    def store_counts(self):
        return _store_counts(self.dbs[-1])


class ProfileWorkload(Workload):
    """``profile_spec`` -> ``store_profile`` into SQLite -> ``render_report``."""

    def setup(self, params, seed, tmp, passes):
        from repro.analysis.calibration import scaled_llvm, scaled_skylake
        from repro.db.store import CampaignDB

        self.spec = lulesh_spec(scaled_llvm(scaled_skylake()), seed, **params)
        # One fresh store per pass.
        self.dbs = [CampaignDB(tmp / f"profile{k}.sqlite") for k in range(passes)]
        for db in self.dbs:
            db.conn  # opens the store and creates its schema
        self.passes: list[tuple] = []

    def cycle(self, k, timed):
        from repro.db.store import store_profile
        from repro.metrics.report import render_report
        from repro.obs.profile import profile_spec

        db = self.dbs[k]

        def profile():
            report = profile_spec(self.spec)
            return report, store_profile(db, report), render_report(db)

        report, run, html = timed(_pass_metrics(k), profile)
        self.passes.append((db, report, run, html))
        self.digests.append({"n_tasks": report.result.n_tasks,
                             "makespan": report.result.makespan,
                             "n_spans": report.recorder.n_spans})

    def check(self):
        from repro.db.store import DbResultStore, run_id
        from repro.util.serde import canonical_json

        checks = super().check()
        for db, report, run, html in self.passes:
            (stored,) = db.read.execute(
                "SELECT COUNT(*) FROM spans WHERE run = ?", (run_id(run),)
            ).fetchone()
            try:
                report.cp.check()
                cp_ok = True
            except ValueError:
                cp_ok = False
            row = DbResultStore(db).get(report.spec)
            checks += [
                ("stored span count equals the recorder's",
                 stored == report.recorder.n_spans),
                ("measured critical path passes its check", cp_ok),
                ("run row round-trips",
                 row is not None
                 and canonical_json(row.to_dict())
                 == canonical_json(report.result.to_dict())),
                ("report names the stored run's app", "lulesh" in html),
            ]
        return checks

    def store_counts(self):
        return _store_counts(self.dbs[-1])


def _store_counts(db) -> dict[str, int]:
    """Rows in every table of ``db``, and bytes of its file plus its WAL."""
    rows = sum(db.table_counts().values())
    db.close()
    size = sum(path.stat().st_size
               for path in (db.path, db.path.with_name(db.path.name + "-wal"))
               if path.exists())
    return {"db.store.rows_written": rows, "db.store.store_bytes": size}


WORKLOADS = {
    "des-discovery": lambda: DesWorkload(persistent=False),
    "des-persistent": lambda: DesWorkload(persistent=True),
    "sweep-campaign": SweepWorkload,
    "profile-store": ProfileWorkload,
}


def run_repeat(name: str, *, seed: int, size: str, tmp: Path, t0: float,
               trace: bool = False, reference: dict | None = None) -> dict:
    """Set up ``name``, run its measured phase, check; one record."""
    wl = WORKLOADS[name]()
    # A traced repeat adds the traced pass and one untraced pass after it.
    wl.setup(SIZES[size][name], seed, tmp, wl.cycles + 2 * trace)
    setup_s = time.time() - t0

    samples: dict[str, list[float]] = {"wall_s": [], "warm_s": []}

    def timed(metrics, fn):
        t = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t
        for metric in metrics:
            samples[metric].append(dt)
        return out

    def run_pass(k: int, timed) -> float:
        # Every pass starts with the cyclic collector's generations empty:
        # what set-up and earlier passes left alive moves to its permanent
        # generation, so a later pass scans no more than the first.
        gc.collect()
        gc.freeze()
        t = time.perf_counter()
        wl.cycle(k, timed)
        return time.perf_counter() - t

    pass_s = [run_pass(k, timed) for k in range(wl.cycles)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if trace:
        import trace as layer_trace

        def untimed(metrics, fn):
            return fn()

        calib = layer_trace.calibrate()
        tracer = layer_trace.Tracer()
        tracer.install()
        try:
            traced_s = run_pass(wl.cycles, untimed)
        finally:
            tracer.uninstall()
        # The host's speed drifts over seconds, so the untraced baseline is
        # the mean of the passes just before and just after the traced one.
        untraced_s = (pass_s[-1] + run_pass(wl.cycles + 1, untimed)) / 2
        layers = tracer.summary(traced_s, calib)
        layers["untraced_s"] = untraced_s
        layers["metrics"]["trace.overhead_ratio"] = traced_s / untraced_s

    checks = wl.check()
    digest = wl.digests[0]
    if reference is not None:
        expected = reference.get(size, {}).get(name)
        checks.append(("task count matches reference.json",
                       expected is not None and digest["n_tasks"] == expected["n_tasks"]))
        if seed == 0:
            checks.append(("seed-0 outputs match reference.json bitwise",
                           digest == expected))
    failed_ops = wl.failed_operations()
    failures = [label for label, ok in checks if not ok]
    if failed_ops:
        failures.append(f"{failed_ops} operations failed")

    import numpy

    record = {
        "workload": name,
        "seed": seed,
        "size": size,
        "traced": trace,
        "setup_s": setup_s,
        **samples,
        "pass_s": pass_s,
        "n_tasks": digest["n_tasks"],
        "peak_rss_mb": peak_rss_mb,
        "attempted": wl.operations + len(checks),
        "failed": failed_ops + sum(not ok for _, ok in checks),
        "failures": failures,
        "digest": digest,
        "numpy": numpy.__version__,
    }
    if layers is not None:
        layers["metrics"].update(wl.store_counts())
        record["layers"] = layers
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark repeat.")
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(SIZES), required=True)
    ap.add_argument("--tmp", type=Path, required=True,
                    help="scratch directory for stores and artifacts")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.time() at which the parent spawned this process")
    ap.add_argument("--trace", action="store_true",
                    help="attribute the measured phase to layers (trace.py)")
    ap.add_argument("--reference", type=Path,
                    help="reference.json to check outputs against")
    args = ap.parse_args(argv)
    reference = json.loads(args.reference.read_text()) if args.reference else None
    record = run_repeat(
        args.workload, seed=args.seed, size=args.size, tmp=args.tmp,
        t0=args.t0, trace=args.trace, reference=reference,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
