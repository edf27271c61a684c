"""Per-layer wall-time attribution, applied to the simulator from outside.

The program carries no timing code.  For one traced pass, :class:`Tracer`
replaces the public functions of each simulator layer (:data:`LAYERS`) with
timing wrappers — class attributes in place, module-level functions at every
module that bound them — and restores the originals afterwards.  Two layers
are special:

- ``runtime`` wraps the ``TaskRuntime`` methods the runtime queues as event
  handlers.  They are patched on the class before the pass builds its
  runtime, so the bound methods it queues are the wrapped ones and each
  dispatch is a span under ``sim.events``;
- ``sim.bus`` wraps every callback registered through ``HookBus.subscribe``.

``EventQueue.run`` is a span too, so its self time is the event loop minus
the handlers it dispatched.

A span's self time is its duration minus its child spans.  Spans are
aggregated in memory by (layer, function, parent layer); nothing is kept per
call.  The wrapper's own cost is measured once on an empty function
(:func:`calibrate`) and subtracted: the part inside a span's clock reads from
the span itself, the part outside from its parent.

Self-test (traced outputs equal untraced ones, corrected self times add up
to the untraced pass's wall time, counts repeat exactly; ``--tiny`` skips
the timing gate)::

    python benchmarks/suite/trace.py
"""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
import time

#: Layer -> wrapped public functions, as ``module:qualname``.  Layer names
#: follow the package's module names.
LAYERS: dict[str, tuple[str, ...]] = {
    "apps": ("repro.campaign.runner:build_programs",),
    "core.dependences": (
        "repro.core.dependences:DependenceResolver.resolve_tid",
    ),
    "sim.table": (
        "repro.sim.table:TaskTable.new",
        "repro.sim.table:TaskTable.new_fast",
        "repro.sim.table:TaskTable.new_stub",
        "repro.sim.table:TaskTable.add_edge",
    ),
    "runtime": tuple(
        f"repro.runtime.runtime:TaskRuntime.{handler}"
        for handler in (
            "_producer_step", "_task_armed", "_root_ready", "_chain_end",
            "_deferred_ready", "_worker_try", "_finish_body", "_finish_launch",
            "_detach_complete",
        )
    ),
    "runtime.scheduler": tuple(
        f"repro.runtime.scheduler:{cls}.{meth}"
        for cls in ("LifoDepthFirstScheduler", "FifoBreadthFirstScheduler")
        for meth in ("pop", "push_local", "push_spawn")
    ),
    "memory.hierarchy": ("repro.memory.hierarchy:MemoryHierarchy.access",),
    "sim.events": (
        "repro.sim.events:EventQueue.push",
        "repro.sim.events:EventQueue.push_many",
        "repro.sim.events:EventQueue.run",
    ),
    "sim.bus": (),
    "core.compiled": (
        "repro.core.compiled:compile_program",
        "repro.core.compiled:structural_signature",
        "repro.core.compiled:CompiledGraphCache.put",
        "repro.core.compiled:CompiledGraphCache.get",
        "repro.core.compiled:CompiledGraphCache.put_alias",
        "repro.core.compiled:CompiledGraphCache.get_alias",
    ),
    "sim.tiers": ("repro.sim.tiers:simulate",),
    "campaign": (
        "repro.campaign.engine:run_campaign",
        "repro.campaign.runner:run_experiment",
    ),
    "db.store": (
        "repro.db.store:DbResultStore.put",
        "repro.db.store:DbResultStore.get",
        "repro.db.store:write_trace",
        "repro.db.store:annotate_critical_path",
    ),
    "obs": (
        "repro.obs.profile:profile_spec",
        "repro.obs.critical_path:measured_critical_path",
    ),
    "metrics.report": ("repro.metrics.report:render_report",),
}

#: Layers whose functions differ enough in cost to be reported one by one.
PER_FUNCTION = ("core.compiled", "db.store")

#: Time inside the traced phase that no wrapped span covers: benchmark glue
#: and unwrapped library code.
ROOT = "other"

#: Classes whose instances hold the counters some extras are read from.
_TRACKED = {
    "memory": "repro.memory.hierarchy:MemoryHierarchy",
    "events": "repro.sim.events:EventQueue",
    "scheduler": "repro.runtime.scheduler:LifoDepthFirstScheduler",
    "scheduler_fifo": "repro.runtime.scheduler:FifoBreadthFirstScheduler",
}


def _label(target: str) -> str:
    return target.split(":", 1)[1]


def _resolve(target: str):
    """``module:Class.attr`` -> (owner object, attribute name)."""
    module_name, qualname = target.split(":")
    owner = sys.modules[module_name]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Span aggregation for one traced pass, between ``install()`` and
    ``uninstall()``."""

    #: Deepest nesting of wrapped calls a pass may reach.
    MAX_DEPTH = 256

    def __init__(self) -> None:
        # The open spans, indexed by depth (0: the root, open for the whole
        # pass): layer, and seconds and calls of the child spans so far.
        # Preallocated, so a wrapped call allocates no container.
        self._depth = [0]
        self._layers: list = [ROOT] + [None] * self.MAX_DEPTH
        self._child_s = [0.0] * (self.MAX_DEPTH + 1)
        self._child_n = [0] * (self.MAX_DEPTH + 1)
        #: (layer, function) -> parent layer -> [calls, total s, child s,
        #: child calls].
        self.records: dict[tuple[str, str], dict[str, list]] = {}
        self.counts: dict[str, float] = {}
        #: Edges created and edge creations avoided by ``resolve_tid``.
        self._edges = [0, 0]
        self._instances: dict[str, list] = {key: [] for key in _TRACKED}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def span(self, layer: str, name: str, fn, hook=None):
        """``fn`` wrapped in a span of ``layer``; ``hook(result)`` after."""
        depth, layers = self._depth, self._layers
        child_s, child_n = self._child_s, self._child_n
        by_parent = self.records.setdefault((layer, name), {})
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = depth[0] + 1
            depth[0] = i
            layers[i] = layer
            child_s[i] = 0.0
            child_n[i] = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] = i - 1
                child_s[i - 1] += dt
                child_n[i - 1] += 1
                rec = by_parent.get(layers[i - 1])
                if rec is None:
                    rec = by_parent[layers[i - 1]] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += child_s[i]
                rec[3] += child_n[i]
            if hook is not None:
                hook(result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, layer: str, target: str, hook=None) -> None:
        owner, attr = _resolve(target)
        original = owner.__dict__[attr]
        wrapped = functools.wraps(original)(
            self.span(layer, _label(target), original, hook)
        )
        if isinstance(owner, type):
            self._patch(owner, attr, wrapped)
            return
        # A module-level function: rebind it in every module holding it,
        # so ``from x import f`` call sites see the wrapper too.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._patch(module, name, wrapped)

    def _track(self, key: str) -> None:
        cls, _ = _resolve(_TRACKED[key] + ".__init__")
        init = cls.__dict__["__init__"]
        instances = self._instances[key]

        def tracked_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)

        self._patch(cls, "__init__", functools.wraps(init)(tracked_init))

    def install(self) -> None:
        """Wrap every layer (the ``repro`` modules must be imported)."""
        import repro.campaign.engine  # noqa: F401 - every wrapped module
        import repro.db.store  # noqa: F401
        import repro.metrics.report  # noqa: F401
        import repro.obs.profile  # noqa: F401
        import repro.runtime.runtime  # noqa: F401
        import repro.sim.tiers  # noqa: F401
        from repro.sim.bus import HookBus

        hooks = {
            "DependenceResolver.resolve_tid": self._on_resolve,
            "CompiledGraphCache.get": self._on_lookup,
            "CompiledGraphCache.get_alias": self._on_lookup,
            "CompiledGraphCache.put": self._on_artifact,
            "run_campaign": self._on_campaign,
        }
        for key in _TRACKED:
            self._track(key)
        for layer, targets in LAYERS.items():
            for target in targets:
                self._patch_function(layer, target, hooks.get(_label(target)))

        subscribe = HookBus.__dict__["subscribe"]
        span = self.span

        def traced_subscribe(bus, hook, fn):
            subscribe(bus, hook, span("sim.bus", hook, fn))
            return fn

        self._patch(HookBus, "subscribe", functools.wraps(subscribe)(traced_subscribe))

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- count hooks -----------------------------------------------------
    def _on_resolve(self, res) -> None:
        # Runs once per task: kept to two additions.
        edges = self._edges
        edges[0] += res.n_edges
        edges[1] += res.n_skipped

    def _on_lookup(self, found) -> None:
        self._count("core.compiled.lookups", 1)
        self._count("core.compiled.hits", found is not None)

    def _on_artifact(self, path) -> None:
        self._count("core.compiled.artifact_bytes", path.stat().st_size)

    def _on_campaign(self, result) -> None:
        self._count("campaign.runs", result.n_runs)
        self._count("campaign.cached", result.n_cached)

    # ------------------------------------------------------------------
    def summary(self, wall: float, calib: tuple[float, float]) -> dict:
        """Per-layer metrics of the pass, ``wall`` seconds long.

        ``calib`` is :func:`calibrate`'s (inside, outside) wrapper cost per
        call.  A share is a layer's corrected self time over the pass's wall
        time net of the estimated wrapper cost, so the shares sum to one.
        """
        c_in, c_out = calib
        per_fn: dict[tuple[str, str], list] = {}
        for (layer, name), by_parent in self.records.items():
            calls = sum(r[0] for r in by_parent.values())
            raw = sum(r[1] - r[2] for r in by_parent.values())
            child_n = sum(r[3] for r in by_parent.values())
            per_fn[layer, name] = [calls, raw - calls * c_in - child_n * c_out]
        other = wall - self._child_s[0] - self._child_n[0] * c_out
        cost = sum(v[0] for v in per_fn.values()) * (c_in + c_out)
        net = wall - cost

        metrics: dict[str, float] = {}
        for layer, targets in LAYERS.items():
            rows = [v for (lay, _), v in per_fn.items() if lay == layer]
            self_s = sum(v[1] for v in rows)
            metrics[f"{layer}.calls"] = sum(v[0] for v in rows)
            metrics[f"{layer}.self_s"] = self_s
            metrics[f"{layer}.share"] = _ratio(self_s, net)
            if layer in PER_FUNCTION:
                for target in targets:
                    calls, fn_self = per_fn.get((layer, _label(target)), (0, 0.0))
                    metrics[f"{layer}.{_label(target)}.calls"] = calls
                    metrics[f"{layer}.{_label(target)}.self_s"] = fn_self
        metrics[f"{ROOT}.self_s"] = other
        metrics[f"{ROOT}.share"] = _ratio(other, net)
        metrics.update(self._extras())
        return {
            "metrics": metrics,
            "wall_s": wall,
            "wrapper_cost_s": cost,
            "calibration": {"inside_s": c_in, "outside_s": c_out},
            "spans": [
                {"layer": layer, "function": name, "parent": parent,
                 "calls": r[0], "total_s": r[1], "child_s": r[2],
                 "child_calls": r[3]}
                for (layer, name), by_parent in sorted(self.records.items())
                for parent, r in sorted(by_parent.items())
            ],
        }

    def _extras(self) -> dict[str, float]:
        c = self.counts.get
        pops = sum(
            r[0]
            for (layer, name), by_parent in self.records.items()
            if layer == "runtime.scheduler" and name.endswith(".pop")
            for r in by_parent.values()
        )
        scheds = self._instances["scheduler"] + self._instances["scheduler_fifo"]
        popped = sum(
            s.stats.pops_local + s.stats.pops_spawn + s.stats.steals
            for s in scheds
        )
        mem = [m.counters for m in self._instances["memory"]]
        l1 = sum(m.bytes_l1 for m in mem)
        dram = sum(m.bytes_dram for m in mem)
        touched = l1 + sum(m.bytes_l2 + m.bytes_l3 for m in mem) + dram
        created, avoided = self._edges
        return {
            "core.dependences.edges_created": created,
            "core.dependences.edge_useful_ratio": _ratio(created, created + avoided),
            "runtime.scheduler.pop_hit_ratio": _ratio(popped, pops),
            "runtime.scheduler.steals": sum(s.stats.steals for s in scheds),
            "memory.hierarchy.l1_byte_hit_ratio": _ratio(l1, touched),
            "memory.hierarchy.dram_bytes": dram,
            "sim.events.dispatched": sum(
                q.n_dispatched for q in self._instances["events"]
            ),
            "core.compiled.cache_hit_ratio": _ratio(
                c("core.compiled.hits", 0), c("core.compiled.lookups", 0)
            ),
            "core.compiled.artifact_bytes": c("core.compiled.artifact_bytes", 0),
            "campaign.resume_hit_ratio": _ratio(
                c("campaign.cached", 0), c("campaign.runs", 0)
            ),
        }


def calibrate(loops: int = 50_000, repeats: int = 5) -> tuple[float, float]:
    """Wrapper cost per call, (inside, outside) the span's clock reads.

    Medians over ``repeats`` timed loops of an empty two-argument function,
    bare and wrapped; the wrapped span's own recorded duration splits the
    cost.
    """
    def empty(a, b):
        pass

    clock = time.perf_counter
    inside, outside = [], []
    for _ in range(repeats):
        t = clock()
        for _ in range(loops):
            pass
        loop = clock() - t
        t = clock()
        for _ in range(loops):
            empty(1, 2)
        bare = clock() - t
        tracer = Tracer()
        wrapped = tracer.span("calibration", "empty", empty)
        t = clock()
        for _ in range(loops):
            wrapped(1, 2)
        total = clock() - t
        recorded = tracer.records["calibration", "empty"][ROOT][1]
        call = bare - loop
        inside.append((recorded - call) / loops)
        outside.append((total - bare - (recorded - call)) / loops)
    return statistics.median(inside), statistics.median(outside)


# ======================================================================
# self-test
# ======================================================================
#: Largest gap allowed between the corrected self times' total and the
#: untraced pass's wall time, as a share of the latter.
ACCOUNT_TOLERANCE = 0.05

#: Workloads whose gap is gated, at full size.  The DES workloads wrap
#: 1.0-1.4M calls a pass, and inside the event loop a wrapped call costs
#: about twice what :func:`calibrate` measures on an empty function, so
#: their corrected totals read 15-65% high.  At ``--tiny`` size a pass
#: lasts milliseconds, below the host's timing noise.  The self-test prints
#: those gaps, ungated.
ACCOUNTED = ("sweep-campaign", "profile-store")


def self_test(workloads, *, size: str, seed: int = 0) -> list[str]:
    """Problems found with the tracer on ``workloads`` (empty: all good).

    Per workload: two traced repeats, each in a fresh process, in which
    untraced passes come before and after the traced one.

    - The traced pass's outputs must equal the untraced passes' bitwise
      (one of the repeat's own checks).
    - For :data:`ACCOUNTED` workloads at full size, the corrected self
      times (the traced wall net of the estimated wrapper cost) must add up
      to the untraced wall time (the mean of the passes just before and
      after) within :data:`ACCOUNT_TOLERANCE`, in at least one of the two
      repeats: a slow spell of the host can spoil one repeat, but an error
      of the correction spoils both.
    - Every count must repeat across the two.
    """
    import run

    problems = []
    with run.scratch_dir() as tmp:
        for name in workloads:
            traced = [
                run.spawn(name, seed=seed, size=size, tmp_root=tmp, trace=True)
                for _ in range(2)
            ]
            gaps = []
            for rec in traced:
                problems += [f"{name}: {f}" for f in rec["failures"]]
                layers = rec["layers"]
                net = layers["wall_s"] - layers["wrapper_cost_s"]
                gaps.append(net / layers["untraced_s"] - 1.0)
                print(f"{name}: corrected self time {net:.3f} s, untraced "
                      f"{layers['untraced_s']:.3f} s ({gaps[-1]:+.1%}), traced "
                      f"{layers['wall_s']:.3f} s")
            gap = min(gaps, key=abs)
            gated = size == "full" and name in ACCOUNTED
            if gated and abs(gap) > ACCOUNT_TOLERANCE:
                problems.append(
                    f"{name}: corrected self times miss the untraced wall by "
                    f"{gap:+.1%} or more, beyond {ACCOUNT_TOLERANCE:.0%}"
                )
            counts = [_counts(rec["layers"]) for rec in traced]
            if counts[0] != counts[1]:
                changed = sorted(
                    k for k in counts[0] if counts[0][k] != counts[1].get(k)
                )
                problems.append(f"{name}: counts differ across traced runs: {changed}")
    return problems


def _counts(layers: dict) -> dict:
    """The deterministic part of a traced summary: everything but times."""
    out = {
        name: value for name, value in layers["metrics"].items()
        if not name.endswith((".self_s", ".share", ".overhead_ratio"))
    }
    out["spans"] = [
        (s["layer"], s["function"], s["parent"], s["calls"], s["child_calls"])
        for s in layers["spans"]
    ]
    return out


def main(argv=None) -> int:
    import run

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--workload", action="append", choices=run.WORKLOAD_NAMES,
                    help="workload to test (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    run.require_source()
    problems = self_test(
        args.workload or run.WORKLOAD_NAMES,
        size="tiny" if args.tiny else "full",
        seed=args.seed,
    )
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    if not problems:
        print("tracer self-test: OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
