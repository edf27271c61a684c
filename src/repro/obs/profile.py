"""One-call profiling: run a spec with full observability attached.

:func:`profile_spec` wires one :class:`~repro.obs.recorder.TraceRecorder`
and one :class:`~repro.obs.counters.DiscoveryCounters` onto the
experiment bus, executes the spec through the campaign runner
(the same entrypoint every other caller uses — profiling changes nothing
about the run), compiles the profiled rank's TDG, and derives the
measured critical path.  The :class:`ProfileReport` it returns feeds the
``repro profile`` CLI: text report, counters JSON, Perfetto trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.obs.counters import DiscoveryCounters, diff_counters
from repro.obs.critical_path import CriticalPathResult, measured_critical_path
from repro.obs.recorder import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.spec import ExperimentSpec
    from repro.core.compiled import CompiledTDG
    from repro.runtime.result import RunResult


@dataclass
class ProfileReport:
    """Everything one profiled run produced."""

    spec: "ExperimentSpec"
    #: ``result.trace`` is None unless ``spec.config.trace`` asked for
    #: it; the spans live in ``recorder``.
    result: "RunResult"
    recorder: TraceRecorder
    #: Counters JSON document (versioned; see repro.obs.counters).
    counters: dict
    #: None for the fork-join engine (no TDG to compile).
    compiled: Optional["CompiledTDG"]
    cp: Optional[CriticalPathResult]
    #: The rank whose tid space ``compiled``/``cp`` describe.
    profiled_rank: int


def profile_spec(spec: "ExperimentSpec") -> ProfileReport:
    """Run ``spec`` with a recorder attached and analyze the recording.

    The run is exactly what ``run_experiment(spec)`` executes: the bus
    subscribers observe without perturbing (the determinism suite's
    observer-neutrality contract), and the bus delivers ``task_end`` to
    the recorder whatever ``config.trace`` says.  Only the counters'
    JSON document is kept, so no task table outlives the call.
    """
    from repro.campaign.runner import build_programs, derive_config, run_experiment
    from repro.sim import InstrumentationBus

    bus = InstrumentationBus()
    recorder = bus.attach(TraceRecorder())
    counters = bus.attach(DiscoveryCounters())
    result = run_experiment(spec, bus=bus)
    profiled_rank = result.extra.get("cluster", {}).get("profiled_rank", 0)

    compiled = None
    cp = None
    if spec.engine == "task":
        from repro.core.compiled import compile_program

        cfg = derive_config(spec)
        program = build_programs(spec)[profiled_rank]
        compiled = compile_program(program, cfg.opts, owner=profiled_rank)
        cp = measured_critical_path(
            compiled,
            recorder,
            flops_per_core=cfg.machine.flops_per_core,
            rank=profiled_rank,
        )
    return ProfileReport(
        spec=spec,
        result=result,
        recorder=recorder,
        counters=counters.to_dict(),
        compiled=compiled,
        cp=cp,
        profiled_rank=profiled_rank,
    )


# ======================================================================
# rendering
# ======================================================================
def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    return f"{n:.1f} GiB"  # pragma: no cover - unreachable


def discovery_share(totals: dict, t_end: float) -> float:
    """Producer seconds over the makespan ``t_end`` (0.0 before any end).

    ``totals`` is a counters row (``counters["totals"]``).  The creation
    and replay costs are summed over ranks, so a wide run can report a
    share above 1.
    """
    discovery = totals["creation_cost"] + totals["replay_cost"]
    return discovery / t_end if t_end > 0 else 0.0


def text_report(report: ProfileReport) -> str:
    """The human-readable profile: breakdown, counters, critical path."""
    lines: list[str] = []
    spec = report.spec
    lines.append(f"profile: {spec.label}")
    lines.append(f"spec key: {spec.key[:16]}")
    lines.append("")

    r = report.result
    lines.append("time breakdown (§2.3.1, averaged on threads)")
    lines.append(f"  makespan   {r.makespan:12.6f} s")
    lines.append(f"  work       {r.work_avg:12.6f} s")
    lines.append(f"  idle       {r.idle_avg:12.6f} s")
    lines.append(f"  overhead   {r.overhead_avg:12.6f} s")
    lines.append(f"  discovery  {r.discovery_busy:12.6f} s (producer busy)")
    lines.append("")

    tot = report.counters["totals"]
    lines.append("discovery counters")
    lines.append(f"  tasks created          {tot['tasks_created']:>12}")
    lines.append(f"  depend addrs resolved  {tot['addrs_resolved']:>12}")
    lines.append(f"  edges created          {tot['edges_created']:>12}")
    lines.append(f"  duplicate edges skipped{tot['dup_edges_skipped']:>12}  (opt b)")
    lines.append(f"  duplicate edges made   {tot['dup_edges_created']:>12}")
    lines.append(f"  edges pruned           {tot['edges_pruned']:>12}")
    lines.append(
        f"  redirect nodes         {tot['redirect_nodes']:>12}  "
        f"(opt c; ~{tot['redirect_edges_saved']} edges saved)"
    )
    lines.append(f"  replay stamps          {tot['replay_stamps']:>12}  (opt p)")
    lines.append(
        f"  firstprivate copied    {_fmt_bytes(tot['fp_copy_bytes']):>12}"
    )
    lines.append("")

    if report.cp is not None:
        cp = report.cp
        lines.append("measured critical path")
        lines.append(f"  measured   {cp.length:12.6f} s")
        lines.append(f"  static T∞  {cp.static_t_inf:12.6f} s")
        lines.append(f"  inflation  {cp.inflation:12.3f}x")
        lines.append(
            f"  path tasks {cp.n_path_tasks:>7} of {cp.n_tasks} measured"
        )
        if cp.by_name:
            lines.append("  binding task names (seconds on path):")
            for name, secs in cp.by_name[:8]:
                lines.append(f"    {name:<28} {secs:12.6f} s")
    else:
        lines.append("measured critical path: n/a (no TDG for this engine)")

    n = report.recorder.n_spans
    lines.append("")
    lines.append(
        f"trace: {n} task spans, {len(report.recorder.barrier_kind)} "
        f"barriers, {len(report.recorder.comm_records)} MPI requests"
    )
    t_end = max(report.recorder.span_end, default=0.0)
    lines.append(
        f"discovery share {discovery_share(tot, t_end):.4f} "
        f"({tot['tasks_created']} created + {tot['replay_stamps']} replayed "
        f"over makespan {t_end:.6f}s)"
    )
    return "\n".join(lines)


def render_diff(delta: dict) -> str:
    """Human-readable counter diff (see ``diff_counters``)."""
    if not delta:
        return "counters identical"
    width = max(len(k) for k in delta)
    lines = [f"{len(delta)} counter(s) differ:"]
    for key in sorted(delta):
        d = delta[key]
        lines.append(
            f"  {key:<{width}}  {d['a']} -> {d['b']}  ({d['delta']:+})"
        )
    return "\n".join(lines)


__all__ = [
    "ProfileReport",
    "profile_spec",
    "text_report",
    "render_diff",
    "diff_counters",
]
