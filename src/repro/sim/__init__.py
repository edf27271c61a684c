"""`repro.sim` — the shared discrete-event simulation kernel.

All three execution engines (:class:`~repro.runtime.runtime.TaskRuntime`,
:class:`~repro.runtime.parallel_for.ParallelForRuntime` and
:class:`~repro.cluster.cluster.Cluster`) run on this kernel:

- :class:`EventQueue` — the time-ordered callback heap (deterministic
  tie-breaking by insertion sequence);
- :class:`SimContext` — one simulation timeline: event queue + clock +
  seeded RNG, shared by every rank of a coupled run;
- :class:`InstrumentationBus` — typed hook points (``task_ready``,
  ``task_start``, ``task_end``, ``task_create``, ``task_replay``,
  ``msg_post``, ``msg_complete``, ``barrier``, ``register`` — see
  ``HOOK_DOCS`` for the catalogue).  The task trace and communication
  records (:class:`repro.obs.TraceRecorder`) and the discovery counters
  (:class:`repro.obs.DiscoveryCounters`) subscribe to the bus instead
  of being calls interleaved into runtime logic; an empty hook costs one
  attribute load and a falsy check on the hot path;
- :class:`TaskTable` — struct-of-arrays storage for the TDG hot path
  (parallel columns for state, predecessor counts, cost fields; successor
  lists flattenable to a CSR layout).  :class:`~repro.core.task.Task`
  objects are thin views over table rows, kept for the public API and
  :mod:`repro.verify`;
- :mod:`repro.sim.tiers` — the fidelity ladder: three interchangeable
  :class:`Simulator` implementations (``analytic`` work/span bounds,
  ``replay`` list-scheduling over a compiled TDG, ``des`` the reference
  engines) all returning the same
  :class:`~repro.runtime.result.RunResult` shape; :func:`simulate` is
  the uniform entrypoint.
"""

from repro.sim.bus import HOOK_DOCS, HookBus, InstrumentationBus
from repro.sim.context import SimContext
from repro.sim.events import EventQueue
from repro.sim.table import TaskTable

# tiers pulls in the runtime layer, which itself builds on this kernel
# (core.graph imports sim.table), so the tier names must resolve lazily
# (PEP 562) to keep the package import acyclic.
_TIER_NAMES = (
    "AnalyticSimulator",
    "DEFAULT_FIDELITY",
    "DesSimulator",
    "FIDELITIES",
    "ReplaySimulator",
    "Simulator",
    "get_simulator",
    "simulate",
)


def __getattr__(name: str):
    if name in _TIER_NAMES:
        from repro.sim import tiers

        return getattr(tiers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnalyticSimulator",
    "DEFAULT_FIDELITY",
    "DesSimulator",
    "FIDELITIES",
    "HOOK_DOCS",
    "HookBus",
    "EventQueue",
    "InstrumentationBus",
    "ReplaySimulator",
    "SimContext",
    "Simulator",
    "TaskTable",
    "get_simulator",
    "simulate",
]
