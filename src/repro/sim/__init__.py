"""`repro.sim` — the shared discrete-event simulation kernel.

All three execution engines (:class:`~repro.runtime.runtime.TaskRuntime`,
:class:`~repro.runtime.parallel_for.ParallelForRuntime` and
:class:`~repro.cluster.cluster.Cluster`) run on this kernel:

- :class:`EventQueue` — the time-ordered callback heap (deterministic
  tie-breaking by insertion sequence); one queue is one simulation
  timeline, and every rank of a coupled run is handed the same one as
  its ``engine``;
- :class:`InstrumentationBus` — typed hook points (``task_ready``,
  ``task_start``, ``task_end``, ``task_create``, ``task_replay``,
  ``msg_post``, ``msg_complete``, ``barrier``, ``register`` — see
  ``HOOK_DOCS`` for the catalogue).  The task trace and communication
  records (:class:`repro.obs.TraceRecorder`) and the discovery counters
  (:class:`repro.obs.DiscoveryCounters`) subscribe to the bus instead
  of being calls interleaved into runtime logic; an empty hook costs one
  attribute load and a falsy check on the hot path;
- :class:`TaskTable` — struct-of-arrays storage for the TDG (parallel
  columns for state, predecessor counts, cost fields; successor lists
  flattenable to a CSR layout).  A task is a row index (``tid``); there
  is no per-task object;
- :mod:`repro.sim.tiers` — the fidelity ladder over a compiled TDG:
  :func:`~repro.sim.tiers.analytic` work/span bounds,
  :func:`~repro.sim.tiers.replay` list scheduling, and
  :func:`~repro.sim.tiers.simulate`, which picks one of them or the
  ``des`` reference engine by name.  All return the same
  :class:`~repro.runtime.result.RunResult` shape.  The tiers build on
  the runtime layer, which builds on this kernel, so import them from
  :mod:`repro.sim.tiers` (or :mod:`repro.api`), not from here.
"""

from repro.sim.bus import HOOK_DOCS, HookBus, InstrumentationBus
from repro.sim.events import EventQueue
from repro.sim.table import TaskTable

__all__ = [
    "HOOK_DOCS",
    "HookBus",
    "EventQueue",
    "InstrumentationBus",
    "TaskTable",
]
