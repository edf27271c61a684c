"""The simulated tasking runtime: DES engine, schedulers, cost models."""

from repro.sim.events import EventQueue
from repro.runtime.costs import DiscoveryCosts, SchedulerCosts
from repro.runtime.scheduler import (
    FifoBreadthFirstScheduler,
    LifoDepthFirstScheduler,
    make_scheduler,
)
from repro.runtime.result import RunResult
from repro.runtime.runtime import DeadlockError, RuntimeConfig, TaskRuntime
from repro.runtime.parallel_for import (
    BlockingCollectiveSpec,
    ForIteration,
    ForProgram,
    HaloExchangeSpec,
    LoopSpec,
    P2PSpec,
    ParallelForRuntime,
)
from repro.runtime import presets

__all__ = [
    "EventQueue",
    "DiscoveryCosts",
    "SchedulerCosts",
    "FifoBreadthFirstScheduler",
    "LifoDepthFirstScheduler",
    "make_scheduler",
    "RunResult",
    "DeadlockError",
    "RuntimeConfig",
    "TaskRuntime",
    "BlockingCollectiveSpec",
    "ForIteration",
    "ForProgram",
    "HaloExchangeSpec",
    "LoopSpec",
    "P2PSpec",
    "ParallelForRuntime",
    "presets",
]
