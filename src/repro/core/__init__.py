"""Core task model: programs, TDG discovery and its optimizations.

This package is the paper's primary contribution area: the task dependency
graph (TDG), its discovery by a single producer thread, the discovery
optimizations (a)/(b)/(c), the persistent task sub-graph (p), and task
throttling.  A discovered task is a row (``tid``) of a
:class:`~repro.sim.table.TaskTable`; a frozen graph is a
:class:`CompiledTDG`.
"""

from repro.core.task import AccessMode, DepMode, Dep
from repro.core.program import (
    CommKind,
    CommSpec,
    IterationSpec,
    Program,
    ProgramBuilder,
    TaskSpec,
)
from repro.core.graph_stats import EdgeStats
from repro.core.compiled import (
    CompiledGraphCache,
    CompiledTDG,
    compile_program,
    structural_signature,
)
from repro.core.dependences import DependenceResolver, ResolutionResult
from repro.core.optimizations import OptimizationSet
from repro.core.persistent import PersistentStructureError
from repro.core.throttling import ThrottleConfig

__all__ = [
    "AccessMode",
    "DepMode",
    "Dep",
    "CommKind",
    "CommSpec",
    "IterationSpec",
    "Program",
    "ProgramBuilder",
    "TaskSpec",
    "EdgeStats",
    "CompiledGraphCache",
    "CompiledTDG",
    "compile_program",
    "structural_signature",
    "DependenceResolver",
    "ResolutionResult",
    "OptimizationSet",
    "PersistentStructureError",
    "ThrottleConfig",
]
