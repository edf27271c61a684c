"""Hypothesis strategies shared by the property tests.

A *program shape* is a list of tasks, each a list of ``(address, DepMode)``
depend items with at most one item per address (like real clauses).  The
``build_*`` helpers that turn a shape into a program stay with each test,
since each instruments its tasks differently.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.task import DepMode

dep_mode = st.sampled_from(
    [DepMode.IN, DepMode.OUT, DepMode.INOUT, DepMode.INOUTSET]
)


def program_shape(n_addrs: int, max_deps: int, max_tasks: int):
    """1..``max_tasks`` tasks of 1..``max_deps`` items over ``n_addrs``
    addresses."""
    task_deps = st.lists(
        st.tuples(st.integers(0, n_addrs - 1), dep_mode),
        min_size=1,
        max_size=max_deps,
        unique_by=lambda d: d[0],  # one mode per address per task
    )
    return st.lists(task_deps, min_size=1, max_size=max_tasks)
