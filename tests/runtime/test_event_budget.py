"""The DES's event budget, pinned on LULESH.

A discovered task costs three dispatched events (its arm, its body's end
and the worker's next try after it): ``TaskRuntime._task_armed`` runs the
woken worker's try and the producer's next step in place whenever nothing
else is due.  Queued, the same schedule costs five.  Pinning ``n_dispatched`` makes a
lost in-place path fail by count, not by timing.
"""

import pytest

from repro.analysis.calibration import scaled_llvm
from repro.apps.lulesh import LuleshConfig, build_task_program
from repro.runtime import TaskRuntime
from repro.sim import EventQueue
from tests.integration.test_property_inplace import AlwaysDueQueue


@pytest.mark.parametrize(
    "tpl, n_tasks, events, queued_events",
    [(16, 1058, 3181, 5297), (64, 4226, 12685, 21137)],
)
def test_lulesh_dispatch_count(tpl, n_tasks, events, queued_events):
    cfg = scaled_llvm()
    prog = build_task_program(LuleshConfig(s=8, iterations=2, tpl=tpl),
                              opt_a=cfg.opts.a)
    counts = []
    for q in (EventQueue(), AlwaysDueQueue()):
        rt = TaskRuntime(prog, cfg, engine=q)
        rt.start()
        q.run()
        assert rt.result().n_tasks == n_tasks
        counts.append(q.n_dispatched)
    assert counts == [events, queued_events]
