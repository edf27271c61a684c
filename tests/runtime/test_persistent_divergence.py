"""Structural-divergence detection across all three paper applications.

Every app builds its iterations from one shared template list
(``Program.from_template``), so a real run can never diverge; these tests
rebuild the programs with a mutated second iteration — the mesh-refinement
scenario of §3.2 "Applicability" — and check the runtime raises
:class:`PersistentStructureError` at the barrier.
"""

import dataclasses

import pytest

from repro.core import OptimizationSet
from repro.core.persistent import PersistentStructureError
from repro.core.program import IterationSpec, Program
from repro.core.task import DepMode
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig, TaskRuntime


def lulesh_program():
    from repro.apps.lulesh import LuleshConfig, build_task_program

    return build_task_program(LuleshConfig(s=8, iterations=2, tpl=8))


def hpcg_program():
    from repro.apps.hpcg import HpcgConfig, build_task_program

    return build_task_program(HpcgConfig(n_rows=1024, iterations=2, tpl=8))


def cholesky_program():
    from repro.apps.cholesky import CholeskyConfig, build_task_programs

    return build_task_programs(CholeskyConfig(n=1024, b=256, iterations=2))[0]


APP_BUILDERS = {
    "lulesh": lulesh_program,
    "hpcg": hpcg_program,
    "cholesky": cholesky_program,
}


def cfg():
    return RuntimeConfig(
        machine=tiny_test_machine(4), opts=OptimizationSet.parse("abcp")
    )


def diverge(program) -> Program:
    """Second iteration with one task's dependences rewired (fresh addr)."""
    template = program.iterations[0].tasks
    bad = list(template)
    for i, spec in enumerate(bad):
        if not spec.barrier and spec.depends:
            bad[i] = dataclasses.replace(
                spec, depends=((10**9, DepMode.INOUT),)
            )
            break
    else:  # pragma: no cover - every app has dependent tasks
        raise AssertionError("no dependent task to mutate")
    return Program(
        [
            IterationSpec(index=0, tasks=template),
            IterationSpec(index=1, tasks=bad),
        ],
        persistent_candidate=True,
        name=f"{program.name}-diverged",
    )


def corrected(program) -> Program:
    """Second iteration content-equal to the template but not the same
    list object — exercises validation (not skipped) that then passes."""
    template = program.iterations[0].tasks
    return Program(
        [
            IterationSpec(index=0, tasks=template),
            IterationSpec(index=1, tasks=list(template)),
        ],
        persistent_candidate=True,
        name=program.name,
    )


class TestDivergenceDetected:
    @pytest.mark.parametrize("app", sorted(APP_BUILDERS))
    def test_divergence_raises(self, app):
        rt = TaskRuntime(diverge(APP_BUILDERS[app]()), cfg())
        rt.start()
        with pytest.raises(PersistentStructureError):
            rt.engine.run()

    @pytest.mark.parametrize("app", sorted(APP_BUILDERS))
    def test_content_equal_copy_validates_and_completes(self, app):
        res = TaskRuntime(corrected(APP_BUILDERS[app]()), cfg()).run()
        assert res.makespan > 0.0
