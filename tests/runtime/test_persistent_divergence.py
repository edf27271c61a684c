"""Structural-divergence detection across all three paper applications.

Every app builds its iterations from one shared template list
(``Program.from_template``), so a real run can never diverge; these tests
rebuild the programs with a mutated second iteration — the mesh-refinement
scenario of §3.2 "Applicability" — and check the runtime raises
:class:`PersistentStructureError` at the barrier, naming the same
divergence as the static ``V-PTSG-UNSAFE`` finding.
"""

import dataclasses

import pytest

from repro.core import OptimizationSet
from repro.core.persistent import PersistentStructureError
from repro.core.program import IterationSpec, Program, TaskSpec
from repro.core.task import DepMode
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig, TaskRuntime
from repro.verify.persistence import check_persistence


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


TEMPLATE = [
    TaskSpec(name="a", depends=((0, DepMode.OUT),), loop_id=0, flops=100.0),
    TaskSpec(name="b", depends=((0, DepMode.IN),), loop_id=0, flops=100.0),
    TaskSpec(name="taskwait", barrier=True),
    TaskSpec(name="c", depends=((1, DepMode.INOUT),), loop_id=1, flops=100.0),
]

#: Iteration 1 of each program: the template with one structural change.
MUTATIONS = {
    "depend": [
        TEMPLATE[0],
        dataclasses.replace(TEMPLATE[1], depends=((7, DepMode.IN),)),
        *TEMPLATE[2:],
    ],
    "name": [TEMPLATE[0], dataclasses.replace(TEMPLATE[1], name="b2"), *TEMPLATE[2:]],
    "loop-id": [TEMPLATE[0], dataclasses.replace(TEMPLATE[1], loop_id=5), *TEMPLATE[2:]],
    "task-count": TEMPLATE[:-1],
    "taskwait-position": [TEMPLATE[0], TEMPLATE[2], TEMPLATE[1], TEMPLATE[3]],
}


class TestDivergenceText:
    @pytest.mark.parametrize("change", list(MUTATIONS))
    def test_runtime_and_verifier_report_the_same_divergence(self, change):
        prog = Program(
            [
                IterationSpec(index=0, tasks=list(TEMPLATE)),
                IterationSpec(index=1, tasks=MUTATIONS[change]),
            ],
            persistent_candidate=True,
        )
        config = cfg()
        (finding,) = check_persistence(prog, config.opts)
        assert finding.rule == "V-PTSG-UNSAFE"
        with pytest.raises(PersistentStructureError) as err:
            TaskRuntime(prog, config).run()
        assert str(err.value) == f"iteration 1: {finding.data['divergence']}"
