"""Unit tests for the PTSG structure check and the re-arm of a cached graph."""

from repro.core.persistent import first_divergence
from repro.core.program import IterationSpec, TaskSpec
from repro.core.task import DepMode
from repro.sim.table import COMPLETED, CREATED, TaskTable


def make_template(n=3):
    """``n`` chained specs and their persistent graph, as the first
    iteration discovers it."""
    specs = [TaskSpec(name=f"t{i}", depends=((0, DepMode.INOUT),)) for i in range(n)]
    table = TaskTable(persistent=True)
    tids = [table.new(s.name) for s in specs]
    for a, b in zip(tids, tids[1:]):
        table.add_edge(a, b, dedup=False)
    for t in tids:
        table.npred_initial[t] = table.npred[t]
    return IterationSpec(index=0, tasks=specs), table, tids


class TestValidation:
    def test_identical_iteration_ok(self):
        template, _, _ = make_template()
        it = IterationSpec(index=1, tasks=list(template.tasks))
        assert first_divergence(template, it) is None

    def test_task_count_mismatch(self):
        template, _, _ = make_template()
        it = IterationSpec(index=1, tasks=template.tasks[:-1])
        assert first_divergence(template, it) == (
            "submits 2 tasks where the template submits 3"
        )

    def test_dependence_mismatch(self):
        template, _, _ = make_template()
        bad = list(template.tasks)
        bad[1] = TaskSpec(name="t1", depends=((99, DepMode.IN),))
        it = IterationSpec(index=1, tasks=bad)
        assert first_divergence(template, it) == (
            "position 1: task 't1': depend clauses changed"
        )

    def test_name_mismatch(self):
        template, _, _ = make_template()
        bad = list(template.tasks)
        bad[0] = TaskSpec(name="other", depends=bad[0].depends)
        it = IterationSpec(index=1, tasks=bad)
        assert first_divergence(template, it) == (
            "position 0: task name 'other' vs 't0'"
        )

    def test_body_change_allowed(self):
        # firstprivate payloads (bodies) may change between iterations.
        template, _, _ = make_template()
        changed = [
            TaskSpec(name=s.name, depends=s.depends, body=(lambda: None))
            for s in template.tasks
        ]
        assert first_divergence(template, IterationSpec(index=1, tasks=changed)) is None


class TestRearm:
    def test_rearm_resets_all_tasks(self):
        _, table, tids = make_template()
        for t in tids:
            table.state[t] = COMPLETED
            table.npred[t] = 0
        table.reset_for_replay()
        for t in tids:
            assert table.state[t] == CREATED
            assert table.npred[t] == table.npred_initial[t]

    def test_counters(self):
        _, table, _ = make_template(4)
        assert table.n_tasks == 4
        assert table.n_edges == 3
