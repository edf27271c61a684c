"""Semantic tests of the dependence resolver — the heart of TDG discovery."""


from repro.core.dependences import DependenceResolver
from repro.core.optimizations import OptimizationSet
from repro.core.task import DepMode
from repro.sim.table import COMPLETED, TaskTable


def make(opts="", persistent=False):
    table = TaskTable(persistent=persistent)
    return table, DependenceResolver(table, OptimizationSet.parse(opts))


def submit(table, resolver, deps, name=""):
    tid = table.new(name)
    res = resolver.resolve_tid(tid, tuple(deps))
    return tid, res


def edges(table):
    return list(table.iter_edges())


X, Y, Z = 0, 1, 2


class TestBasicChains:
    def test_raw_edge(self):
        g, r = make()
        w, _ = submit(g, r, [(X, DepMode.OUT)])
        rd, res = submit(g, r, [(X, DepMode.IN)])
        assert edges(g) == [(w, rd)]
        assert g.npred[rd] == 1
        assert res.n_edges == 1

    def test_war_edge(self):
        g, r = make()
        rd, _ = submit(g, r, [(X, DepMode.IN)])
        w, _ = submit(g, r, [(X, DepMode.OUT)])
        assert edges(g) == [(rd, w)]

    def test_waw_edge(self):
        g, r = make()
        w1, _ = submit(g, r, [(X, DepMode.OUT)])
        w2, _ = submit(g, r, [(X, DepMode.OUT)])
        assert edges(g) == [(w1, w2)]

    def test_inout_behaves_as_out(self):
        g, r = make()
        w1, _ = submit(g, r, [(X, DepMode.INOUT)])
        w2, _ = submit(g, r, [(X, DepMode.INOUT)])
        assert edges(g) == [(w1, w2)]

    def test_concurrent_readers_no_edges(self):
        g, r = make()
        w, _ = submit(g, r, [(X, DepMode.OUT)])
        r1, _ = submit(g, r, [(X, DepMode.IN)])
        r2, _ = submit(g, r, [(X, DepMode.IN)])
        assert (r1, r2) not in edges(g)
        assert (r2, r1) not in edges(g)
        assert g.npred[r1] == 1 and g.npred[r2] == 1

    def test_writer_after_readers_waits_for_all(self):
        g, r = make()
        w, _ = submit(g, r, [(X, DepMode.OUT)])
        readers = [submit(g, r, [(X, DepMode.IN)])[0] for _ in range(4)]
        w2, _ = submit(g, r, [(X, DepMode.OUT)])
        for rd in readers:
            assert (rd, w2) in edges(g)
        # Writer edge is transitively covered by the readers.
        assert (w, w2) not in edges(g)

    def test_independent_addresses_no_edges(self):
        g, r = make()
        a, _ = submit(g, r, [(X, DepMode.OUT)])
        b, _ = submit(g, r, [(Y, DepMode.OUT)])
        assert edges(g) == []

    def test_first_reader_of_untouched_address(self):
        g, r = make()
        rd, res = submit(g, r, [(X, DepMode.IN)])
        assert res.n_edges == 0
        assert g.npred[rd] == 0


class TestFig3MultipleEdges:
    """The Fig. 3 pattern: two addresses resolving to the same predecessor."""

    def test_duplicate_edges_without_b(self):
        g, r = make("")
        w, _ = submit(g, r, [(X, DepMode.OUT), (Y, DepMode.OUT)])
        rd, res = submit(g, r, [(X, DepMode.IN), (Y, DepMode.IN)])
        assert res.n_edges == 2  # duplicate materialized
        assert g.npred[rd] == 2
        assert g.stats.duplicates_created == 1

    def test_duplicate_edges_removed_with_b(self):
        g, r = make("b")
        w, _ = submit(g, r, [(X, DepMode.OUT), (Y, DepMode.OUT)])
        rd, res = submit(g, r, [(X, DepMode.IN), (Y, DepMode.IN)])
        assert res.n_edges == 1
        assert res.n_skipped == 1
        assert g.npred[rd] == 1
        assert g.stats.duplicates_skipped == 1

    def test_duplicate_detection_is_adjacent_only(self):
        # A -> C via X, B -> C via Y, A -> C via Z: the second A edge is
        # NOT adjacent in A's creation order... but sequential submission
        # means it IS adjacent from A's point of view (last_succ).
        g, r = make("b")
        a, _ = submit(g, r, [(X, DepMode.OUT), (Z, DepMode.OUT)])
        b, _ = submit(g, r, [(Y, DepMode.OUT)])
        c, res = submit(
            g, r, [(X, DepMode.IN), (Y, DepMode.IN), (Z, DepMode.IN)]
        )
        # a->c, b->c, then a->c again: last_succ[a] is c, so deduped.
        assert res.n_edges == 2
        assert g.npred[c] == 2

    def test_npred_consistent_with_duplicates(self):
        """Without (b), duplicates must still be released consistently."""
        g, r = make("")
        w, _ = submit(g, r, [(X, DepMode.OUT), (Y, DepMode.OUT)])
        rd, _ = submit(g, r, [(X, DepMode.IN), (Y, DepMode.IN)])
        # Both edges exist; releasing each of w's successor entries once
        # brings npred to exactly 0.
        for s in g.succs[w]:
            g.npred[s] -= 1
        assert g.npred[rd] == 0


class TestInoutset:
    """Fig. 4: m concurrent writers, n readers."""

    def _build(self, opts, m, n):
        g, r = make(opts)
        writers = [submit(g, r, [(X, DepMode.INOUTSET)])[0] for _ in range(m)]
        readers = [submit(g, r, [(X, DepMode.IN)])[0] for _ in range(n)]
        return g, writers, readers

    def test_group_members_are_concurrent(self):
        g, writers, _ = self._build("", 5, 0)
        for w in writers:
            assert g.npred[w] == 0
            assert list(g.succs[w]) == []

    def test_mn_edges_without_c(self):
        m, n = 5, 7
        g, writers, readers = self._build("", m, n)
        assert g.stats.created == m * n
        for rd in readers:
            assert g.npred[rd] == m

    def test_m_plus_n_edges_with_c(self):
        m, n = 5, 7
        g, writers, readers = self._build("c", m, n)
        # m edges into the redirect node + n edges out of it.
        assert g.stats.created == m + n
        assert g.stats.redirect_nodes == 1
        for rd in readers:
            assert g.npred[rd] == 1

    def test_no_redirect_for_singleton_group(self):
        g, writers, readers = self._build("c", 1, 3)
        assert g.stats.redirect_nodes == 0
        assert g.stats.created == 3

    def test_writer_after_group_without_c(self):
        g, r = make("")
        writers = [submit(g, r, [(X, DepMode.INOUTSET)])[0] for _ in range(3)]
        w, _ = submit(g, r, [(X, DepMode.OUT)])
        assert g.npred[w] == 3

    def test_writer_after_group_with_c(self):
        g, r = make("c")
        writers = [submit(g, r, [(X, DepMode.INOUTSET)])[0] for _ in range(3)]
        w, _ = submit(g, r, [(X, DepMode.OUT)])
        assert g.npred[w] == 1  # via redirect
        assert g.stats.redirect_nodes == 1

    def test_group_waits_for_prior_writer(self):
        g, r = make("")
        w, _ = submit(g, r, [(X, DepMode.OUT)])
        x1, _ = submit(g, r, [(X, DepMode.INOUTSET)])
        x2, _ = submit(g, r, [(X, DepMode.INOUTSET)])
        assert g.npred[x1] == 1 and g.npred[x2] == 1
        assert (w, x1) in edges(g)
        assert (w, x2) in edges(g)

    def test_group_waits_for_prior_readers(self):
        g, r = make("")
        w, _ = submit(g, r, [(X, DepMode.OUT)])
        r1, _ = submit(g, r, [(X, DepMode.IN)])
        x1, _ = submit(g, r, [(X, DepMode.INOUTSET)])
        assert (r1, x1) in edges(g)

    def test_two_groups_separated_by_reader(self):
        g, r = make("")
        a = [submit(g, r, [(X, DepMode.INOUTSET)])[0] for _ in range(2)]
        rd, _ = submit(g, r, [(X, DepMode.IN)])
        b = [submit(g, r, [(X, DepMode.INOUTSET)])[0] for _ in range(2)]
        # Second group must wait for the reader (not join the first group).
        for w in b:
            assert (rd, w) in edges(g)

    def test_reset_clears_group_state(self):
        g, r = make("")
        submit(g, r, [(X, DepMode.INOUTSET)])
        r.reset()
        rd, res = submit(g, r, [(X, DepMode.IN)])
        assert res.n_edges == 0


class TestPruning:
    def test_completed_predecessor_pruned(self):
        g, r = make()
        w, _ = submit(g, r, [(X, DepMode.OUT)])
        g.state[w] = COMPLETED
        rd, res = submit(g, r, [(X, DepMode.IN)])
        assert res.n_edges == 0
        assert res.n_skipped == 1
        assert g.stats.pruned == 1
        assert g.npred[rd] == 0

    def test_persistent_graph_does_not_prune(self):
        g, r = make(persistent=True)
        w, _ = submit(g, r, [(X, DepMode.OUT)])
        g.state[w] = COMPLETED
        rd, res = submit(g, r, [(X, DepMode.IN)])
        assert res.n_edges == 1
        assert g.stats.pruned == 0
        # Edge exists but is pre-satisfied for the current iteration.
        assert g.npred[rd] == 0
        assert g.presat[rd] == 1
        assert g.succs[w] == [rd]


class TestResolutionResult:
    def test_addr_count(self):
        g, r = make()
        _, res = submit(g, r, [(X, DepMode.IN), (Y, DepMode.OUT), (Z, DepMode.IN)])
        assert res.n_addrs == 3

    def test_redirect_task_returned(self):
        g, r = make("c")
        for _ in range(2):
            submit(g, r, [(X, DepMode.INOUTSET)])
        reader, res = submit(g, r, [(X, DepMode.IN)])
        assert res.n_redirects == 1
        assert len(res.redirect_tids) == 1
        stub = res.redirect_tids[0]
        assert g.is_stub[stub]
        # The stub is created while the reader resolves, so it feeds a
        # task with a smaller tid: tid order is not topological.
        assert stub > reader
        assert g.succs[stub] == [reader]
