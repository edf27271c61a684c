"""Structural tests of the LULESH task/for program builders."""

import hashlib
import json

import pytest

from repro.apps.lulesh import (
    COMM_AFTER_LOOP,
    LOOP_SCHEDULE,
    LuleshConfig,
    build_for_program,
    build_task_program,
    tasks_per_iteration,
)
from repro.cluster.mapping import RankGrid
from repro.core.program import CommKind
from repro.core.task import DepMode
from repro.runtime.parallel_for import HaloExchangeSpec, LoopSpec


class TestConfig:
    def test_counts(self):
        c = LuleshConfig(s=10, iterations=2, tpl=5)
        assert c.n_elems == 1000
        assert c.n_nodes == 11**3

    def test_tpl_bounded_by_elems(self):
        with pytest.raises(ValueError, match="exceeds"):
            LuleshConfig(s=4, tpl=100)

    def test_message_size_ordering(self):
        c = LuleshConfig(s=32, tpl=8)
        assert c.message_bytes("corner") < c.message_bytes("edge") < c.message_bytes("face")

    def test_face_is_rendezvous_scale(self):
        """At the paper's problem size faces are O(s^2) — above the eager
        threshold of the default network; corners/edges below (§4.1)."""
        from repro.mpi.network import bxi_like

        net = bxi_like()
        c = LuleshConfig(s=96, tpl=8)
        assert not net.is_eager(c.message_bytes("face"))
        assert net.is_eager(c.message_bytes("edge"))
        assert net.is_eager(c.message_bytes("corner"))

    def test_workset_bytes(self):
        c = LuleshConfig(s=16, tpl=4)
        assert c.workset_bytes == c.node_bytes + c.elem_bytes

    def test_unknown_group_rejected(self):
        c = LuleshConfig(s=8, tpl=4)
        with pytest.raises(KeyError):
            c.group_block_bytes("nodes", "bogus")
        with pytest.raises(ValueError):
            c.group_block_bytes("things", "pos")


class TestSchedule:
    def test_33_loops(self):
        assert len(LOOP_SCHEDULE) == 33

    def test_comm_loop_index_valid(self):
        assert 0 <= COMM_AFTER_LOOP < len(LOOP_SCHEDULE)

    def test_ioset_loops_write_forces(self):
        for loop in LOOP_SCHEDULE:
            if loop.ioset:
                assert ("nodes", "force") in loop.writes

    def test_dt_partial_loops_exist(self):
        assert sum(1 for l in LOOP_SCHEDULE if l.dt_partial) == 2


class TestTaskProgram:
    def test_task_count(self):
        cfg = LuleshConfig(s=12, iterations=3, tpl=8)
        prog = build_task_program(cfg)
        assert prog.n_tasks == 3 * tasks_per_iteration(cfg)

    def test_task_count_with_neighbors(self):
        cfg = LuleshConfig(s=12, iterations=1, tpl=8)
        grid = RankGrid.cubic(8)
        nbs = grid.neighbors(0)
        prog = build_task_program(cfg, neighbors=nbs)
        assert prog.n_tasks == tasks_per_iteration(cfg, len(nbs))

    def test_persistent_candidate(self):
        cfg = LuleshConfig(s=8, iterations=2, tpl=4)
        assert build_task_program(cfg).persistent_candidate

    def test_iterations_share_specs(self):
        cfg = LuleshConfig(s=8, iterations=4, tpl=4)
        prog = build_task_program(cfg)
        assert prog.iterations[0].tasks is prog.iterations[2].tasks

    def test_opt_a_reduces_addresses(self):
        cfg = LuleshConfig(s=12, iterations=1, tpl=8)
        n_plain = sum(len(s.depends) for s in build_task_program(cfg, opt_a=False).iterations[0].tasks)
        n_opt = sum(len(s.depends) for s in build_task_program(cfg, opt_a=True).iterations[0].tasks)
        assert n_opt < n_plain

    def test_inoutset_used_by_force_loops(self):
        cfg = LuleshConfig(s=12, iterations=1, tpl=8)
        prog = build_task_program(cfg, opt_a=True)
        modes = {
            m
            for spec in prog.iterations[0].tasks
            if spec.name.startswith("IntegrateStressForElems")
            for _, m in spec.depends
        }
        assert DepMode.INOUTSET in modes

    def test_dt_task_has_allreduce(self):
        cfg = LuleshConfig(s=8, iterations=1, tpl=4)
        prog = build_task_program(cfg)
        dt = prog.iterations[0].tasks[0]
        assert dt.comm is not None
        assert dt.comm.kind == CommKind.IALLREDUCE

    def test_dt_task_depends_on_all_partials(self):
        cfg = LuleshConfig(s=8, iterations=1, tpl=4)
        prog = build_task_program(cfg)
        dt = prog.iterations[0].tasks[0]
        n_in = sum(1 for _, m in dt.depends if m == DepMode.IN)
        assert n_in == 2 * cfg.tpl  # two constraint loops

    def test_comm_tasks_per_neighbor(self):
        cfg = LuleshConfig(s=8, iterations=1, tpl=4)
        grid = RankGrid.cubic(27)
        nbs = grid.neighbors(grid.interior_rank())
        prog = build_task_program(cfg, neighbors=nbs)
        names = [s.name for s in prog.iterations[0].tasks]
        assert sum(1 for n in names if n.startswith("MPI_Irecv")) == 26
        assert sum(1 for n in names if n.startswith("MPI_Isend")) == 26
        assert sum(1 for n in names if n.startswith("Pack")) == 26
        assert sum(1 for n in names if n.startswith("Unpack")) == 26

    def test_footprints_shrink_with_tpl(self):
        c_coarse = LuleshConfig(s=12, iterations=1, tpl=4)
        c_fine = LuleshConfig(s=12, iterations=1, tpl=32)
        def max_chunk(cfg):
            prog = build_task_program(cfg)
            return max(
                (b for s in prog.iterations[0].tasks for _, b, *_ in s.footprint),
                default=0,
            )
        assert max_chunk(c_fine) < max_chunk(c_coarse)


def template_digest(prog) -> str:
    """sha256 over every field of every template spec, after the iteration
    count: depend and access modes as ints, flops as ``float.hex``."""
    h = hashlib.sha256(f"n_iterations={prog.n_iterations}\n".encode())
    for spec in prog.iterations[0].tasks:
        comm = spec.comm
        record = [
            spec.name,
            [[a, int(m)] for a, m in spec.depends],
            float.hex(spec.flops),
            [[int(x) for x in entry] for entry in spec.footprint],
            spec.fp_bytes,
            spec.loop_id,
            None if comm is None
            else [int(comm.kind), comm.nbytes, comm.peer, comm.tag, comm.detached],
            spec.barrier,
            spec.priority,
            spec.device,
            spec.body is None,
        ]
        h.update(json.dumps(record, separators=(",", ":")).encode() + b"\n")
    return h.hexdigest()


_NEIGHBORS = {
    "alone": lambda: (),
    "rank0of8": lambda: RankGrid.cubic(8).neighbors(0),
    "rank13of27": lambda: RankGrid.cubic(27).neighbors(13),
}

#: (s, iterations, tpl, flops_per_item, builder options) of every pinned
#: template.  tpl 4 and 16 map several task blocks onto one force
#: superblock, so their clause lists go through the duplicate-item filter.
_SMALL = {
    f"{'a' if opt_a else 'noa'}-tpl{tpl}-{nb}": (
        8, 2, tpl, 60.0, {"opt_a": opt_a, "neighbors": nb})
    for opt_a in (False, True)
    for tpl in (4, 16)
    for nb in _NEIGHBORS
}
_PINNED_CASES = {
    **_SMALL,
    "taskwait-rank0of8": (8, 2, 16, 60.0, {"neighbors": "rank0of8",
                                           "taskwait_around_comm": True}),
    "offload-rank13of27": (8, 2, 16, 60.0, {"opt_a": True,
                                            "neighbors": "rank13of27",
                                            "offload": True}),
    # The four benchmark workloads at full size (benchmarks/suite): the
    # llvm preset leaves opt (a) off, the mpc presets (abc, abcp) turn it on.
    "des-discovery": (32, 4, 576, 25.0, {}),
    "des-persistent": (32, 6, 576, 25.0, {"opt_a": True}),
    **{
        f"sweep-campaign-tpl{tpl}-{'a' if opt_a else 'noa'}": (
            32, 4, tpl, 25.0, {"opt_a": opt_a})
        for tpl in (8, 32, 96)
        for opt_a in (False, True)
    },
    "profile-store": (16, 3, 48, 25.0, {}),
}

#: Recorded at b93b13e, from the builder that expanded every access once
#: per spec naming it.
PINNED_DIGESTS = {
    "a-tpl16-alone": "15a6a6dbed2fe51e48b89034ab1da1e5d2c1833200c548087058e281cf1c553c",
    "a-tpl16-rank0of8": "96a8e93399957d8a34b45b20090c81317f3520ba51753b5b195ee9b629be4f3a",
    "a-tpl16-rank13of27": "89c17b868da24012c589d247c68bb7cf68f1c1e985fcb06776ecabf49301d5aa",
    "a-tpl4-alone": "7624c77601031cbc5fc0fc87de60257a8a82bbe0c8d1ced906160e798a9ea276",
    "a-tpl4-rank0of8": "4ad0bc9bf4f102aac9c66427ad9d35613225a08da507a7e9df8eae8e25d00ef9",
    "a-tpl4-rank13of27": "357388ce6b8853f905ddfe5edf0ad9a140da1a074d808a53defc3025145ae5ae",
    "des-discovery": "a174454519a1201b75c7f1a02bd9805cb5561f52d91dc6bc6b36c042e64df3c0",
    "des-persistent": "b5e92d476df04246884d0eff67f1cc9f06700433410d695e870dd7fe22ccd1e3",
    "noa-tpl16-alone": "e04d50c8e6ddb66f40bcfeb8d6a76296a339e06658ae7e70139394387d3e100b",
    "noa-tpl16-rank0of8": "c57586eaa4f72060b599747ac22eb2793b330ea489b289568437ebdf7f62bec2",
    "noa-tpl16-rank13of27": "4820a1394bfbdbea1342f93bb07e89b621afffae454c6b2bf8a7c1e805237515",
    "noa-tpl4-alone": "dec304e2122abbdf29a40d631ddf4a9da124c0d018d6ef070d36868569339e5e",
    "noa-tpl4-rank0of8": "ab88f351fae00f43802dd7f4895c025b8da26455e06ce4d5c5059eabb4fc419b",
    "noa-tpl4-rank13of27": "5a6378ac112869ed1369488a7404b45812a2553659ab836a6c0be26fafd729a0",
    "offload-rank13of27": "e8d0b27122fccfb793b93d9aa9b9c140e8ee5b6aeb792f8442a6ab8ecedaeedc",
    "profile-store": "7ddbb616c3062ede70cbf408b49495163db669cd0c7c8129d2ff0a9a9f2efc15",
    "sweep-campaign-tpl32-a": "e5f89022d1405120892af2bcb7a36daa881afa1959377ce0dbbc1153e59e7b20",
    "sweep-campaign-tpl32-noa": "6d5ac663a634bb1b32e7fd7d42d6a9c3cf36c022b12f3e4a5e9e5d565340f125",
    "sweep-campaign-tpl8-a": "a18304748bde43bb9633f60751ffa0b3c7db0ca95fda6d16e90376e19e390f65",
    "sweep-campaign-tpl8-noa": "c368415a121851cae15b8b090271a9ae10393149762c3642261680021736bf96",
    "sweep-campaign-tpl96-a": "881695d103175e50f737684b82e7f4e1f80589bb3e7c51dfbfc675f36014aeb6",
    "sweep-campaign-tpl96-noa": "08d64c12cc35aafc149e0a7db13e89ec11e94fd685c4831e47a47f9b8a5c8153",
    "taskwait-rank0of8": "f34ffc91165c2e8f4c2647645b6a2143c11554c1898f9dd9332a0d51213808b3",
}


def build_pinned(case: str):
    s, iterations, tpl, flops_per_item, options = _PINNED_CASES[case]
    options = dict(options)
    if "neighbors" in options:
        options["neighbors"] = _NEIGHBORS[options["neighbors"]]()
    cfg = LuleshConfig(s=s, iterations=iterations, tpl=tpl,
                       flops_per_item=flops_per_item)
    return build_task_program(cfg, **options)


class TestPinnedTemplates:
    """The builder's output, spec for spec, is pinned: the interners hand
    out ids in order of first use, so any reordering of the walk (or a
    memo keyed in hash order) changes a digest here, and with it every
    structural key, compiled artifact and golden trace downstream."""

    @pytest.mark.parametrize("case", sorted(_PINNED_CASES))
    def test_template_digest(self, case):
        prog = build_pinned(case)
        assert all(it.tasks is prog.iterations[0].tasks for it in prog.iterations)
        assert template_digest(prog) == PINNED_DIGESTS[case]

    def test_specs_naming_one_block_share_its_tuples(self):
        """Every access is expanded once per build: two specs naming the
        same block hold one footprint entry and one depend item, not equal
        copies, compute and comm tasks alike."""
        specs = build_pinned("noa-tpl4-rank0of8").iterations[0].tasks
        by_name = {s.name: s for s in specs}
        # Both read elems/vol of block 1 first (after the dt item).
        a = by_name["EvalEOS_compression[1]"]
        b = by_name["EvalEOS_compHalfStep[1]"]
        assert a.footprint[0] is b.footprint[0]
        assert a.depends[1] is b.depends[1]
        # The first Pack reads boundary block 0 of the node forces, as the
        # block-0 task of CalcAccelerationForNodes does.
        pack = next(s for s in specs if s.name.startswith("Pack["))
        accel = by_name["CalcAccelerationForNodes[0]"]
        assert pack.footprint[0] is accel.footprint[0]
        assert pack.depends[0] is accel.depends[1]


class TestForProgram:
    def test_phases(self):
        cfg = LuleshConfig(s=8, iterations=2, tpl=4)
        prog = build_for_program(cfg)
        assert prog.n_iterations == 2
        loops = [p for p in prog.iterations[0].phases if isinstance(p, LoopSpec)]
        assert len(loops) == 33

    def test_halo_inserted_with_neighbors(self):
        cfg = LuleshConfig(s=8, iterations=1, tpl=4)
        grid = RankGrid.cubic(8)
        prog = build_for_program(cfg, neighbors=grid.neighbors(0))
        halos = [p for p in prog.iterations[0].phases if isinstance(p, HaloExchangeSpec)]
        assert len(halos) == 1
        assert len(halos[0].ops) == 2 * 7  # send+recv per neighbor

    def test_no_halo_without_neighbors(self):
        cfg = LuleshConfig(s=8, iterations=1, tpl=4)
        prog = build_for_program(cfg)
        assert not any(
            isinstance(p, HaloExchangeSpec) for p in prog.iterations[0].phases
        )
