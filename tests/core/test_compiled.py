"""Tests for the compiled TDG artifact, its signature, and its cache."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.campaign.runner import run_experiment
from repro.campaign.spec import ExperimentSpec
from repro.core import (
    CompiledGraphCache,
    CompiledTDG,
    IterationSpec,
    OptimizationSet,
    Program,
    ProgramBuilder,
    compile_program,
    structural_signature,
)
from repro.core.compiled import COMPILED_FORMAT
from repro.core.program import TaskSpec
from repro.core.task import DepMode
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig, TaskRuntime, presets
from repro.runtime.costs import DiscoveryCosts
from repro.util.serde import canonical_json, content_key


def chain_program(n=4, iterations=3, *, persistent=True, name="chain"):
    b = ProgramBuilder(name, persistent_candidate=persistent)
    for _ in range(iterations):
        with b.iteration():
            for i in range(n):
                b.task(
                    f"t{i}", inp=["x"] if i else [], inout=["x"],
                    flops=10.0, fp_bytes=16,
                )
    return b.build()


def redirect_program(iterations=2):
    """inoutset group with two readers: opt (c) inserts a redirect stub."""
    b = ProgramBuilder("redir", persistent_candidate=True)
    for _ in range(iterations):
        with b.iteration():
            for i in range(3):
                b.task(f"acc{i}", inoutset=["s"], flops=1.0)
            b.task("r0", inp=["s"], flops=1.0)
            b.task("r1", inp=["s"], flops=1.0)
    return b.build()


def empty_program():
    return Program([IterationSpec(index=0, tasks=[])], name="empty")


def lulesh_rank_program():
    """Rank 1 of an 8-rank LULESH: the comm columns are populated."""
    from repro.campaign.runner import build_programs
    from repro.campaign.spec import ExperimentSpec
    from repro.runtime import presets

    spec = ExperimentSpec(
        app="lulesh",
        config=presets.mpc_omp(tiny_test_machine(4), n_threads=4),
        params={"s": 8, "iterations": 2, "tpl": 4},
        ranks=8,
    )
    return build_programs(spec)[1]


ABCP = OptimizationSet.parse("abcp")


def reference_signature(program, opts):
    """The signature as one canonical-JSON document: what the streamed
    :func:`structural_signature` must hash equal to."""
    return content_key(
        {
            "format": 1,
            "persistent_candidate": bool(program.persistent_candidate),
            "opts": opts.to_dict(),
            "iterations": [
                [
                    [
                        s.name,
                        s.loop_id,
                        [[a, int(m)] for a, m in s.depends],
                        bool(s.barrier),
                        s.fp_bytes,
                        s.flops,
                    ]
                    for s in it.tasks
                ]
                for it in program.iterations
            ],
        }
    )


def split_artifact(buf):
    """(header dict, header end offset) of an artifact file."""
    n = int.from_bytes(buf[:4], "little")
    return json.loads(buf[4:4 + n]), 4 + n


def resign(buf, *, drop=(), **changes):
    """Rewrite (or ``drop``) header fields and sign the result like the
    writer does, so only the field check under test can reject it."""
    header, start = split_artifact(buf)
    header.pop("sha256")
    header.update(changes)
    for name in drop:
        del header[name]
    h = hashlib.sha256(canonical_json(header).encode())
    h.update(buf[start:])
    header["sha256"] = h.hexdigest()
    head = canonical_json(header).encode()
    return len(head).to_bytes(4, "little") + head + buf[start:]


class TestStructuralSignature:
    def test_stable_across_builds(self):
        a = structural_signature(chain_program(), ABCP)
        b = structural_signature(chain_program(), ABCP)
        assert a == b

    def test_opts_change_the_key(self):
        prog = chain_program()
        assert structural_signature(prog, ABCP) != structural_signature(
            prog, OptimizationSet.parse("ab")
        )

    def test_structure_change_changes_the_key(self):
        assert structural_signature(chain_program(4), ABCP) != (
            structural_signature(chain_program(5), ABCP)
        )

    def test_shared_and_unshared_iteration_lists_hash_equal(self):
        """from_template shares spec lists; a content-equal program with
        per-iteration copies must produce the same key."""
        shared = chain_program(3, iterations=3)
        tpl = list(shared.iterations[0].tasks)
        unshared = Program(
            [
                IterationSpec(index=it.index, tasks=list(tpl))
                for it in shared.iterations
            ],
            persistent_candidate=True,
            name="chain",
        )
        assert structural_signature(shared, ABCP) == structural_signature(
            unshared, ABCP
        )

    @pytest.mark.parametrize(
        "opts, key",
        [
            ("abc", "4d66f63d46ad709ff0bf51210fa02626d8e4ff256c3395356860ccefbb150bb7"),
            ("abcp", "e2a6d184ff9fc1a9dc6923dc079c098bd713be93ef4eafbc653a0fec8da6ca55"),
        ],
    )
    def test_lulesh_keys_are_pinned(self, opts, key):
        from repro.apps.lulesh import LuleshConfig, build_task_program

        prog = build_task_program(LuleshConfig(s=8, iterations=3, tpl=16))
        assert structural_signature(prog, OptimizationSet.parse(opts)) == key

    @pytest.mark.parametrize("persistent", [True, False])
    @pytest.mark.parametrize("opts", ["none", "abc", "abcp"])
    def test_streamed_signature_equals_document_key(self, persistent, opts):
        """Shared fragments, distinct fragments and empty iterations (first
        and inside) hash exactly as the whole document does."""
        shared = [
            TaskSpec("a", depends=((0, DepMode.OUT),), flops=1.5, loop_id=0),
            TaskSpec("b", depends=((0, DepMode.IN), (1, DepMode.INOUTSET))),
            TaskSpec("w", barrier=True),
        ]
        other = [TaskSpec("c", depends=((1, DepMode.INOUT),), fp_bytes=8)]
        lists = [[], shared, shared, [], other, list(shared), shared]
        prog = Program(
            [IterationSpec(index=i, tasks=t) for i, t in enumerate(lists)],
            persistent_candidate=persistent,
        )
        opt_set = OptimizationSet.parse(opts)
        assert structural_signature(prog, opt_set) == reference_signature(
            prog, opt_set
        )


class TestCompileProgram:
    def test_chain_csr(self):
        c = compile_program(chain_program(3, iterations=1), OptimizationSet.parse("ab"))
        assert isinstance(c, CompiledTDG)
        assert c.n_tasks == 3
        assert c.n_edges == 2
        assert c.successors(0) == [1]
        assert c.successors(1) == [2]
        assert c.successors(2) == []
        assert c.indegree == [0, 1, 1]
        assert c.unique_edges() == {(0, 1), (1, 2)}

    def test_persistent_compiles_template_only(self):
        c = compile_program(chain_program(3, iterations=4), ABCP)
        assert c.persistent
        assert c.n_tasks == 3
        assert c.iteration == [0, 0, 0]

    def test_non_persistent_compiles_every_iteration(self):
        c = compile_program(
            chain_program(3, iterations=2, persistent=False),
            OptimizationSet.parse("ab"),
        )
        assert c.n_tasks == 6
        assert c.iteration == [0, 0, 0, 1, 1, 1]

    def test_stub_columns(self):
        c = compile_program(redirect_program(), ABCP)
        assert c.n_stubs == 1
        (stub,) = c.stub_tids
        assert c.spec_pos[stub] == -1
        assert c.stats.redirect_nodes == 1

    @pytest.mark.parametrize("persistent", [True, False])
    def test_n_iterations_is_the_program_iteration_count(self, persistent):
        prog = chain_program(3, iterations=3, persistent=persistent)
        c = compile_program(prog, ABCP)
        assert c.persistent is persistent
        assert c.n_iterations == 3
        back = CompiledTDG.from_bytes(c.to_bytes(), c.key)
        assert back.n_iterations == 3

    @pytest.mark.parametrize("opts", ["abc", "abcp"])
    def test_bytes_do_not_depend_on_the_cost_model(self, opts):
        from repro.apps.lulesh import LuleshConfig, build_task_program

        prog = build_task_program(LuleshConfig(s=8, iterations=3, tpl=16))
        opt_set = OptimizationSet.parse(opts)
        default = compile_program(prog, opt_set, costs=DiscoveryCosts())
        scaled = compile_program(
            prog, opt_set, costs=DiscoveryCosts().scaled(0.5)
        )
        bare = compile_program(prog, opt_set)
        assert default.key == scaled.key == bare.key
        assert default.to_bytes() == scaled.to_bytes() == bare.to_bytes()

    def test_round_trip_dict(self):
        c = compile_program(redirect_program(), ABCP, costs=DiscoveryCosts())
        back = CompiledTDG.from_bytes(c.to_bytes(), c.key)
        assert back.to_dict() == c.to_dict()

    def test_topo_order_is_derived_once_and_never_serialized(self):
        c = compile_program(redirect_program(), ABCP, costs=DiscoveryCosts())
        doc = c.to_dict()
        # r0 (tid 3) closes the acc group: its stub (tid 4) precedes it.
        assert c.successors(4) == [3, 5]
        assert c.topo_order == [0, 1, 2, 4, 3, 5]
        assert c.topo_order is c.topo_order
        assert c.to_dict() == doc
        assert "topo_order" not in doc
        assert b"topo_order" not in c.to_bytes()
        back = CompiledTDG.from_bytes(c.to_bytes(), c.key)
        assert back.topo_order == c.topo_order

    @pytest.mark.parametrize("opts", ["none", "abc", "abcp"])
    def test_shared_and_copied_specs_compile_equal(self, opts):
        """Footprints are normalized once per spec object: a from_template
        program and a copy with distinct but equal spec objects in every
        iteration compile to the same artifact, and every task's footprint
        bytes are its own spec's."""
        from repro.apps.lulesh import LuleshConfig, build_task_program

        shared = build_task_program(LuleshConfig(s=8, iterations=3, tpl=16))
        copied = Program(
            [
                IterationSpec(
                    index=it.index,
                    tasks=[dataclasses.replace(s) for s in it.tasks],
                )
                for it in shared.iterations
            ],
            persistent_candidate=shared.persistent_candidate,
            name=shared.name,
        )
        assert shared.iterations[0].tasks is shared.iterations[1].tasks
        opt_set = OptimizationSet.parse(opts)
        c = compile_program(shared, opt_set, costs=DiscoveryCosts())
        assert c.to_dict() == compile_program(
            copied, opt_set, costs=DiscoveryCosts()
        ).to_dict()
        for tid in c.user_tids:
            spec = shared.iterations[c.iteration[tid]].tasks[c.spec_pos[tid]]
            assert c.foot_bytes[tid] == sum(e[1] for e in spec.footprint)


class TestRuntimeSnapshotEquality:
    """A DES run's task table, frozen, equals the static compile byte for
    byte, whatever cost model priced the compile — the
    equality-by-construction contract.  The discovery columns come from
    the run's ``task_create`` events; the barrier segments and template
    positions, which the table does not track, from the static compile."""

    def _snapshot(self, prog, opts, static, *, non_overlapped=False):
        opt_set = OptimizationSet.parse(opts)
        rt = TaskRuntime(
            prog,
            RuntimeConfig(
                machine=tiny_test_machine(4), opts=opt_set,
                non_overlapped=non_overlapped,
            ),
        )
        disc = []

        def on_create(table, tid, res, cost, time):
            # The creator's row, then a zero row per stub it created.
            disc.append((res.n_addrs, res.n_edges, res.n_skipped, res.n_redirects))
            disc.extend((0, 0, 0, 0) for _ in res.redirect_tids)

        rt.bus.subscribe("task_create", on_create)
        rt.run()
        snap = CompiledTDG.from_table(
            rt.table,
            key=structural_signature(prog, opt_set),
            segment=static.segment,
            spec_pos=static.spec_pos,
            disc=disc,
            n_iterations=prog.n_iterations,
        )
        if rt.table.persistent:
            # Replay re-stamps the table's iteration column for tracing;
            # the artifact describes the template iteration.
            snap.iteration = [0] * snap.n_tasks
        return snap

    @pytest.mark.parametrize("make_prog", [chain_program, redirect_program])
    def test_persistent_snapshot_equals_static_compile(self, make_prog):
        static = compile_program(make_prog(), ABCP, costs=DiscoveryCosts())
        snap = self._snapshot(make_prog(), "abcp", static)
        assert snap.to_bytes() == static.to_bytes()

    @pytest.mark.parametrize(
        "make_prog, opts",
        [
            (lambda: chain_program(4, iterations=2, persistent=False), "ab"),
            # Redirect stubs in every resolved iteration.
            (redirect_program, "abc"),
        ],
        ids=["chain-ab", "redirect-abc"],
    )
    def test_non_persistent_snapshot_equals_static_compile(self, make_prog, opts):
        # Non-overlapped mode: no task completes during discovery, so no
        # pruning — the exact precondition for static equality.
        static = compile_program(
            make_prog(), OptimizationSet.parse(opts), costs=DiscoveryCosts()
        )
        snap = self._snapshot(make_prog(), opts, static, non_overlapped=True)
        assert snap.to_bytes() == static.to_bytes()

    def test_lulesh_snapshot_equality(self):
        from repro.apps.lulesh import LuleshConfig, build_task_program

        cfg = LuleshConfig(s=8, iterations=3, tpl=16)
        static = compile_program(
            build_task_program(cfg), ABCP, costs=DiscoveryCosts().scaled(0.5)
        )
        snap = self._snapshot(build_task_program(cfg), "abcp", static)
        assert snap.to_bytes() == static.to_bytes()


class TestCompiledGraphCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        c = compile_program(chain_program(), ABCP)
        path = cache.put(c)
        assert path == cache.path_for(c.key)
        assert path.is_file()
        got = cache.get(c.key)
        assert got is not None
        assert got.to_dict() == c.to_dict()

    def test_miss_returns_none(self, tmp_path):
        cache = CompiledGraphCache(tmp_path / "compiled")
        assert cache.get("0" * 64) is None
        assert cache.get_alias("0" * 64) is None
        assert len(cache) == 0 and cache.keys() == []
        # Reads never create the directory; the first write does.
        assert not cache.root.exists()

    def test_len_and_keys(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        a = compile_program(chain_program(3), ABCP)
        b = compile_program(chain_program(5), ABCP)
        cache.put(a)
        cache.put(b)
        assert len(cache) == 2
        assert cache.keys() == sorted([a.key, b.key])

    def test_for_campaign_nests_under_cache_root(self, tmp_path):
        cache = CompiledGraphCache.for_campaign(tmp_path)
        assert cache.root == tmp_path / CompiledGraphCache.SUBDIR

    def test_stale_format_misses(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        c = compile_program(chain_program(), ABCP)
        path = cache.put(c)
        buf = path.read_bytes()
        old = b'"format":%d' % COMPILED_FORMAT
        assert old in buf
        path.write_bytes(buf.replace(old, b'"format":0', 1))
        assert cache.get(c.key) is None

    def test_file_under_another_key_misses(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        a = compile_program(chain_program(3), ABCP)
        b = compile_program(chain_program(5), ABCP)
        cache.put(a)
        path = cache.path_for(b.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(cache.path_for(a.key).read_bytes())
        assert cache.get(b.key) is None
        assert cache.get(a.key).to_dict() == a.to_dict()

    def test_format3_json_artifact_is_ignored(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        c = compile_program(chain_program(), ABCP)
        old = tmp_path / c.key[:2] / f"{c.key}.json"
        old.parent.mkdir(parents=True)
        old.write_text(
            canonical_json({"format": 3, "key": c.key, "compiled": c.to_dict()})
        )
        assert cache.get(c.key) is None
        assert not cache.path_for(c.key).exists()
        assert len(cache) == 0
        assert cache.keys() == []
        cache.put(c)
        assert cache.keys() == [c.key]


class TestBinaryArtifact:
    """``to_bytes``/``from_bytes``: exact round trips, deterministic bytes,
    and every damaged, stale or misfiled buffer decodes to None."""

    @pytest.mark.parametrize(
        "make",
        [chain_program, redirect_program, empty_program, lulesh_rank_program],
    )
    def test_round_trip(self, make):
        c = compile_program(make(), ABCP, costs=DiscoveryCosts(), owner=1)
        if make is lulesh_rank_program:
            assert c.comm_tids
        back = CompiledTDG.from_bytes(c.to_bytes(), c.key)
        assert back is not None
        assert back.to_dict() == c.to_dict()
        # Same Python types column by column (bools stay bools, floats
        # stay floats), so consumers see what the compiler produced.
        for col, values in c.to_dict().items():
            if isinstance(values, list):
                got = back.to_dict()[col]
                assert [type(v) for v in got] == [type(v) for v in values], col

    def test_two_compiles_give_equal_bytes(self):
        from repro.apps.lulesh import LuleshConfig, build_task_program

        def build():
            prog = build_task_program(LuleshConfig(s=8, iterations=3, tpl=16))
            return compile_program(prog, ABCP, costs=DiscoveryCosts()).to_bytes()

        assert build() == build()

    def test_integer_columns_take_the_narrowest_type(self):
        c = compile_program(chain_program(), ABCP)
        header, _ = split_artifact(c.to_bytes())
        types = {col: dtype for col, dtype, _ in header["columns"]}
        assert types["succ_offsets"] == "<i1"
        assert types["fp_bytes"] == "<i1"
        assert types["flops"] == "<f8"
        assert types["is_stub"] == "|b1"
        assert types["name"] == "<i4"
        big = dataclasses.replace(c, fp_bytes=[1 << 40] * c.n_tasks)
        header, _ = split_artifact(big.to_bytes())
        assert {col: t for col, t, _ in header["columns"]}["fp_bytes"] == "<i8"
        assert CompiledTDG.from_bytes(big.to_bytes(), c.key).fp_bytes == big.fp_bytes

    def _artifact(self):
        c = compile_program(redirect_program(), ABCP, costs=DiscoveryCosts())
        return c, c.to_bytes()

    def test_every_flipped_payload_byte_misses(self):
        c, buf = self._artifact()
        _, start = split_artifact(buf)
        assert len(buf) > start
        for i in range(start, len(buf)):
            bad = bytearray(buf)
            bad[i] ^= 0x01
            assert CompiledTDG.from_bytes(bytes(bad), c.key) is None, i

    def test_every_flipped_header_byte_misses(self):
        c, buf = self._artifact()
        _, start = split_artifact(buf)
        for i in range(start):
            bad = bytearray(buf)
            bad[i] ^= 0x01
            assert CompiledTDG.from_bytes(bytes(bad), c.key) is None, i

    def test_truncated_or_padded_buffer_misses(self):
        c, buf = self._artifact()
        for n in range(len(buf)):
            assert CompiledTDG.from_bytes(buf[:n], c.key) is None, n
        assert CompiledTDG.from_bytes(buf + b"\0", c.key) is None

    def test_foreign_headers_miss(self):
        c, _ = self._artifact()
        for head in (b"[1, 2]", b"\xff\xfe", b"[" * 100_000, b'{"format": 4}'):
            buf = len(head).to_bytes(4, "little") + head
            assert CompiledTDG.from_bytes(buf, c.key) is None, head[:8]

    def test_header_format_3_misses(self):
        c, buf = self._artifact()
        assert CompiledTDG.from_bytes(resign(buf), c.key) is not None
        assert CompiledTDG.from_bytes(resign(buf, format=3), c.key) is None

    def test_header_format_4_misses(self):
        c, buf = self._artifact()
        assert CompiledTDG.from_bytes(resign(buf, format=4), c.key) is None

    @pytest.mark.parametrize("bad", [None, -1, 2.0, "2", True])
    def test_invalid_iteration_count_misses(self, bad):
        """A missing (None), negative or non-integer count misses."""
        c, buf = self._artifact()
        assert split_artifact(buf)[0]["n_iterations"] == 2
        if bad is None:
            buf = resign(buf, drop=("n_iterations",))
        else:
            buf = resign(buf, n_iterations=bad)
        assert CompiledTDG.from_bytes(buf, c.key) is None

    def test_unexpected_layout_misses(self):
        c, buf = self._artifact()
        header, _ = split_artifact(buf)
        cols = header["columns"]
        floats = [[n, "<f4" if n == "flops" else t, k] for n, t, k in cols]
        assert CompiledTDG.from_bytes(resign(buf, columns=floats), c.key) is None
        assert CompiledTDG.from_bytes(resign(buf, columns=cols[:-1]), c.key) is None
        swapped = [cols[1], cols[0]] + cols[2:]
        assert CompiledTDG.from_bytes(resign(buf, columns=swapped), c.key) is None

    def test_misaligned_counts_miss(self):
        c, buf = self._artifact()
        header, _ = split_artifact(buf)
        cols = header["columns"]
        # Move one entry from the targets to the offsets column: the
        # payload size still matches, the CSR no longer aligns.
        width = {"<i1": 1, "<i2": 2, "<i4": 4, "<i8": 8}
        (o_name, o_type, o_n), (t_name, t_type, t_n) = cols[0], cols[1]
        assert width[o_type] == width[t_type]
        moved = [[o_name, o_type, o_n + 1], [t_name, t_type, t_n - 1]] + cols[2:]
        assert CompiledTDG.from_bytes(resign(buf, columns=moved), c.key) is None


class TestColumnArrays:
    """``CompiledTDG.arrays``: the numeric columns as read-only arrays,
    handed over by the decoder or converted once from the lists."""

    SCALARS = {
        "key", "persistent", "name", "stats", "n_iterations",
        "distinct_foot_bytes",
    }

    @pytest.mark.parametrize(
        "make",
        [chain_program, redirect_program, empty_program, lulesh_rank_program],
    )
    def test_arrays_equal_the_list_columns(self, make):
        c = compile_program(make(), ABCP, costs=DiscoveryCosts(), owner=1)
        back = CompiledTDG.from_bytes(c.to_bytes(), c.key)
        for art in (c, back):
            arrays = art.arrays
            assert art.arrays is arrays
            assert list(arrays) == [
                col for col in art.to_dict() if col not in self.SCALARS
            ]
            for col, arr in arrays.items():
                assert arr.tolist() == getattr(art, col), col
        # The decoder hands over its arrays in their stored (narrowest)
        # types; list columns convert to <i8.
        header, _ = split_artifact(c.to_bytes())
        stored = {col: np.dtype(dtype) for col, dtype, _ in header["columns"]}
        for col, arr in back.arrays.items():
            assert arr.dtype == stored[col], col
        assert stored["segment"] == np.dtype("<i1")
        assert c.arrays["segment"].dtype == np.dtype("<i8")

    def test_arrays_reject_writes(self):
        c = compile_program(redirect_program(), ABCP)
        back = CompiledTDG.from_bytes(c.to_bytes(), c.key)
        for art in (c, back):
            for col, arr in art.arrays.items():
                with pytest.raises(ValueError, match="read-only"):
                    arr[:1] = 0
            with pytest.raises(TypeError):
                art.arrays["flops"] = np.zeros(art.n_tasks)
            assert art.arrays["flops"].tolist() == art.flops


class TestRuntimeCachePublication:
    """The DES neither reads nor writes compiled artifacts: only the cheap
    tiers of ``run_experiment`` do."""

    def test_no_cache_no_extra_key(self):
        config = RuntimeConfig(
            machine=tiny_test_machine(4), opts=OptimizationSet.parse("abcp")
        )
        res = TaskRuntime(chain_program(), config).run()
        assert "compiled_tdg" not in res.extra

    def test_non_persistent_run_does_not_publish(self, tmp_path):
        cache = CompiledGraphCache(tmp_path / "compiled")
        spec = ExperimentSpec(
            app="lulesh",
            config=presets.mpc_omp(tiny_test_machine(4), n_threads=4, opts="abc"),
            params={"s": 8, "iterations": 2, "tpl": 4, "flops_per_item": 25.0},
        )
        res = run_experiment(spec, compiled_cache=cache)
        assert not cache.root.exists()
        assert len(cache) == 0
        assert "compiled_tdg" not in res.extra
