"""The fidelity field end to end: spec semantics, key stability, dispatch.

Three contracts guard the API redesign:

1. ``fidelity`` validates like ``engine`` and round-trips through
   JSON/dict/file serialization;
2. pre-tier specs are byte- and key-stable — old JSON without the field
   loads, hashes and caches exactly as before;
3. ``run_experiment`` dispatches cheap-tier specs through the compiled
   artifact (with the alias warm path) and DES specs through the event
   engines, all returning the unified RunResult shape.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.engine import run_campaign
from repro.campaign.runner import run_experiment
from repro.campaign.spec import ExperimentSpec, dump_specs, load_specs
from repro.core.compiled import CompiledGraphCache, CompiledTDG
from repro.memory.machine import tiny_test_machine
from repro.runtime import presets
from repro.util.serde import canonical_json
from tests.core.test_compiled import resign

CFG = presets.mpc_omp(tiny_test_machine(4), n_threads=4)
PARAMS = {"s": 8, "iterations": 2, "tpl": 4, "flops_per_item": 25.0}


def spec(**kw) -> ExperimentSpec:
    kw.setdefault("app", "lulesh")
    kw.setdefault("config", CFG)
    kw.setdefault("params", dict(PARAMS))
    return ExperimentSpec(**kw)


class TestSpecField:
    def test_default_is_des(self):
        assert spec().fidelity == "des"

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="unknown fidelity 'exact'"):
            spec(fidelity="exact")

    def test_cheap_tier_requires_task_engine(self):
        with pytest.raises(ValueError, match="requires engine 'task'"):
            spec(fidelity="replay", engine="forloop")

    def test_cheap_tier_single_rank_only(self):
        with pytest.raises(ValueError, match="single-rank only"):
            spec(fidelity="analytic", ranks=8)

    def test_with_fidelity_validates(self):
        s = spec().with_fidelity("replay")
        assert s.fidelity == "replay"
        with pytest.raises(ValueError, match="unknown fidelity"):
            spec().with_fidelity("fast")

    def test_label_names_non_default_tier(self):
        assert "replay" in spec(fidelity="replay").label
        assert "des" not in spec().label


class TestKeyStability:
    def test_des_fidelity_omitted_from_dict(self):
        assert "fidelity" not in spec().to_dict()
        assert spec(fidelity="replay").to_dict()["fidelity"] == "replay"

    def test_old_json_without_fidelity_loads_and_keys_identically(self):
        base = spec()
        d = base.to_dict()
        assert "fidelity" not in d
        old = ExperimentSpec.from_dict(json.loads(json.dumps(d)))
        assert old == base
        assert old.key == base.key
        assert old.fidelity == "des"

    def test_explicit_des_equals_default(self):
        assert spec(fidelity="des") == spec()
        assert spec(fidelity="des").key == spec().key

    def test_cheap_tier_gets_its_own_key(self):
        base = spec()
        rep = base.with_fidelity("replay")
        ana = base.with_fidelity("analytic")
        assert len({base.key, rep.key, ana.key}) == 3

    def test_round_trip_all_tiers(self):
        for f in ("analytic", "replay", "des"):
            s = spec(fidelity=f)
            assert ExperimentSpec.from_json(s.to_json()) == s

    def test_spec_file_round_trip(self):
        specs = [spec(), spec(fidelity="replay"), spec(fidelity="analytic")]
        assert load_specs(dump_specs(specs)) == specs


class TestRunnerDispatch:
    @pytest.mark.parametrize("fidelity", ["analytic", "replay", "des"])
    def test_unified_result_shape(self, fidelity):
        res = run_experiment(spec(fidelity=fidelity))
        assert res.extra["fidelity"] == fidelity
        assert "bounds" in res.extra
        assert res.extra["spec_key"] == spec(fidelity=fidelity).key
        assert res.makespan > 0
        assert res.n_tasks > 0

    def test_cheap_tiers_track_des(self):
        des = run_experiment(spec())
        rep = run_experiment(spec(fidelity="replay"))
        ana = run_experiment(spec(fidelity="analytic"))
        assert rep.n_tasks == des.n_tasks
        assert abs(rep.makespan - des.makespan) <= 0.10 * des.makespan
        b = ana.extra["bounds"]
        assert b["makespan_lower"] <= des.makespan * (1 + 1e-9)
        assert des.makespan <= b["makespan_upper"] * (1 + 1e-9)

    def test_artifact_alias_warm_path(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        cold = run_experiment(spec(fidelity="replay"), compiled_cache=cache)
        assert cold.extra["compiled_tdg"]["cache_hit"] is False
        warm = run_experiment(spec(fidelity="replay"), compiled_cache=cache)
        assert warm.extra["compiled_tdg"]["cache_hit"] is True
        assert warm.makespan == cold.makespan
        # The analytic tier resolves through the same alias.
        ana = run_experiment(spec(fidelity="analytic"), compiled_cache=cache)
        assert ana.extra["compiled_tdg"]["cache_hit"] is True

    def test_corrupt_artifact_behind_alias_is_recompiled(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        cold = run_experiment(spec(fidelity="replay"), compiled_cache=cache)
        key = cold.extra["compiled_tdg"]["key"]
        path = cache.path_for(key)
        good = path.read_bytes()
        bad = bytearray(good)
        bad[-1] ^= 0x01  # one payload byte
        path.write_bytes(bytes(bad))
        assert cache.get(key) is None

        ana = run_experiment(spec(fidelity="analytic"), compiled_cache=cache)
        assert ana.extra["compiled_tdg"]["cache_hit"] is False
        uncached = run_experiment(spec(fidelity="analytic"))
        assert canonical_json(ana.to_dict()) == canonical_json(uncached.to_dict())
        # The miss rewrote a valid artifact in place.
        assert path.read_bytes() == good
        assert cache.get(key) is not None
        warm = run_experiment(spec(fidelity="analytic"), compiled_cache=cache)
        assert warm.extra["compiled_tdg"]["cache_hit"] is True
        assert warm.makespan == ana.makespan

    def test_warm_replay_then_analytic_decodes_once(self, tmp_path, monkeypatch):
        """One cache keeps its last decode: a warm replay spec and the
        analytic spec of the same program decode the artifact once.  A
        changed file is decoded again, so a damaged one still misses."""
        run_experiment(spec(fidelity="replay"),
                       compiled_cache=CompiledGraphCache(tmp_path))
        decodes = []
        decode = CompiledTDG.from_bytes

        def counting(buf, key):
            decodes.append(key)
            return decode(buf, key)

        monkeypatch.setattr(CompiledTDG, "from_bytes", staticmethod(counting))
        cache = CompiledGraphCache(tmp_path)
        for fidelity in ("replay", "analytic"):
            warm = run_experiment(spec(fidelity=fidelity), compiled_cache=cache)
            assert warm.extra["compiled_tdg"].pop("cache_hit") is True
            cold = run_experiment(spec(fidelity=fidelity))
            assert cold.extra["compiled_tdg"].pop("cache_hit") is False
            assert canonical_json(warm.to_dict()) == canonical_json(cold.to_dict())
        key = warm.extra["compiled_tdg"]["key"]
        assert decodes == [key]

        path = cache.path_for(key)
        good = path.read_bytes()
        flipped = bytearray(good)
        flipped[-1] ^= 0x01
        for bad in (bytes(flipped), good[:-1], resign(good, format=4)):
            path.write_bytes(bad)
            assert cache.get(key) is None
        path.write_bytes(good)
        assert cache.get(key) is not None
        assert cache.get(key) is cache.get(key)
        # Asking for another key drops the kept artifact.
        assert cache.get("0" * 64) is None
        assert cache.get(key) is not None
        assert len(decodes) == 1 + 3 + 1 + 1

    def test_format_4_artifact_and_alias_are_recompiled(self, tmp_path):
        """Artifacts and aliases of the previous format miss once and are
        rewritten in the current one."""
        cache = CompiledGraphCache(tmp_path)
        cold = run_experiment(spec(fidelity="replay"), compiled_cache=cache)
        key = cold.extra["compiled_tdg"]["key"]
        (alias_path,) = (tmp_path / "alias").rglob("*.json")
        good_alias = alias_path.read_text()
        alias_path.write_text(good_alias.replace('"format":5', '"format":4'))
        assert alias_path.read_text() != good_alias
        path = cache.path_for(key)
        good = path.read_bytes()
        path.write_bytes(resign(good, format=4))
        assert cache.get(key) is None

        again = run_experiment(spec(fidelity="replay"), compiled_cache=cache)
        assert again.extra["compiled_tdg"]["cache_hit"] is False
        assert canonical_json(again.to_dict()) == canonical_json(cold.to_dict())
        assert path.read_bytes() == good
        assert alias_path.read_text() == good_alias

    def test_alias_ignores_seed_and_cost_scale(self, tmp_path):
        """An artifact holds no cost model and the seed drives only the
        DES scheduler, so specs that differ only in seed or scale share
        one stored artifact."""
        cache = CompiledGraphCache(tmp_path)
        cfg = presets.mpc_omp(tiny_test_machine(4), n_threads=4, opts="abcp")
        params = dict(PARAMS, iterations=3, tpl=8)
        hits = []
        for kw in ({}, {"seed": 1}, {"scale": 0.5}):
            s = spec(config=cfg, params=params, fidelity="replay", **kw)
            res = run_experiment(s, compiled_cache=cache)
            hits.append(res.extra["compiled_tdg"].pop("cache_hit"))
            cold = run_experiment(s)
            assert cold.extra["compiled_tdg"].pop("cache_hit") is False
            assert canonical_json(res.to_dict()) == canonical_json(cold.to_dict())
        assert hits == [False, True, True]
        assert len(cache) == 1

    def test_des_run_leaves_the_compiled_cache_alone(self, tmp_path):
        """A persistent DES run with a cache attached writes nothing and
        reports no compiled graph: its result is the cacheless one."""
        cache = CompiledGraphCache(tmp_path / "compiled")
        des = spec(config=presets.mpc_omp(
            tiny_test_machine(4), n_threads=4, opts="abcp"
        ))
        res = run_experiment(des, compiled_cache=cache)
        assert not cache.root.exists()
        assert "compiled_tdg" not in res.extra
        assert canonical_json(res.to_dict()) == canonical_json(
            run_experiment(des).to_dict()
        )

    def test_deterministic_across_calls(self):
        a = run_experiment(spec(fidelity="replay"))
        b = run_experiment(spec(fidelity="replay"))
        assert a.makespan == b.makespan
        assert a.to_dict() == b.to_dict()


class TestCampaignFidelity:
    def test_fidelity_override_rewrites_specs(self):
        specs = [spec(), spec(params={**PARAMS, "tpl": 8})]
        out = run_campaign(
            [s.with_fidelity("replay") for s in specs], progress=False
        )
        assert len(out.records) == 2
        for rec in out.records:
            assert rec.result.extra["fidelity"] == "replay"

    def test_override_keys_distinct_from_des(self):
        s = spec()
        out = run_campaign([s.with_fidelity("analytic")], progress=False)
        rec = out.records[0]
        assert rec.spec.fidelity == "analytic"
        assert rec.spec.key != s.key
        assert rec.result.extra["bounds"] is not None
