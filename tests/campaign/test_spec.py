"""ExperimentSpec: value semantics, validation, serialization round-trips."""

from __future__ import annotations

import json
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.spec import APPS, ExperimentSpec, dump_specs, load_specs
from repro.core.optimizations import OptimizationSet
from repro.core.throttling import ThrottleConfig
from repro.memory.machine import tiny_test_machine
from repro.mpi.network import NetworkSpec
from repro.runtime import presets
from repro.runtime.costs import DiscoveryCosts, SchedulerCosts
from repro.runtime.runtime import RuntimeConfig
from repro.util.serde import content_key

CFG = presets.mpc_omp(tiny_test_machine(4), n_threads=4)


def spec(**kw) -> ExperimentSpec:
    kw.setdefault("app", "lulesh")
    kw.setdefault("config", CFG)
    kw.setdefault("params", {"s": 8, "iterations": 1, "tpl": 4})
    return ExperimentSpec(**kw)


class TestValueSemantics:
    def test_param_order_does_not_matter(self):
        a = spec(params={"s": 8, "tpl": 4})
        b = spec(params={"tpl": 4, "s": 8})
        assert a == b
        assert hash(a) == hash(b)
        assert a.key == b.key

    def test_specs_are_hashable_dict_keys(self):
        d = {spec(): "one", spec(seed=1): "two"}
        assert d[spec()] == "one"
        assert d[spec(seed=1)] == "two"

    def test_any_field_change_changes_key(self):
        base = spec()
        assert base.key != spec(seed=7).key
        assert base.key != spec(scale=0.5).key
        assert base.key != spec(params={"s": 8, "iterations": 1, "tpl": 8}).key
        assert base.key != spec(app="hpcg", params={"tpl": 4}).key

    def test_key_is_content_hash_not_process_hash(self):
        # sha256 hex: stable across processes (unlike builtin hash()).
        k = spec().key
        assert len(k) == 64
        assert k == spec().key

    def test_copies_get_their_own_key(self):
        base = spec()
        base_key = base.key  # cached on the original before copying
        copies = [
            base.with_params(tpl=16),
            base.with_fidelity("replay"),
            replace(base, seed=3),
        ]
        for c in copies:
            assert c.key == content_key(c.to_dict())
            assert c.key != base_key
        assert len({c.key for c in copies}) == 3
        # An equal copy hashes to the same key.
        assert replace(base).key == base_key
        # A cached key leaves equality, hash and pickling unchanged.
        fresh = spec()
        assert base == fresh and hash(base) == hash(fresh)
        assert pickle.loads(pickle.dumps(base)).key == fresh.key

    def test_with_params_merges(self):
        s2 = spec().with_params(tpl=16)
        assert s2.params_dict["tpl"] == 16
        assert s2.params_dict["s"] == 8
        assert spec().params_dict["tpl"] == 4  # original untouched

    def test_label_mentions_app_and_engine(self):
        s = spec(ranks=8)
        assert "lulesh" in s.label
        assert "ranks=8" in s.label


class TestValidation:
    def test_unknown_app(self):
        with pytest.raises(ValueError, match="unknown app"):
            spec(app="linpack")

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            spec(engine="gpu")

    def test_cholesky_has_no_forloop(self):
        with pytest.raises(ValueError, match="fork-join"):
            spec(app="cholesky", params={}, engine="forloop")

    def test_bad_ranks(self):
        with pytest.raises(ValueError, match="ranks"):
            spec(ranks=0)

    def test_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            spec(scale=0.0)

    def test_non_scalar_param(self):
        with pytest.raises(TypeError, match="JSON scalar"):
            spec(params={"s": [1, 2]})

    def test_duplicate_param(self):
        with pytest.raises(ValueError, match="duplicate"):
            spec(params=[("s", 8), ("s", 9)])

    def test_unknown_field_in_dict(self):
        d = spec().to_dict()
        d["frobnicate"] = 1
        with pytest.raises(ValueError, match="frobnicate"):
            ExperimentSpec.from_dict(d)


class TestRoundTrip:
    def test_dict_round_trip(self):
        for s in (
            spec(),
            spec(app="hpcg", params={"n_rows": 512, "tpl": 4}, ranks=8,
                 network=NetworkSpec(), seed=3, scale=0.5),
            spec(app="cholesky", params={"n": 128, "b": 32}, engine="task"),
        ):
            assert ExperimentSpec.from_dict(s.to_dict()) == s

    def test_json_round_trip_is_canonical(self):
        s = spec()
        assert ExperimentSpec.from_json(s.to_json()) == s
        # canonical: sorted keys, no whitespace drift
        assert s.to_json() == s.to_json()
        assert json.loads(s.to_json())["app"] == "lulesh"

    def test_spec_file_round_trip(self):
        specs = [spec(), spec(seed=1), spec(app="hpcg", params={"tpl": 2})]
        assert load_specs(dump_specs(specs)) == specs

    def test_load_specs_accepts_bare_list(self):
        specs = [spec()]
        text = json.dumps([s.to_dict() for s in specs])
        assert load_specs(text) == specs

    def test_load_specs_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_specs('{"not_specs": []}')
        with pytest.raises(ValueError):
            load_specs('"just a string"')


# ----------------------------------------------------------------------
# Hypothesis: serialization round-trips hold for arbitrary field values.
# ----------------------------------------------------------------------
opt_sets = st.builds(
    OptimizationSet,
    a=st.booleans(), b=st.booleans(), c=st.booleans(), p=st.booleans(),
)
throttles = st.sampled_from(
    [ThrottleConfig.disabled(), ThrottleConfig.mpc_default(),
     ThrottleConfig.ready_bound(64)]
)
configs = st.builds(
    RuntimeConfig,
    machine=st.just(tiny_test_machine(4)),
    n_threads=st.sampled_from([None, 2, 4]),
    opts=opt_sets,
    throttle=throttles,
    discovery=st.builds(DiscoveryCosts),
    sched=st.builds(SchedulerCosts),
    scheduler=st.sampled_from(["lifo-df", "fifo-bf"]),
    seed=st.integers(0, 2**31 - 1),
    name=st.sampled_from(["a", "rt-x", "mpc-omp"]),
)
param_values = st.one_of(
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.text(max_size=8),
)
specs_strategy = st.builds(
    ExperimentSpec,
    app=st.sampled_from([a for a in APPS if a != "cholesky"]),
    config=configs,
    params=st.dictionaries(
        st.text(st.characters(categories=("Ll",)), min_size=1, max_size=6),
        param_values,
        max_size=4,
    ),
    engine=st.just("task"),
    ranks=st.integers(1, 16),
    seed=st.integers(0, 2**31 - 1),
    scale=st.floats(0.001, 10.0, allow_nan=False),
    network=st.one_of(st.none(), st.builds(NetworkSpec)),
)


class TestHypothesisRoundTrip:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(specs_strategy)
    def test_spec_round_trip(self, s: ExperimentSpec):
        back = ExperimentSpec.from_dict(json.loads(s.to_json()))
        assert back == s
        assert back.key == s.key

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(configs)
    def test_runtime_config_round_trip(self, cfg: RuntimeConfig):
        back = RuntimeConfig.from_dict(cfg.to_dict())
        assert back == cfg
        assert hash(back) == hash(cfg)
