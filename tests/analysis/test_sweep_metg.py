"""Tests for TPL sweeps and METG computation."""

import pytest

from repro.analysis.metg import metg
from repro.analysis.sweep import Sweep, geometric_tpls, run_spec_sweep
from repro.analysis.calibration import scaled_mpc, scaled_skylake
from repro.campaign.spec import ExperimentSpec


def small_sweep(tpls=(4, 8, 16), opts="abc", fidelity="des"):
    base = ExperimentSpec(
        app="lulesh",
        config=scaled_mpc(scaled_skylake(8), opts=opts, n_threads=8),
        params={"s": 12, "iterations": 2, "tpl": tpls[0]},
        fidelity=fidelity,
    )
    return run_spec_sweep(base, list(tpls))


class TestGeometricTpls:
    def test_endpoints(self):
        t = geometric_tpls(4, 256, 7)
        assert t[0] == 4 and t[-1] == 256

    def test_deduplicated_sorted(self):
        t = geometric_tpls(2, 8, 20)
        assert t == sorted(set(t))

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            geometric_tpls(10, 2, 3)


class TestSweep:
    def test_runs_all_points(self):
        sw = small_sweep()
        assert sw.tpls == [4, 8, 16]
        assert all(p.n_tasks > 0 for p in sw.points)

    def test_series_extraction(self):
        sw = small_sweep()
        assert len(sw.series("total")) == 3
        assert all(v > 0 for v in sw.series("total"))

    def test_best_point(self):
        sw = small_sweep()
        best = sw.best("total")
        assert best.total == min(p.total for p in sw.points)

    def test_work_inflation_reference_is_one(self):
        sw = small_sweep()
        infl = sw.work_inflation()
        assert min(infl) == pytest.approx(1.0)
        assert all(v >= 1.0 for v in infl)

    def test_grain_decreases_with_tpl(self):
        sw = small_sweep()
        grains = sw.series("grain")
        assert grains[0] > grains[-1]

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            Sweep([])


class TestFidelityPassThrough:
    def test_replay_sweep_tracks_des(self):
        des = small_sweep((4, 8, 16))
        rep = small_sweep((4, 8, 16), fidelity="replay")
        assert all(
            p.result.extra["fidelity"] == "replay" for p in rep.points
        )
        for d, r in zip(des.points, rep.points):
            assert abs(r.total - d.total) <= 0.10 * d.total

    def test_analytic_sweep_runs(self):
        sw = small_sweep((4, 8), fidelity="analytic")
        assert all(p.result.extra["bounds"] is not None for p in sw.points)
        assert all(p.total > 0 for p in sw.points)


class TestMetg:
    def test_basic(self):
        sweeps = {"mpc": small_sweep((4, 8, 16, 32))}
        out = metg(sweeps, efficiency=0.5)
        m = out["mpc"]
        assert m.metg is not None
        assert m.metg > 0
        assert m.tpl in (4, 8, 16, 32)

    def test_high_efficiency_selects_coarser_or_none(self):
        sweeps = {"mpc": small_sweep((4, 8, 16, 32))}
        strict = metg(sweeps, efficiency=1.0)["mpc"]
        loose = metg(sweeps, efficiency=0.5)["mpc"]
        if strict.metg is not None:
            assert loose.metg <= strict.metg

    def test_cross_runtime_reference(self):
        """METG is measured against the best runtime overall."""
        fast = small_sweep((4, 8, 16), opts="abc")
        slow = small_sweep((4, 8, 16), opts="")
        out = metg({"fast": fast, "slow": slow}, efficiency=0.95)
        assert out["fast"].best_total == out["slow"].best_total

    def test_validation(self):
        with pytest.raises(ValueError):
            metg({}, efficiency=0.95)
        with pytest.raises(ValueError):
            metg({"x": small_sweep((4,))}, efficiency=1.5)

    def test_str_smoke(self):
        out = metg({"mpc": small_sweep((4, 8))}, efficiency=0.5)
        assert "METG" in str(out["mpc"])
