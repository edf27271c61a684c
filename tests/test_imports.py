"""The import boundary: numpy is the only third-party module ``repro`` loads.

scipy and networkx load on first use — the HPCG and Cholesky numeric
validators, :func:`~repro.analysis.fit.fit_discovery_costs` and
:func:`~repro.analysis.graphtools.to_networkx` — so every CLI call, campaign
worker and benchmark repeat starts without paying for them.  The check runs
in a fresh interpreter where importing either package raises, and drives
each path the benchmark measures at its smallest size.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

BOUNDARY_SCRIPT = textwrap.dedent(
    """
    import sys

    # A None entry makes any import of the package (or a submodule) raise.
    sys.modules["scipy"] = sys.modules["networkx"] = None

    import repro
    import repro.cli
    from repro.analysis.calibration import scaled_llvm, scaled_mpc, scaled_skylake
    from repro.campaign.engine import run_campaign
    from repro.campaign.runner import build_programs, derive_config
    from repro.campaign.spec import ExperimentSpec
    from repro.db.store import CampaignDB, DbResultStore, store_profile
    from repro.metrics.report import render_report
    from repro.obs.profile import profile_spec
    from repro.runtime.runtime import TaskRuntime

    assert repro.cli.main(["info"]) == 0

    machine = scaled_skylake()

    def spec(config, fidelity="des", **params):
        return ExperimentSpec(
            app="lulesh", config=config, fidelity=fidelity,
            params={"s": 8, "iterations": 2, "tpl": 8, **params},
        )

    for config in (scaled_llvm(machine), scaled_mpc(machine, opts="abcp")):
        s = spec(config)
        assert TaskRuntime(build_programs(s)[0], derive_config(s)).run().n_tasks > 0

    db = CampaignDB("sweep.sqlite")
    specs = [spec(scaled_llvm(machine), fidelity=f) for f in ("replay", "analytic")]
    assert run_campaign(specs, store=DbResultStore(db)).n_failed == 0
    assert "lulesh" in render_report(db)

    db = CampaignDB("profile.sqlite")
    store_profile(db, profile_spec(spec(scaled_llvm(machine))))
    assert "lulesh" in render_report(db)
    """
)


def test_benchmark_paths_never_import_scipy_or_networkx(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", BOUNDARY_SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
