"""Smoke tests for the benchmark suite: ``pytest benchmarks/suite``.

Everything runs at ``--tiny`` size through the command line, the way the
benchmark is run.  These tests sit outside the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT, script: str = "run.py"):
    return subprocess.run(
        [sys.executable, str(Path("benchmarks/suite") / script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_names_and_limits():
    bench = benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert 1 <= bench["run_seconds"] <= 60
    assert bench["paths"] == ["benchmarks/suite"]
    names = [w["name"] for w in bench["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in bench[group]]
        for m in bench[group]:
            assert UNIT.fullmatch(m["unit"]), m
            assert m["better"] in ("lower", "higher"), m
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def copy_suite(dest: Path) -> None:
    """The benchmark's own files under ``dest``, as a checkout holds them."""
    (dest / "benchmarks").mkdir()
    shutil.copytree(HERE, dest / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)


def test_protocol_checks_pass_and_reports_every_metric(tmp_path):
    out = tmp_path / "results.json"
    proc = run("--tiny", "--traced", "--check", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    bench = benchmark()
    results = json.loads(out.read_text())
    assert set(results["workloads"]) == {w["name"] for w in bench["workloads"]}
    for name, wl in results["workloads"].items():
        assert wl["failed"] == 0 and wl["failed_frac"] == 0, (name, wl["failures"])
        assert set(wl["metrics"]) == {m["name"] for m in bench["end_to_end"]}
        assert set(wl["layers"]["metrics"]) == {m["name"] for m in bench["per_layer"]}
        assert all(m["samples"] for m in wl["metrics"].values())
    prov = results["provenance"]
    for key in ("cpu_model", "nproc", "python", "numpy", "git_commit", "seed",
                "repeats"):
        assert key in prov


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, group):
    proc = run("--workload", "des-persistent", "--tiny", "--seed", "1",
               "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in benchmark()[group]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_corrupted_reference_fails_the_check(tmp_path):
    copy_suite(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = tmp_path / "benchmarks" / "suite" / "reference.json"
    reference = json.loads(path.read_text())
    reference["tiny"]["des-discovery"]["makespan"] *= 1.5
    path.write_text(json.dumps(reference))
    proc = run("--workload", "des-discovery", "--tiny", "--seconds", "1",
               "--check", cwd=tmp_path)
    assert proc.returncode != 0
    assert last_json(proc.stdout)["correct"] is False


def test_tracer_self_test():
    proc = run("--tiny", "--workload", "des-discovery", "--workload",
               "profile-store", script="trace.py")
    assert proc.returncode == 0, proc.stderr


def _results(samples: dict[str, list[float]]) -> dict:
    return {"workloads": {"des-discovery": {"metrics": {
        name: {"samples": values} for name, values in samples.items()
    }}}}


def test_compare_verdicts(tmp_path):
    steady = [1.0 + 0.001 * k for k in range(10)]
    parent = {"wall_s": steady, "warm_s": steady,
              "setup_s": [0.5, 1.5] * 5, "peak_rss_mb": steady}
    change = {"wall_s": [0.8 * v for v in steady],
              "warm_s": [1.3 * v for v in steady],
              "setup_s": [1.5, 0.5] * 5, "peak_rss_mb": steady[::-1]}
    for name, doc in (("parent", parent), ("change", change)):
        (tmp_path / f"{name}.json").write_text(json.dumps(_results(doc)))
    proc = run("compare", str(tmp_path / "parent.json"), str(tmp_path / "change.json"))
    verdicts = {
        line.split()[1]: line.split("  ")[-1].strip()
        for line in proc.stdout.splitlines()[1:]
    }
    assert verdicts == {"wall_s": "improved", "warm_s": "worse",
                        "setup_s": "unresolved", "peak_rss_mb": "within bound"}
    assert proc.returncode == 1


def test_fails_without_the_program(tmp_path):
    copy_suite(tmp_path)
    proc = run("--workload", "des-discovery", "--seed", "0", "--seconds", "28",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
