"""verify_program orchestration and the ``repro lint`` subcommand."""

import json
from pathlib import Path

import pytest

from repro.analysis.calibration import scaled_mpc
from repro.campaign.runner import build_programs
from repro.campaign.spec import ExperimentSpec
from repro.cli import main
from repro.core.program import ProgramBuilder
from repro.core.task import AccessMode
from repro.verify import PASSES, REGISTRY, Severity, verify_program
from repro.verify.report import render_json, render_text


def racy_program():
    b = ProgramBuilder("racy")
    with b.iteration():
        b.task("w0", out=["a"], footprint=[(3, 64, AccessMode.WRITE)])
        b.task("w1", out=["b"], footprint=[(3, 64, AccessMode.WRITE)])
    return b.build()


class TestVerifyProgram:
    def test_all_passes_run_by_default(self):
        rep = verify_program(racy_program())
        assert rep.passes == list(PASSES)
        assert rep.by_rule("V-RACE")
        assert rep.worst == Severity.ERROR
        assert rep.summary["n_tasks"] == 2

    def test_rules_registry_covers_emitted_rules(self):
        rep = verify_program(racy_program())
        assert {f.rule for f in rep} <= set(REGISTRY.catalogue())

    def test_findings_report_registry_severity(self):
        # One small program per app and opts regime, plus the seeded race:
        # together they emit findings of all three severities.
        programs = [(racy_program(), "abcp")]
        for app, opts, params in (
            ("lulesh", "abc", {"s": 8, "iterations": 2, "tpl": 8}),
            ("hpcg", "ab", {"n_rows": 4096, "iterations": 2, "tpl": 8}),
            ("cholesky", "abcp", {"n": 256, "b": 128}),
        ):
            spec = ExperimentSpec(
                app=app, config=scaled_mpc(opts=opts), params=params
            )
            programs.append((build_programs(spec)[0], opts))
        seen = set()
        for program, opts in programs:
            for f in verify_program(program, opts):
                rule = REGISTRY.get(f.rule)
                assert f.severity is rule.severity
                assert f.to_dict()["severity"] == rule.severity.name.lower()
                seen.add(f.severity)
        assert seen == set(Severity)

    def test_renderers(self):
        rep = verify_program(racy_program())
        text = render_text(rep)
        assert "V-RACE" in text and "error" in text
        payload = json.loads(render_json(rep))
        assert payload["counts"]["error"] >= 1
        # Deterministic report order: (rule, rank, tasks, iteration, message).
        rules = [f["rule"] for f in payload["findings"]]
        assert rules == sorted(rules)
        assert "V-RACE" in rules

    def test_clean_program_report(self):
        b = ProgramBuilder("clean")
        with b.iteration():
            b.task("t", out=["x"], flops=1e9)
        rep = verify_program(b.build())
        assert rep.worst is None
        assert "no findings" in render_text(rep)


class TestLintCommand:
    @pytest.mark.parametrize("app", ["lulesh", "hpcg", "cholesky"])
    def test_shipped_apps_have_zero_errors(self, app, capsys):
        assert main(["lint", app]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out or "no findings" in out

    def test_json_output(self, capsys):
        assert main(["lint", "cholesky", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["program"].startswith("cholesky")
        assert payload["counts"]["error"] == 0

    def test_fail_on_warning(self, capsys):
        # HPCG at lint defaults is discovery bound -> warning -> exit 1.
        assert main(["lint", "hpcg", "--fail-on", "warning"]) == 1

    def test_opts_change_findings(self, capsys):
        # Without opt (c), HPCG's reduction fan-ins trip V-IOSET-FANIN.
        assert main(["lint", "hpcg", "--opts", "ab", "--json"]) in (0, 1)
        payload = json.loads(capsys.readouterr().out)
        rules = {f["rule"] for f in payload["findings"]}
        assert "V-IOSET-FANIN" in rules


class TestLintPolicyFlags:
    def test_bad_fail_on_exits_2(self, capsys):
        assert main(["lint", "cholesky", "--fail-on", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "--fail-on" in err
        assert "info" in err and "warning" in err and "error" in err

    def test_cluster_lint(self, capsys):
        assert main(["lint", "cholesky", "--ranks", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ranks"] == 2
        assert payload["program"].startswith("cluster[2]:")
        assert payload["counts"]["error"] == 0

    def test_baseline_roundtrip_gates_only_new(self, capsys, tmp_path):
        bl = tmp_path / "baseline.json"
        assert main(["lint", "hpcg", "--write-baseline", str(bl)]) == 0
        assert bl.exists()
        # HPCG warns at lint defaults; with the baseline applied the same
        # findings are suppressed and even --fail-on info passes.
        assert main(["lint", "hpcg", "--fail-on", "warning"]) == 1
        capsys.readouterr()
        rc = main(
            ["lint", "hpcg", "--baseline", str(bl), "--fail-on", "info",
             "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["suppressed"] != []

    def test_sarif_export(self, capsys, tmp_path):
        out = tmp_path / "lint.sarif"
        assert main(["lint", "cholesky", "--sarif", str(out)]) == 0
        log = json.loads(out.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-verify"


#: The committed cluster baselines and the lint arguments that produce
#: them (the same list CI regenerates).
BASELINES = Path(__file__).resolve().parents[2] / "baselines" / "verify"
BASELINE_ARGS = {
    "lulesh-tpl8": ["lulesh", "--ranks", "8", "--tpl", "8"],
    "lulesh-tpl16": ["lulesh", "--ranks", "8", "--tpl", "16"],
    "hpcg-tpl8": ["hpcg", "--ranks", "8", "--tpl", "8"],
    "hpcg-tpl16": ["hpcg", "--ranks", "8", "--tpl", "16"],
    "cholesky-b128": ["cholesky", "--ranks", "4", "-b", "128"],
    "cholesky-b64": ["cholesky", "--ranks", "4", "-b", "64"],
}


class TestCommittedBaselines:
    @pytest.mark.parametrize("name", sorted(BASELINE_ARGS))
    def test_regenerates_byte_identically(self, name, capsys, tmp_path):
        out = tmp_path / f"{name}.json"
        rc = main(["lint", *BASELINE_ARGS[name], "--write-baseline", str(out)])
        assert rc == 0
        capsys.readouterr()
        assert out.read_bytes() == (BASELINES / f"{name}.json").read_bytes()


class TestInfoListsVerify:
    def test_info_lists_rules_and_passes(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "verify passes" in out
        for rule in REGISTRY.catalogue():
            assert rule in out
