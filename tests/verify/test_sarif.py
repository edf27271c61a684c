"""SARIF 2.1.0 export structure."""

import json

from repro.verify import REGISTRY
from repro.verify.engine import Baseline
from repro.verify.findings import Finding, Report
from repro.verify.sarif import (
    FINGERPRINT_KEY,
    SARIF_VERSION,
    render_sarif,
    to_sarif,
)


def report_with_suppression():
    rep = Report(
        "demo",
        findings=[
            Finding(
                rule="V-RACE",
                message="race",
                tasks=("a", "b"),
            ),
            Finding(
                rule="V-DISC-BOUND",
                message="bound",
                hint="coarsen",
                data={"n_tasks": 10},
            ),
        ],
        passes=["races", "estimator"],
        ranks=2,
    )
    Baseline.from_report(Report("demo", findings=[rep.findings[0]])).apply(rep)
    return rep


class TestSarif:
    def test_log_structure(self):
        log = to_sarif(report_with_suppression())
        assert log["version"] == SARIF_VERSION
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-verify"
        assert {r["id"] for r in driver["rules"]} == set(REGISTRY.ids())
        assert run["properties"]["ranks"] == 2

    def test_results_reference_rules_by_index(self):
        log = to_sarif(report_with_suppression())
        (run,) = log["runs"]
        rules = run["tool"]["driver"]["rules"]
        for res in run["results"]:
            assert rules[res["ruleIndex"]]["id"] == res["ruleId"]

    def test_levels_and_fingerprints(self):
        log = to_sarif(report_with_suppression())
        (run,) = log["runs"]
        by_rule = {r["ruleId"]: r for r in run["results"]}
        assert by_rule["V-RACE"]["level"] == "error"
        assert by_rule["V-DISC-BOUND"]["level"] == "warning"
        for res in run["results"]:
            assert FINGERPRINT_KEY in res["partialFingerprints"]

    def test_baselined_results_carry_suppressions(self):
        log = to_sarif(report_with_suppression())
        (run,) = log["runs"]
        by_rule = {r["ruleId"]: r for r in run["results"]}
        (sup,) = by_rule["V-RACE"]["suppressions"]
        assert sup["kind"] == "external"
        assert "suppressions" not in by_rule["V-DISC-BOUND"]

    def test_info_maps_to_note(self):
        rep = Report(
            "demo",
            findings=[
                Finding(
                    rule="V-PTSG-MISSED",
                        message="missed",
                )
            ],
        )
        (run,) = to_sarif(rep)["runs"]
        assert run["results"][0]["level"] == "note"

    def test_render_is_deterministic_json(self):
        rep = report_with_suppression()
        a = render_sarif(rep)
        b = render_sarif(rep)
        assert a == b
        json.loads(a)
