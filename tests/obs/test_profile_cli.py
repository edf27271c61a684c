"""End-to-end tests of the ``repro profile`` CLI subcommand."""

import json
import re

import pytest

from repro.cli import main
from repro.db import CampaignDB
from repro.obs import check_counters_doc, validate_perfetto

FAST = ["-s", "8", "-i", "2", "--tpl", "8", "--machine", "tiny", "--threads", "2"]


def run_profile(extra, capsys):
    rc = main(["profile", "lulesh", *FAST, *extra])
    return rc, capsys.readouterr().out


class TestProfileReport:
    def test_text_report(self, capsys):
        rc, out = run_profile([], capsys)
        assert rc == 0
        assert "discovery counters" in out
        assert "measured critical path" in out
        assert "time breakdown" in out
        share = re.search(r"^discovery share (\d+\.\d+) \(\d+ created", out, re.M)
        assert share and float(share.group(1)) > 0.0

    def test_json_summary(self, capsys):
        rc, out = run_profile(["--json"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["makespan"] > 0.0
        assert doc["critical_path"]["inflation"] >= 1.0
        check_counters_doc(doc["counters"])

    def test_forloop_engine_has_no_tdg(self, capsys):
        rc, out = run_profile(["--engine", "forloop"], capsys)
        assert rc == 0
        assert "critical path: n/a" in out

    def test_opt_b_duplicate_elimination_visible(self, capsys):
        """The acceptance criterion: nonzero dedup with (b) on, zero off."""
        _, out_on = run_profile(["--json", "--opts", "abc"], capsys)
        _, out_off = run_profile(["--json", "--opts", "none"], capsys)
        on = json.loads(out_on)["counters"]["totals"]
        off = json.loads(out_off)["counters"]["totals"]
        assert on["dup_edges_skipped"] > 0
        assert off["dup_edges_skipped"] == 0


class TestProfileArtifacts:
    def test_trace_is_valid_perfetto(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc, out = run_profile(["--trace", str(trace)], capsys)
        assert rc == 0 and trace.exists()
        assert f"wrote {trace}" in out
        validate_perfetto(json.loads(trace.read_text()))

    def test_counters_snapshot(self, tmp_path, capsys):
        counters = tmp_path / "counters.json"
        rc, _ = run_profile(["--counters", str(counters)], capsys)
        assert rc == 0
        doc = check_counters_doc(json.loads(counters.read_text()))
        assert doc["totals"]["tasks_created"] > 0

    def test_db_stores_run_under_json_key(self, tmp_path, capsys):
        """The printed ``spec_key`` is the key of the stored run."""
        path = tmp_path / "s.sqlite"
        rc, out = run_profile(["--json", "--db", str(path)], capsys)
        assert rc == 0
        key = json.loads(out)["spec_key"]
        with CampaignDB(path) as db:
            _, runs = db.query("SELECT key FROM runs")
            _, traces = db.query("SELECT key FROM trace_runs")
        assert runs == traces == [(key,)]

    def test_ndjson_log(self, tmp_path, capsys):
        nd = tmp_path / "events.ndjson"
        rc, _ = run_profile(["--ndjson", str(nd)], capsys)
        assert rc == 0
        lines = nd.read_text().splitlines()
        assert json.loads(lines[0])["ev"] == "header"


class TestProfileDiff:
    def snapshot(self, tmp_path, capsys, name, opts):
        path = tmp_path / name
        rc, _ = run_profile(["--counters", str(path), "--opts", opts], capsys)
        assert rc == 0
        return path

    def test_identical_runs_diff_clean(self, tmp_path, capsys):
        a = self.snapshot(tmp_path, capsys, "a.json", "abc")
        b = self.snapshot(tmp_path, capsys, "b.json", "abc")
        rc = main(["profile", "--diff", str(a), str(b)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "identical" in out

    def test_differing_runs_diff_nonzero(self, tmp_path, capsys):
        a = self.snapshot(tmp_path, capsys, "a.json", "abc")
        b = self.snapshot(tmp_path, capsys, "b.json", "none")
        rc = main(["profile", "--diff", str(a), str(b)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "dup_edges_skipped" in out

    def test_diff_rejects_non_counters_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ValueError, match="not a counters document"):
            main(["profile", "--diff", str(bad), str(bad)])


class TestInfoCatalogue:
    def test_info_lists_bus_hooks(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for hook in ("task_create", "task_replay", "register", "task_end"):
            assert hook in out

    def test_info_json(self, capsys):
        assert main(["info", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "bus_hooks" in doc
        assert "task_create" in doc["bus_hooks"]
        assert "signature" in doc["bus_hooks"]["task_create"]
