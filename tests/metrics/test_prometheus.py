"""Prometheus text exposition: render, parse, validate, determinism."""

from __future__ import annotations

import pytest

from repro.metrics.prometheus import (
    parse_exposition,
    render_prometheus,
    validate_exposition,
)
from repro.metrics.registry import MetricsRegistry


def small_registry() -> MetricsRegistry:
    r = MetricsRegistry()
    r.counter("demo_runs_total", "Runs by outcome", ("event",))
    r.get("demo_runs_total").labels("done").inc(3)
    r.get("demo_runs_total").labels("failed").inc()
    r.gauge("demo_in_flight", "Attempts executing").set(2)
    h = r.histogram("demo_seconds", "Makespans", (0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(4.0)
    return r


class TestRender:
    def test_help_and_type_per_family(self):
        text = render_prometheus(small_registry())
        assert "# HELP demo_runs_total Runs by outcome" in text
        assert "# TYPE demo_runs_total counter" in text
        assert "# TYPE demo_seconds histogram" in text
        assert text.endswith("\n")

    def test_histogram_expands_cumulative_buckets(self):
        text = render_prometheus(small_registry())
        assert 'demo_seconds_bucket{le="0.1"} 1' in text
        assert 'demo_seconds_bucket{le="1"} 2' in text
        assert 'demo_seconds_bucket{le="+Inf"} 3' in text
        assert "demo_seconds_sum 4.55" in text
        assert "demo_seconds_count 3" in text

    def test_families_and_labels_sorted(self):
        text = render_prometheus(small_registry())
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines.index('demo_runs_total{event="done"} 3') < lines.index(
            'demo_runs_total{event="failed"} 1'
        )
        assert text.index("demo_in_flight") < text.index("demo_runs_total")

    def test_integer_values_render_bare(self):
        text = render_prometheus(small_registry())
        assert "demo_in_flight 2\n" in text

    def test_label_value_escaping(self):
        r = MetricsRegistry()
        r.counter("esc_total", "help", ("name",)).labels('a"b\\c\nd').inc()
        text = render_prometheus(r)
        assert 'esc_total{name="a\\"b\\\\c\\nd"} 1' in text
        fams = parse_exposition(text)
        ((_, labels, _),) = fams["esc_total"]["samples"]
        assert labels == {"name": 'a"b\\c\nd'}

    def test_rows_input_matches_registry_input(self):
        r = small_registry()
        assert render_prometheus(r.snapshot()) == render_prometheus(r)

    def test_render_is_deterministic(self):
        assert render_prometheus(small_registry()) == render_prometheus(
            small_registry()
        )

    def test_non_finite_value_raises(self):
        rows = [{"name": "bad", "kind": "gauge", "help": "h",
                 "labels": {}, "value": float("inf"), "doc": None}]
        with pytest.raises(ValueError, match="non-finite"):
            render_prometheus(rows)

    def test_volatile_excluded_unless_asked(self):
        r = small_registry()
        r.gauge("demo_eta_seconds", "ETA", volatile=True).set(9.5)
        assert "demo_eta_seconds" not in render_prometheus(r)
        assert "demo_eta_seconds 9.5" in render_prometheus(
            r, include_volatile=True
        )


class TestParseValidate:
    def test_round_trip(self):
        fams = validate_exposition(render_prometheus(small_registry()))
        assert fams["demo_runs_total"]["type"] == "counter"
        assert fams["demo_seconds"]["type"] == "histogram"
        # bucket/sum/count samples group under the base family name
        names = {s[0] for s in fams["demo_seconds"]["samples"]}
        assert names == {"demo_seconds_bucket", "demo_seconds_sum",
                         "demo_seconds_count"}

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            validate_exposition("\n")

    def test_missing_type_rejected(self):
        with pytest.raises(ValueError, match="missing # TYPE"):
            validate_exposition("# HELP x h\nx 1\n")

    def test_missing_help_rejected(self):
        with pytest.raises(ValueError, match="missing # HELP"):
            validate_exposition("# TYPE x gauge\nx 1\n")

    def test_non_finite_sample_rejected(self):
        doc = "# HELP x h\n# TYPE x gauge\nx NaN\n"
        with pytest.raises(ValueError, match="non-finite"):
            validate_exposition(doc)

    def test_garbage_value_rejected(self):
        doc = "# HELP x h\n# TYPE x gauge\nx pizza\n"
        with pytest.raises(ValueError):
            parse_exposition(doc)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown TYPE"):
            parse_exposition("# TYPE x flavor\n")
