"""LiveRenderer in both modes: status lines, per-event lines, pacing,
failure recap."""

from __future__ import annotations

import io
from types import SimpleNamespace

from repro.campaign.bus import CampaignBus
from repro.metrics.campaign import CampaignMetrics
from repro.metrics.live import BAR_WIDTH, LiveRenderer, _fmt_duration


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def spec(label: str = "s0"):
    return SimpleNamespace(label=label)


def result(makespan: float = 0.5):
    return SimpleNamespace(makespan=makespan)


def campaign_result(summary: str = "campaign: 2 runs"):
    return SimpleNamespace(summary=lambda: summary)


class TestFmtDuration:
    def test_minutes(self):
        assert _fmt_duration(63.2) == "1:03"
        assert _fmt_duration(0) == "0:00"

    def test_hours(self):
        assert _fmt_duration(5025) == "1:23:45"


class TestStatusLine:
    def _renderer(self, n_total=4):
        clock = FakeClock()
        m = CampaignMetrics(n_total, clock=clock)
        stream = io.StringIO()
        r = LiveRenderer(m, stream=stream, clock=clock)
        return m, r, clock, stream

    def test_empty_campaign_renders(self):
        _, r, _, _ = self._renderer()
        line = r.status_line()
        assert "0/4" in line and "eta -:--" in line

    def test_progress_and_eta(self):
        m, r, clock, _ = self._renderer()
        for i in range(2):
            m.on_run_start(i, spec(), 1)
            clock.tick(10.0)
            m.on_run_done(i, spec(), result(), wall=10.0)
        line = r.status_line()
        assert "2/4" in line and " 50%" in line
        assert "eta 0:20" in line
        assert ">" in line  # partial bar carries the arrow head

    def test_failures_appear_only_when_present(self):
        m, r, _, _ = self._renderer()
        assert "fail" not in r.status_line()
        m.on_run_start(0, spec("bad"), 1)
        m.on_run_failed(0, spec("bad"), RuntimeError())
        assert "fail 1" in r.status_line()

    def test_full_bar_at_completion(self):
        m, r, clock, _ = self._renderer(n_total=1)
        m.on_run_start(0, spec(), 1)
        clock.tick(1.0)
        m.on_run_done(0, spec(), result(), wall=1.0)
        assert "=" * BAR_WIDTH in r.status_line()


class TestRendering:
    def test_pipe_output_throttles(self):
        clock = FakeClock()
        m = CampaignMetrics(10, clock=clock)
        stream = io.StringIO()
        r = LiveRenderer(m, stream=stream, clock=clock)
        bus = CampaignBus()
        bus.attach(m)
        bus.attach(r)
        for i in range(10):  # all within one throttle window
            for cb in bus.run_start:
                cb(i, spec(), 1)
            clock.tick(0.01)
            for cb in bus.run_done:
                cb(i, spec(), result(), 0.01)
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert 1 <= len(lines) <= 2  # not one line per event

    def test_done_recap_lists_failures_and_summary(self):
        clock = FakeClock()
        m = CampaignMetrics(2, clock=clock)
        stream = io.StringIO()
        r = LiveRenderer(m, stream=stream, clock=clock)
        m.on_run_start(0, spec("good"), 1)
        m.on_run_done(0, spec("good"), result(), wall=1.0)
        m.on_run_start(1, spec("bad-spec"), 1)
        m.on_run_failed(1, spec("bad-spec"), RuntimeError("boom"))
        clock.tick(65.0)
        m.on_campaign_done(campaign_result("campaign: 2 runs, 1 failed"))
        r.on_campaign_done(campaign_result("campaign: 2 runs, 1 failed"))
        out = stream.getvalue()
        assert "FAILED bad-spec" in out
        assert "campaign: 2 runs, 1 failed [wall 1:05]" in out

    def test_no_control_codes_on_pipe(self):
        clock = FakeClock()
        m = CampaignMetrics(1, clock=clock)
        stream = io.StringIO()  # isatty() is False
        r = LiveRenderer(m, stream=stream, clock=clock)
        m.on_run_start(0, spec(), 1)
        r.on_run_start(0, spec(), 1)
        assert "\x1b" not in stream.getvalue()
        assert "\r" not in stream.getvalue()


def emit(bus, hook, *args):
    for cb in getattr(bus, hook):
        cb(*args)


class TestProgressPrinter:
    """``run_campaign(progress=True)``'s printer: the renderer off
    ``live``, one ``[k/n][elapsed eta]`` line per event."""

    def _printer(self, n_total=3):
        clock = FakeClock()
        stream = io.StringIO()
        m = CampaignMetrics(n_total, clock=clock)
        bus = CampaignBus()
        bus.attach(m)
        bus.attach(LiveRenderer(m, live=False, stream=stream, clock=clock))
        return bus, clock, stream

    def test_lines_carry_elapsed_and_eta(self):
        bus, clock, stream = self._printer()
        emit(bus, "run_start", 0, spec("a"), 1)
        clock.tick(2.0)
        emit(bus, "run_done", 0, spec("a"), result(0.25), 2.0)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1  # a start prints nothing
        assert lines[0].startswith("[1/3][    2.0s eta    4.0s]")
        assert "makespan=0.250000s" in lines[0]

    def test_final_line_omits_eta(self):
        bus, clock, stream = self._printer(n_total=1)
        clock.tick(1.0)
        emit(bus, "run_done", 0, spec("a"), result(), 1.0)
        assert "eta" not in stream.getvalue()

    def test_retry_does_not_advance_counter(self):
        bus, _, stream = self._printer()
        emit(bus, "run_start", 0, spec("a"), 1)
        emit(bus, "run_retry", 0, spec("a"), 1, "timeout")
        emit(bus, "run_start", 0, spec("a"), 2)
        emit(bus, "run_done", 0, spec("a"), result(), 1.0)
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("[0/3]") and "retry" in lines[0]
        assert lines[1].startswith("[1/3]")

    def test_summary_recaps_failures(self):
        bus, clock, stream = self._printer(n_total=2)
        emit(bus, "run_done", 0, spec("good"), result(), 1.0)
        emit(bus, "run_failed", 1, spec("bad-spec"), "Traceback...\nBoom: nope")
        clock.tick(3.5)
        emit(bus, "campaign_done", campaign_result("campaign: 2 runs, 1 failed"))
        out = stream.getvalue()
        assert "Boom: nope" in out
        assert "FAILED bad-spec\n" in out
        # The recap reads the same in both modes.
        assert "campaign: 2 runs, 1 failed [wall 0:03]" in out
