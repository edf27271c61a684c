"""Campaign progress rendering for ``repro campaign`` (``--live`` or not).

:class:`LiveRenderer` attaches to the same :class:`CampaignBus` as the
:class:`~repro.metrics.campaign.CampaignMetrics` it reads.  With ``live``
it redraws one status line per event (throttled)::

    [=========>------------------]  12/40  30%  eta 0:41  busy 4  hit 25%  fail 1

On a TTY the line redraws in place (``\\r`` + clear-to-EOL); on a pipe it
degrades to occasional plain lines so CI logs stay readable.  Without
``live`` it prints one line per run, cached, retry or failed event::

    [12/40][   31.5s eta   73.2s]    run lulesh/task(s=8, ...)[mpc] makespan=...

At ``campaign_done`` both modes print a recap line for every failed spec
and the campaign summary (the live mode first redraws its final state).
"""

from __future__ import annotations

import sys
import time
from typing import Optional

from repro.metrics.campaign import CampaignMetrics

#: Progress-bar cells of the live status line.
BAR_WIDTH = 30

#: Minimum seconds between status-line redraws on a TTY (pipes: 2 s).
REDRAW_INTERVAL = 0.1


def _fmt_duration(seconds: float) -> str:
    """``63.2 -> "1:03"``, ``5025 -> "1:23:45"`` — coarse wall-clock."""
    s = int(seconds)
    if s >= 3600:
        return f"{s // 3600}:{s % 3600 // 60:02d}:{s % 60:02d}"
    return f"{s // 60}:{s % 60:02d}"


class LiveRenderer:
    """Renders campaign progress from a :class:`CampaignMetrics`.

    ``live`` picks the status line (True) or one line per settled or
    retried run (False); the metrics observer must be attached to the bus
    before the renderer, so each line reads the counts after its event.
    """

    def __init__(
        self,
        metrics: CampaignMetrics,
        *,
        live: bool = True,
        stream=None,
        clock=time.monotonic,
    ) -> None:
        self.metrics = metrics
        self.live = live
        self.stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._last_draw: Optional[float] = None
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())

    # ------------------------------------------------------------------
    def status_line(self) -> str:
        """The one-line campaign status (no terminal control codes)."""
        m = self.metrics
        total = max(m.n_total, 1)
        frac = min(m.settled / total, 1.0)
        fill = int(frac * BAR_WIDTH)
        if 0 < fill < BAR_WIDTH:
            bar = "=" * (fill - 1) + ">" + "-" * (BAR_WIDTH - fill)
        else:
            bar = "=" * fill + "-" * (BAR_WIDTH - fill)
        eta = m.eta()
        eta_text = _fmt_duration(eta) if eta is not None and not m.finished else "-:--"
        parts = [
            f"[{bar}]",
            f"{m.settled}/{m.n_total}",
            f"{int(frac * 100):3d}%",
            f"eta {eta_text}",
            f"busy {m.in_flight}",
            f"hit {int(m.hit_ratio() * 100)}%",
        ]
        if m.failed:
            parts.append(f"fail {m.failed}")
        return "  ".join(parts)

    def _draw(self, force: bool = False) -> None:
        now = self._clock()
        if not force and self._last_draw is not None:
            # Pipes throttle harder: one line per ~2s beats 1000 lines of log.
            min_gap = REDRAW_INTERVAL if self._tty else 2.0
            if now - self._last_draw < min_gap:
                return
        self._last_draw = now
        line = self.status_line()
        if self._tty:
            self.stream.write(f"\r\x1b[K{line}")
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def _event(self, tag: str, spec, detail: str = "") -> None:
        """Redraw the status line, or print one ``[k/n][elapsed eta]`` line."""
        if self.live:
            self._draw()
            return
        m = self.metrics
        pace = f"[{m.elapsed():7.1f}s"
        eta = m.eta()
        if 0 < m.settled < m.n_total and eta is not None:
            pace += f" eta {eta:6.1f}s"
        self.stream.write(
            f"[{m.settled}/{m.n_total}]{pace}] {tag:>6} {spec.label}"
            + (f" {detail}" if detail else "")
            + "\n"
        )
        self.stream.flush()

    # -- bus hooks ------------------------------------------------------
    def on_run_start(self, index, spec, attempt) -> None:
        if self.live:
            self._draw()

    def on_run_done(self, index, spec, result, wall) -> None:
        self._event(
            "run", spec, f"makespan={result.makespan:.6f}s wall={wall:.2f}s"
        )

    def on_run_cached(self, index, spec, result) -> None:
        self._event("cached", spec)

    def on_run_retry(self, index, spec, attempt, reason) -> None:
        self._event("retry", spec, f"(attempt {attempt}: {reason})")

    def on_run_failed(self, index, spec, error) -> None:
        text = str(error).strip()
        last = text.splitlines()[-1] if text else "unknown error"
        self._event("FAILED", spec, last)

    def on_campaign_done(self, result) -> None:
        if self.live:
            self._draw(force=True)
            if self._tty:
                self.stream.write("\n")
        m = self.metrics
        for label in m.failures:
            self.stream.write(f"FAILED {label}\n")
        self.stream.write(
            f"{result.summary()} [wall {_fmt_duration(m.elapsed())}]\n"
        )
        self.stream.flush()
