"""Campaign instrumentation: progress observers over the bus idiom.

Same pattern as the simulation kernel's
:class:`~repro.sim.bus.InstrumentationBus` — the engine *emits*, observers
*subscribe*, and an empty hook costs one attribute load.  Hook signatures
(``index`` is the spec's position in the submitted list):

==================  ====================================================
``run_start``       ``(index, spec, attempt)`` — a run was dispatched
``run_done``        ``(index, spec, result, wall)`` — run executed
``run_cached``      ``(index, spec, result)`` — cache hit, run skipped
``run_retry``       ``(index, spec, attempt, reason)`` — worker died or
                    timed out; the run will be retried
``run_failed``      ``(index, spec, error)`` — run gave up
``campaign_done``   ``(result)`` — the full
                    :class:`~repro.campaign.engine.CampaignResult`
==================  ====================================================
"""

from __future__ import annotations

from repro.sim.bus import HookBus

HOOKS = (
    "run_start",
    "run_done",
    "run_cached",
    "run_retry",
    "run_failed",
    "campaign_done",
)

#: One-line catalogue of every campaign hook, mirroring
#: :data:`repro.sim.bus.HOOK_DOCS`; ``repro info`` renders both so the
#: full subscriber surface is discoverable from the CLI.
HOOK_DOCS: dict[str, tuple[str, str]] = {
    "run_start": ("(index, spec, attempt)", "a run attempt was dispatched"),
    "run_done": ("(index, spec, result, wall)", "run executed (wall seconds)"),
    "run_cached": ("(index, spec, result)", "cache hit, run skipped"),
    "run_retry": (
        "(index, spec, attempt, reason)",
        "worker died or timed out; the run will be retried",
    ),
    "run_failed": ("(index, spec, error)", "run gave up (error text)"),
    "campaign_done": ("(result)", "full CampaignResult, campaign finished"),
}


class CampaignBus(HookBus):
    """Hook points for campaign progress observers."""

    __slots__ = HOOKS
    HOOKS = HOOKS
