"""repro.campaign — declarative experiment specs and the fan-out engine.

The public experiment API:

- :class:`ExperimentSpec` — a frozen, hashable, JSON-round-trippable
  description of one run (app + params + config + engine + ranks + seed
  + scale + network).
- :func:`run_experiment` — the single entrypoint executing one spec.
- :func:`run_campaign` — execute a list of specs across worker processes
  into the content-addressed SQLite store (:class:`repro.db.DbResultStore`)
  with resumability, per-run timeout, retry-once robustness and
  :class:`CampaignBus` progress events.
- :func:`cross_check` — tier agreement on the golden set: analytic
  bounds bracket replay and DES, replay within tolerance of DES.
"""

from repro.campaign.bus import CampaignBus
from repro.campaign.crosscheck import (
    REPLAY_TOLERANCE,
    CrossCheckReport,
    CrossCheckRow,
    cross_check,
    golden_specs,
)
from repro.campaign.engine import CampaignResult, RunRecord, run_campaign
from repro.campaign.runner import (
    build_programs,
    derive_config,
    run_experiment,
    run_experiment_cluster,
)
from repro.campaign.spec import (
    APPS,
    ENGINES,
    FIDELITIES,
    ExperimentSpec,
    dump_specs,
    load_specs,
)

__all__ = [
    "APPS",
    "CampaignBus",
    "CampaignResult",
    "CrossCheckReport",
    "CrossCheckRow",
    "ENGINES",
    "ExperimentSpec",
    "FIDELITIES",
    "REPLAY_TOLERANCE",
    "RunRecord",
    "build_programs",
    "cross_check",
    "derive_config",
    "dump_specs",
    "golden_specs",
    "load_specs",
    "run_campaign",
    "run_experiment",
    "run_experiment_cluster",
]
