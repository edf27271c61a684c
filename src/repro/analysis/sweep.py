"""TPL sweeps: the x-axis of Figs. 1, 2, 6, 7 and 9.

A sweep runs the same workload at increasing Tasks-Per-Loop and collects
the series the paper plots: total/execution/discovery time, the
work/idle/overhead breakdown, per-task grain, task/edge counts, cache-miss
counters and work-time inflation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.runtime.result import RunResult

if TYPE_CHECKING:  # pragma: no cover
    from pathlib import Path
    from typing import Union

    from repro.campaign.spec import ExperimentSpec
    from repro.db.store import DbResultStore


@dataclass
class SweepPoint:
    """One TPL instance of a sweep."""

    tpl: int
    result: RunResult

    # Convenience projections -------------------------------------------
    @property
    def total(self) -> float:
        return self.result.makespan

    @property
    def execution(self) -> float:
        return self.result.execution_time

    @property
    def discovery(self) -> float:
        return self.result.discovery_busy

    @property
    def work_avg(self) -> float:
        return self.result.work_avg

    @property
    def idle_avg(self) -> float:
        return self.result.idle_avg

    @property
    def overhead_avg(self) -> float:
        return self.result.overhead_avg

    @property
    def grain(self) -> float:
        """Average task grain in seconds (work per task)."""
        return self.result.work_per_task

    @property
    def n_tasks(self) -> int:
        return self.result.n_tasks

    @property
    def n_edges(self) -> int:
        return self.result.edges.created


@dataclass
class Sweep:
    """A completed TPL sweep."""

    points: list[SweepPoint]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a sweep needs at least one point")

    # ------------------------------------------------------------------
    @property
    def tpls(self) -> list[int]:
        return [p.tpl for p in self.points]

    def series(self, attr: str) -> list[float]:
        """Extract one metric across the sweep (by SweepPoint property)."""
        return [float(getattr(p, attr)) for p in self.points]

    def best(self, attr: str = "total") -> SweepPoint:
        """The point minimizing ``attr`` (the paper's "best TPL")."""
        return min(self.points, key=lambda p: getattr(p, attr))

    def work_inflation(self) -> list[float]:
        """Per-point work time relative to the least-inflated point (Fig 2d)."""
        w = np.array(self.series("work_avg"))
        ref = w.min()
        if ref <= 0:
            return [1.0] * len(w)
        return list(w / ref)

    def crossover_tpl(self) -> Optional[int]:
        """First TPL where discovery exceeds execution (discovery-bound)."""
        for p in self.points:
            if p.discovery >= p.execution:
                return p.tpl
        return None

    # ------------------------------------------------------------------
    @classmethod
    def from_db(
        cls,
        db,
        *,
        campaign: Optional[str] = None,
        app: Optional[str] = None,
        config_name: Optional[str] = None,
        fidelity: Optional[str] = None,
    ) -> "Sweep":
        """Reconstruct a sweep from stored campaign runs.

        ``db`` is a :class:`repro.db.CampaignDB` (or anything with its
        ``query``); SQL selects exactly the matching runs — instead of
        re-running the sweep — and each row's stored RunResult document
        becomes one point.  Points are ordered by their ``tpl`` app
        parameter (runs without one are skipped); filters narrow
        multi-app or multi-config stores down to one series.  METG over
        a store is ``metg({name: Sweep.from_db(db, config_name=name)})``.
        """
        import json as _json

        where = ["1=1"]
        args: list = []
        for column, value in (
            ("r.campaign", campaign),
            ("s.app", app),
            ("s.config_name", config_name),
            ("r.fidelity", fidelity),
        ):
            if value is not None:
                where.append(f"{column} = ?")
                args.append(value)
        _, rows = db.query(
            "SELECT s.params, r.doc FROM runs r JOIN specs s ON s.key = r.key "
            f"WHERE {' AND '.join(where)} ORDER BY r.key",
            args,
        )
        points = []
        for params_json, doc in rows:
            params = _json.loads(params_json)
            if "tpl" not in params:
                continue
            points.append(
                SweepPoint(
                    tpl=int(params["tpl"]),
                    result=RunResult.from_dict(_json.loads(doc)),
                )
            )
        points.sort(key=lambda p: p.tpl)
        return cls(points)


def sweep_specs(
    base: "ExperimentSpec", tpls: Sequence[int]
) -> "list[ExperimentSpec]":
    """Expand a base spec into one spec per TPL value (``tpl`` override)."""
    return [base.with_params(tpl=int(t)) for t in tpls]


def run_spec_sweep(
    base: "ExperimentSpec",
    tpls: Sequence[int],
    *,
    jobs: int = 1,
    store: "Union[DbResultStore, str, Path, None]" = None,
    progress: bool = False,
) -> Sweep:
    """Run a TPL sweep through the campaign engine.

    The workload, runtime config, engine and rank count all come from
    ``base``, each point only overrides the ``tpl`` app parameter.
    ``jobs``/``store`` fan the points out and skip ones already stored.
    Every point runs at ``base.fidelity`` (see :mod:`repro.sim.tiers`):
    ``base.with_fidelity("replay")`` makes dense TPL ladders ~10× cheaper
    than DES while preserving the series shapes.
    """
    from repro.campaign.engine import run_campaign

    out = run_campaign(
        sweep_specs(base, tpls), jobs=jobs, store=store, progress=progress
    )
    if not out.ok:
        bad = out.failures[0]
        raise RuntimeError(
            f"sweep point {bad.spec.label} failed:\n{bad.error}"
        )
    return Sweep(
        [
            SweepPoint(tpl=int(t), result=rec.result)
            for t, rec in zip(tpls, out.records)
        ]
    )


def geometric_tpls(lo: int, hi: int, n: int = 10) -> list[int]:
    """A geometric TPL ladder, deduplicated and sorted."""
    if lo < 1 or hi < lo or n < 1:
        raise ValueError(f"bad ladder spec lo={lo} hi={hi} n={n}")
    vals = np.unique(
        np.round(np.geomspace(lo, hi, n)).astype(int)
    )
    return [int(v) for v in vals]
