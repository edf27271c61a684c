"""Fit discovery-cost constants from observed data (re-calibration).

The defaults in :class:`~repro.runtime.costs.DiscoveryCosts` were backed out
of the paper's Table 2 by hand; this module automates the inverse problem:
given rows of ``(task count, address count, edges created, edges skipped,
discovery seconds)`` — from the paper, from a real runtime's profiler, or
from this simulator — solve the non-negative least-squares system for the
per-task / per-address / per-edge constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.runtime.costs import DiscoveryCosts


@dataclass(frozen=True, slots=True)
class DiscoveryObservation:
    """One measured discovery run (a row of a Table-2-style study)."""

    n_tasks: float
    n_addrs: float
    n_edges_created: float
    n_edges_skipped: float
    discovery_seconds: float

    def __post_init__(self) -> None:
        for f in ("n_tasks", "n_addrs", "n_edges_created", "n_edges_skipped"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be >= 0")
        if self.discovery_seconds <= 0:
            raise ValueError("discovery_seconds must be > 0")


@dataclass(frozen=True, slots=True)
class FitResult:
    """Fitted constants and the fit quality."""

    costs: DiscoveryCosts
    #: Relative residual ||Ax - b|| / ||b||.
    relative_residual: float

    def __str__(self) -> str:
        c = self.costs
        return (
            f"c_task={c.c_task * 1e6:.3f}us c_dep={c.c_dep * 1e6:.3f}us "
            f"c_edge={c.c_edge * 1e6:.3f}us c_edge_skip={c.c_edge_skip * 1e6:.3f}us "
            f"(residual {100 * self.relative_residual:.1f}%)"
        )


def fit_discovery_costs(
    observations: Sequence[DiscoveryObservation],
    *,
    base: DiscoveryCosts | None = None,
) -> FitResult:
    """Non-negative least squares over the linear discovery-cost model.

    Solves ``c_task*N + c_dep*D + c_edge*E + c_edge_skip*S = T`` for the
    four constants; other fields (prune, redirect, replay) are copied from
    ``base`` (they need dedicated experiments to identify).
    """
    import scipy.optimize

    if len(observations) < 2:
        raise ValueError("need at least 2 observations to fit")
    a = np.array(
        [
            [o.n_tasks, o.n_addrs, o.n_edges_created, o.n_edges_skipped]
            for o in observations
        ],
        dtype=float,
    )
    b = np.array([o.discovery_seconds for o in observations], dtype=float)
    x, residual = scipy.optimize.nnls(a, b)
    norm_b = float(np.linalg.norm(b))
    rel = float(residual / norm_b) if norm_b > 0 else 0.0
    base = base if base is not None else DiscoveryCosts()
    costs = replace(
        base,
        c_task=float(x[0]),
        c_dep=float(x[1]),
        c_edge=float(x[2]),
        c_edge_skip=float(x[3]),
    )
    return FitResult(costs=costs, relative_residual=rel)


#: The paper's Table 2 rows as observations (tasks/addresses estimated from
#: the text: ~2.9M tasks, ~7 addresses per task; edges as printed).
PAPER_TABLE2 = (
    DiscoveryObservation(2.9e6, 20.3e6, 93_981_434, 0, 83.43),
    DiscoveryObservation(2.9e6, 12.2e6, 74_242_924, 0, 71.75),
    DiscoveryObservation(2.9e6, 20.3e6, 40_772_315, 53_209_119, 67.53),
    DiscoveryObservation(2.9e6, 20.3e6, 78_989_786, 0, 75.61),
    DiscoveryObservation(2.9e6, 12.2e6, 46_174_616, 8_100_000, 66.89),
    DiscoveryObservation(2.9e6, 12.2e6, 68_690_584, 0, 70.85),
    DiscoveryObservation(2.9e6, 20.3e6, 45_963_012, 47_000_000, 56.27),
    DiscoveryObservation(2.9e6, 12.2e6, 36_845_383, 9_300_000, 32.13),
)
