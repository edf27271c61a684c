"""Minimum Effective Task Granularity (Slaughter et al. [12], §3.3).

For a given application and runtime, METG(X%) is the smallest average task
grain at which an execution still reaches X% of the best performance
measured on *any* runtime under comparison.  The paper reports
METG(95%) = 65 us for LULESH with MPC-OMP — 1.5 orders of magnitude below
the best OpenMP METG reported in Task Bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.sweep import Sweep


@dataclass(frozen=True, slots=True)
class MetgResult:
    """METG computed from one runtime's sweep against a global best."""

    runtime: str
    efficiency: float
    #: The METG itself (seconds), or None if no point qualifies.
    metg: Optional[float]
    #: The qualifying point's TPL, or None.
    tpl: Optional[int]
    #: Best total time across all runtimes (the 100% reference).
    best_total: float

    def __str__(self) -> str:
        if self.metg is None:
            return (
                f"METG({100 * self.efficiency:.0f}%) [{self.runtime}]: "
                f"not reached (best total {self.best_total:.4f}s)"
            )
        return (
            f"METG({100 * self.efficiency:.0f}%) [{self.runtime}] = "
            f"{self.metg * 1e6:.1f}us at TPL={self.tpl}"
        )


def metg(
    sweeps: dict[str, Sweep],
    *,
    efficiency: float = 0.95,
) -> dict[str, MetgResult]:
    """Compute METG(efficiency) per runtime from TPL sweeps.

    The 100% performance reference is the best total time over every sweep
    of every runtime, per the Task Bench definition.
    """
    if not 0 < efficiency <= 1:
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
    if not sweeps:
        raise ValueError("need at least one sweep")
    best_total = min(p.total for sw in sweeps.values() for p in sw.points)
    out: dict[str, MetgResult] = {}
    for name, sw in sweeps.items():
        qualifying = [
            p for p in sw.points if p.total > 0 and best_total / p.total >= efficiency
        ]
        if qualifying:
            p = min(qualifying, key=lambda p: p.grain)
            out[name] = MetgResult(name, efficiency, p.grain, p.tpl, best_total)
        else:
            out[name] = MetgResult(name, efficiency, None, None, best_total)
    return out
