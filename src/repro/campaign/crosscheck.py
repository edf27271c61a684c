"""Campaign-level cross-checks between the fidelity tiers.

The fidelity ladder (:mod:`repro.sim.tiers`) is only useful if the cheap
tiers stay honest against the DES reference.  This module pins that down
as an executable contract on a *golden set* of 19 single-rank runs over
the paper's three applications:

- the **analytic** tier's certified ``[makespan_lower, makespan_upper]``
  interval must bracket both the DES and the replay makespan;
- the **replay** tier's makespan must agree with DES within
  :data:`REPLAY_TOLERANCE` relative error.

:func:`cross_check` runs every spec at all three fidelities (through the
ordinary campaign engine, so results cache and fan out like any other
run) and returns a :class:`CrossCheckReport`; the CI smoke job and
``tests/campaign/test_crosscheck.py`` both assert ``report.ok``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.campaign.engine import run_campaign
from repro.campaign.spec import ExperimentSpec

#: Documented replay-vs-DES makespan tolerance on the golden set.
#:
#: Replay's deliberate reductions — one shared ready deque instead of
#: per-worker work-stealing deques, no throttling, submission-time edge
#: re-pricing instead of live pruning, and a sharer-counted (but not
#: cycle-accurate) memory model — cost at most ~5% on the golden set
#: (worst: Cholesky's steal-heavy panel phase); 8% leaves headroom
#: without letting a modelling regression slip through.
REPLAY_TOLERANCE = 0.08

#: Slack applied to analytic bracketing to absorb float summation order.
_BRACKET_SLACK = 1e-9


@dataclass
class CrossCheckRow:
    """One golden spec compared across the three tiers."""

    label: str
    key: str
    des: float
    replay: float
    lower: float
    upper: float

    @property
    def rel_err(self) -> float:
        """Replay-vs-DES relative makespan error (signed)."""
        return (self.replay - self.des) / self.des if self.des else 0.0

    @property
    def brackets_des(self) -> bool:
        return (
            self.lower <= self.des * (1 + _BRACKET_SLACK)
            and self.des * (1 - _BRACKET_SLACK) <= self.upper
        )

    @property
    def brackets_replay(self) -> bool:
        return (
            self.lower <= self.replay * (1 + _BRACKET_SLACK)
            and self.replay * (1 - _BRACKET_SLACK) <= self.upper
        )

    def ok(self, tolerance: float) -> bool:
        return (
            self.brackets_des
            and self.brackets_replay
            and abs(self.rel_err) <= tolerance
        )

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "key": self.key,
            "des": self.des,
            "replay": self.replay,
            "lower": self.lower,
            "upper": self.upper,
            "rel_err": self.rel_err,
            "brackets_des": self.brackets_des,
            "brackets_replay": self.brackets_replay,
        }


@dataclass
class CrossCheckReport:
    """Tier agreement over a golden set; ``ok`` is the CI gate."""

    rows: list[CrossCheckRow] = field(default_factory=list)
    tolerance: float = REPLAY_TOLERANCE
    #: Specs that failed to execute at some tier (label -> error).
    errors: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors and all(
            r.ok(self.tolerance) for r in self.rows
        )

    @property
    def worst_rel_err(self) -> float:
        return max((abs(r.rel_err) for r in self.rows), default=0.0)

    @property
    def violations(self) -> list[CrossCheckRow]:
        return [r for r in self.rows if not r.ok(self.tolerance)]

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        return (
            f"cross-check {status}: {len(self.rows)} specs, "
            f"worst |rel err|={self.worst_rel_err:.3f} "
            f"(tolerance {self.tolerance:.2f}), "
            f"{len(self.violations)} violations, {len(self.errors)} errors"
        )

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tolerance": self.tolerance,
            "worst_rel_err": self.worst_rel_err,
            "rows": [r.to_dict() for r in self.rows],
            "errors": dict(self.errors),
        }


# ======================================================================
# the golden set
# ======================================================================
def golden_specs() -> list[ExperimentSpec]:
    """The 19-run golden set: three apps, both TPL regimes, all runtimes.

    Sized so the full DES pass stays test-suite friendly (seconds, not
    minutes) while still covering every behaviour the tiers must model:
    persistent replay rounds (``p``), redirects (``c``), overlapped
    pruning (non-persistent runs), memory-bound bodies (HPCG),
    steal-heavy irregular graphs (Cholesky) and the fork-join-ish
    high-TPL LULESH shape.
    """
    from repro.analysis.calibration import scaled_gcc, scaled_llvm, scaled_mpc

    specs: list[ExperimentSpec] = []

    def add(app: str, params: dict, cfg) -> None:
        specs.append(ExperimentSpec(app=app, config=cfg, params=params))

    lulesh = {"s": 16, "iterations": 3, "tpl": 64}
    add("lulesh", lulesh, scaled_mpc(opts="abcp"))
    add("lulesh", lulesh, scaled_mpc(opts="abc"))
    add("lulesh", lulesh, scaled_mpc(opts=""))
    add("lulesh", lulesh, scaled_llvm())
    add("lulesh", lulesh, scaled_gcc())
    lulesh128 = dict(lulesh, tpl=128)
    add("lulesh", lulesh128, scaled_mpc(opts="abc"))
    add("lulesh", lulesh128, scaled_llvm())
    lulesh256 = dict(lulesh, tpl=256)
    add("lulesh", lulesh256, scaled_mpc(opts="abcp"))
    add("lulesh", lulesh256, scaled_llvm())

    hpcg = {"n_rows": 8192, "iterations": 2, "tpl": 32}
    add("hpcg", hpcg, scaled_mpc(opts="abcp"))
    add("hpcg", hpcg, scaled_mpc(opts="abc"))
    add("hpcg", hpcg, scaled_llvm())
    hpcg64 = dict(hpcg, tpl=64)
    add("hpcg", hpcg64, scaled_mpc(opts="abc"))
    add("hpcg", hpcg64, scaled_llvm())
    add("hpcg", dict(hpcg, n_rows=16384), scaled_mpc(opts="abc"))

    chol = {"n": 1024, "b": 128}
    add("cholesky", chol, scaled_mpc(opts="abc"))
    add("cholesky", chol, scaled_mpc(opts="abcp"))
    add("cholesky", chol, scaled_llvm())
    add("cholesky", {"n": 512, "b": 64}, scaled_mpc(opts="abc"))

    assert len(specs) == 19
    return specs


# ======================================================================
# the check
# ======================================================================
def cross_check(
    specs: Optional[Sequence[ExperimentSpec]] = None,
    *,
    progress: bool = False,
) -> CrossCheckReport:
    """Run ``specs`` (default: the golden set) at all three fidelities.

    Each spec is executed as a DES reference and rewritten to the
    ``replay`` and ``analytic`` tiers, all in one serial campaign without
    a store; the report compares makespans and analytic bounds row by
    row against :data:`REPLAY_TOLERANCE`.
    """
    base = list(golden_specs() if specs is None else specs)
    ladder = (
        [s.with_fidelity("des") for s in base]
        + [s.with_fidelity("replay") for s in base]
        + [s.with_fidelity("analytic") for s in base]
    )
    out = run_campaign(ladder, progress=progress)
    n = len(base)
    report = CrossCheckReport()
    for i, spec in enumerate(base):
        triple = out.records[i], out.records[i + n], out.records[i + 2 * n]
        bad = [r for r in triple if not r.ok]
        if bad:
            report.errors[spec.label] = "; ".join(
                (r.error or "missing result").splitlines()[-1] for r in bad
            )
            continue
        des, rep, ana = (r.result for r in triple)
        bounds = ana.extra["bounds"]
        report.rows.append(
            CrossCheckRow(
                label=spec.label,
                key=spec.key,
                des=des.makespan,
                replay=rep.makespan,
                lower=bounds["makespan_lower"],
                upper=bounds["makespan_upper"],
            )
        )
    return report
