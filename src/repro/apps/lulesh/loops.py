"""The LULESH time-step loop schedule.

One Lagrange leapfrog iteration of LULESH 2.0 is a fixed sequence of 33
mesh-wide loops (§5: "3,072 tasks per loop on 33 loops ... around 100,000
tasks per simulation iteration").  Each loop reads/writes node- or
element-centric field groups; element loops gather from a neighborhood of
node blocks (and vice versa), and the two stress/hourglass force loops
scatter-accumulate into node forces — the ``inoutset`` pattern of Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass

#: An access target: (array, group) with array in {"nodes", "elems"}.
Access = tuple[str, str]


@dataclass(frozen=True, slots=True)
class LoopDef:
    """One mesh-wide computational loop."""

    name: str
    #: Iteration space: "nodes" or "elems".
    over: str
    #: Field groups read; cross-array reads gather a +-1 block neighborhood.
    reads: tuple[Access, ...] = ()
    #: Field groups written (own block).
    writes: tuple[Access, ...] = ()
    #: Scatter-accumulation into node forces: writes use ``inoutset`` over a
    #: +-1 node-block neighborhood instead of exclusive own-block ``out``.
    ioset: bool = False
    #: Relative arithmetic intensity (x config.flops_per_item).
    flops_scale: float = 1.0
    #: Writes a per-block timestep-constraint partial read by the next
    #: iteration's dt-reduction task.
    dt_partial: bool = False

    def __post_init__(self) -> None:
        if self.over not in ("nodes", "elems"):
            raise ValueError(f"over must be 'nodes' or 'elems', got {self.over!r}")


def _l(name, over, reads=(), writes=(), **kw) -> LoopDef:
    return LoopDef(name, over, tuple(reads), tuple(writes), **kw)


#: The 33-loop schedule.  Index in this list is the loop's position in the
#: iteration; the frontier force exchange happens after ``COMM_AFTER_LOOP``.
LOOP_SCHEDULE: tuple[LoopDef, ...] = (
    # --- LagrangeNodal: force computation ---------------------------------
    _l("CalcForceForNodes_zero", "nodes", (), [("nodes", "force")], ioset=True, flops_scale=0.1),
    _l("InitStressTermsForElems", "elems", [("elems", "energy")], [("elems", "tmp")], flops_scale=0.3),
    _l("CollectDomainNodesToElemNodes", "elems", [("nodes", "pos")], [("elems", "tmp")], flops_scale=0.4),
    _l(
        "IntegrateStressForElems",
        "elems",
        [("elems", "tmp"), ("nodes", "pos")],
        [("nodes", "force")],
        ioset=True,
        flops_scale=2.2,
    ),
    _l("CalcElemVolumeDerivative", "elems", [("nodes", "pos")], [("elems", "grad")], flops_scale=1.6),
    _l("CalcHourglassModes", "elems", [("elems", "grad")], [("elems", "tmp")], flops_scale=1.0),
    _l(
        "CalcFBHourglassForceForElems",
        "elems",
        [("elems", "tmp"), ("nodes", "vel")],
        [("nodes", "force")],
        ioset=True,
        flops_scale=2.8,
    ),
    # --- frontier force exchange is inserted after this loop --------------
    _l("CalcAccelerationForNodes", "nodes", [("nodes", "force"), ("nodes", "mass")], [("nodes", "acc")], flops_scale=0.4),
    _l("ApplyAccelerationBoundaryConditions", "nodes", [("nodes", "acc")], [("nodes", "acc")], flops_scale=0.1),
    _l("CalcVelocityForNodes", "nodes", [("nodes", "acc"), ("nodes", "vel")], [("nodes", "vel")], flops_scale=0.3),
    _l("CalcPositionForNodes", "nodes", [("nodes", "vel"), ("nodes", "pos")], [("nodes", "pos")], flops_scale=0.3),
    # --- LagrangeElements --------------------------------------------------
    _l("CalcKinematicsForElems", "elems", [("nodes", "pos"), ("nodes", "vel")], [("elems", "vol"), ("elems", "tmp")], flops_scale=2.5),
    _l("CalcLagrangeElements", "elems", [("elems", "tmp")], [("elems", "vol")], flops_scale=0.4),
    _l("CalcMonotonicQGradientsForElems", "elems", [("nodes", "pos"), ("nodes", "vel"), ("elems", "vol")], [("elems", "grad")], flops_scale=2.0),
    _l("CalcMonotonicQRegionForElems", "elems", [("elems", "grad")], [("elems", "energy")], flops_scale=1.2),
    # --- EvalEOSForElems passes (the report-mandated loop structure) -------
    _l("EvalEOS_compression", "elems", [("elems", "vol")], [("elems", "tmp")], flops_scale=0.4),
    _l("EvalEOS_compHalfStep", "elems", [("elems", "vol")], [("elems", "tmp")], flops_scale=0.4),
    _l("EvalEOS_qq_ql_copy", "elems", [("elems", "energy")], [("elems", "tmp")], flops_scale=0.2),
    _l("EvalEOS_checkVolume", "elems", [("elems", "vol")], [("elems", "tmp")], flops_scale=0.2),
    _l("CalcEnergyForElems_pass1", "elems", [("elems", "tmp")], [("elems", "energy")], flops_scale=0.6),
    _l("CalcPressureForElems_pass1", "elems", [("elems", "energy")], [("elems", "tmp")], flops_scale=0.5),
    _l("CalcEnergyForElems_pass2", "elems", [("elems", "tmp")], [("elems", "energy")], flops_scale=0.6),
    _l("CalcPressureForElems_pass2", "elems", [("elems", "energy")], [("elems", "tmp")], flops_scale=0.5),
    _l("CalcEnergyForElems_pass3", "elems", [("elems", "tmp")], [("elems", "energy")], flops_scale=0.6),
    _l("CalcPressureForElems_pass3", "elems", [("elems", "energy")], [("elems", "tmp")], flops_scale=0.5),
    _l("CalcEnergyForElems_pass4", "elems", [("elems", "tmp")], [("elems", "energy")], flops_scale=0.6),
    _l("CalcSoundSpeedForElems", "elems", [("elems", "energy")], [("elems", "geom")], flops_scale=0.5),
    _l("EvalEOS_store_p", "elems", [("elems", "tmp")], [("elems", "energy")], flops_scale=0.2),
    _l("EvalEOS_store_q", "elems", [("elems", "tmp")], [("elems", "energy")], flops_scale=0.2),
    _l("UpdateVolumesForElems", "elems", [("elems", "tmp")], [("elems", "vol")], flops_scale=0.2),
    _l("CalcCourantConstraintForElems", "elems", [("elems", "geom"), ("elems", "vol")], (), flops_scale=0.4, dt_partial=True),
    _l("CalcHydroConstraintForElems", "elems", [("elems", "vol")], (), flops_scale=0.3, dt_partial=True),
    _l("LagrangeRelease_fixup", "elems", [("elems", "vol")], [("elems", "geom")], flops_scale=0.2),
)

#: The force halo exchange is posted after this loop index (the two
#: ``inoutset`` force loops must have completed on frontier blocks).
COMM_AFTER_LOOP: int = 6

assert len(LOOP_SCHEDULE) == 33, "the reports mandate the 33-loop structure"
