"""Higher-level analysis: sweeps, METG, scaling models, table rendering."""

from repro.analysis.calibration import (
    COST_SCALE,
    scale_costs,
    scaled_epyc,
    scaled_gcc,
    scaled_llvm,
    scaled_mpc,
    scaled_network,
    scaled_skylake,
)
from repro.analysis.sweep import (
    Sweep,
    SweepPoint,
    geometric_tpls,
    run_spec_sweep,
    sweep_specs,
)
from repro.analysis.metg import MetgResult, metg
from repro.analysis.scaling import (
    ScalingPoint,
    dynamic_tpl,
    lulesh_scaling,
    weak_scaling_efficiency,
)
from repro.analysis.tables import fmt_speedup, render_series, render_table
from repro.analysis.fit import (
    PAPER_TABLE2,
    DiscoveryObservation,
    FitResult,
    fit_discovery_costs,
)
from repro.analysis.graphtools import (
    GraphShape,
    analyze_shape,
    to_networkx,
    width_profile,
)

__all__ = [
    "COST_SCALE",
    "scale_costs",
    "scaled_epyc",
    "scaled_gcc",
    "scaled_llvm",
    "scaled_mpc",
    "scaled_network",
    "scaled_skylake",
    "Sweep",
    "SweepPoint",
    "geometric_tpls",
    "run_spec_sweep",
    "sweep_specs",
    "MetgResult",
    "metg",
    "ScalingPoint",
    "dynamic_tpl",
    "lulesh_scaling",
    "weak_scaling_efficiency",
    "fmt_speedup",
    "render_series",
    "render_table",
    "PAPER_TABLE2",
    "DiscoveryObservation",
    "FitResult",
    "fit_discovery_costs",
    "GraphShape",
    "analyze_shape",
    "to_networkx",
    "width_profile",
]
