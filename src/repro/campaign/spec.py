"""The declarative experiment API: one frozen spec describes one run.

An :class:`ExperimentSpec` is the unit of experiment traffic: a value
object naming the workload (``app`` + ``params``), the runtime
configuration (:class:`~repro.runtime.runtime.RuntimeConfig`, which embeds
the machine, the :class:`~repro.core.optimizations.OptimizationSet`, the
cost models and the scheduler), the execution engine (``task`` or
``forloop``), the rank count and network for coupled runs, the RNG seed
and the calibration cost scale.

Because a spec is frozen, value-comparable and JSON-round-trippable, it
can be hashed (:attr:`ExperimentSpec.key` — a content hash, stable across
processes), cached, shipped to worker processes, written to spec files
and diffed.  ``run_experiment(spec)`` in :mod:`repro.campaign.runner` is
the single entrypoint that executes one; :mod:`repro.campaign.engine`
fans lists of them out over worker processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Iterable, Mapping, Optional, Tuple, Union

from repro.core.optimizations import OptimizationSet
from repro.mpi.network import NetworkSpec
from repro.runtime.runtime import RuntimeConfig
from repro.sim.tiers import FIDELITIES
from repro.util.serde import canonical_json, content_key

#: Workloads the runner knows how to build.
APPS = ("cholesky", "hpcg", "lulesh")
#: Execution engines.
ENGINES = ("task", "forloop")

ParamValue = Union[str, int, float, bool]
Params = Union[Mapping[str, ParamValue], Iterable[Tuple[str, ParamValue]]]


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-described, hashable, serializable experiment run.

    ``params`` accepts any mapping (or iterable of pairs) of app builder
    arguments and is canonicalized to a sorted tuple of pairs, so two
    specs built from dicts with different insertion orders compare (and
    hash, and serialize) identically.
    """

    app: str
    config: RuntimeConfig
    params: Any = field(default=())
    engine: str = "task"
    #: Simulation fidelity tier (see :mod:`repro.sim.tiers`): ``"des"``
    #: is the full discrete-event reference; ``"replay"`` list-schedules
    #: the compiled TDG; ``"analytic"`` computes work/span bounds.  The
    #: default keeps pre-tier specs byte-identical: ``"des"`` is omitted
    #: from :meth:`to_dict`, so old spec JSON and cache keys are stable.
    fidelity: str = "des"
    ranks: int = 1
    seed: int = 0
    #: Calibration factor applied to the per-task cost models at run time
    #: (see :func:`repro.analysis.calibration.scale_costs`); the config
    #: itself stays unscaled so the same spec family shares one config.
    scale: float = 1.0
    #: Interconnect for coupled (``ranks > 1``) runs; None = BXI default.
    network: Optional[NetworkSpec] = None

    def __post_init__(self) -> None:
        if self.app not in APPS:
            raise ValueError(f"unknown app {self.app!r}; expected one of {APPS}")
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.fidelity not in FIDELITIES:
            raise ValueError(
                f"unknown fidelity {self.fidelity!r}; "
                f"expected one of {FIDELITIES}"
            )
        if self.app == "cholesky" and self.engine == "forloop":
            raise ValueError("cholesky has no fork-join reference version")
        if self.fidelity != "des":
            if self.engine != "task":
                raise ValueError(
                    f"fidelity {self.fidelity!r} requires engine 'task' "
                    f"(the cheap tiers consume a compiled TDG); "
                    f"got engine {self.engine!r}"
                )
            if self.ranks != 1:
                raise ValueError(
                    f"fidelity {self.fidelity!r} is single-rank only; "
                    f"got ranks={self.ranks}"
                )
        if not isinstance(self.ranks, int) or self.ranks < 1:
            raise ValueError(f"ranks must be an int >= 1, got {self.ranks!r}")
        if not self.scale > 0:
            raise ValueError(f"scale must be > 0, got {self.scale!r}")
        object.__setattr__(self, "params", _normalize_params(self.params))

    # ------------------------------------------------------------------
    @property
    def params_dict(self) -> dict[str, ParamValue]:
        """App parameters as a plain dict."""
        return dict(self.params)

    @property
    def opts(self) -> OptimizationSet:
        """The discovery optimization set (lives inside the config)."""
        return self.config.opts

    @cached_property
    def key(self) -> str:
        """Content-addressed identity: sha256 of the canonical JSON.

        Unlike ``hash()``, this is stable across processes and platforms —
        it is the cache key and the campaign's unit of deduplication.
        Computed once per spec: the spec is frozen, and every copy
        (``with_params``, ``with_fidelity``, ``replace``) is a new,
        uncached instance.
        """
        return content_key(self.to_dict())

    @property
    def label(self) -> str:
        """Compact human-readable run label for progress lines."""
        parts = [f"{k}={v}" for k, v in self.params]
        bits = [self.app, self.engine]
        if self.fidelity != "des":
            bits.append(self.fidelity)
        if self.ranks > 1:
            bits.append(f"ranks={self.ranks}")
        return f"{'/'.join(bits)}({', '.join(parts)})[{self.config.name}]"

    # ------------------------------------------------------------------
    def with_params(self, **updates: ParamValue) -> "ExperimentSpec":
        """A copy with some app parameters replaced (sweep convenience)."""
        merged = self.params_dict
        merged.update(updates)
        return replace(self, params=merged)

    def with_fidelity(self, fidelity: str) -> "ExperimentSpec":
        """A copy at another fidelity tier (validated on construction)."""
        return replace(self, fidelity=fidelity)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict; inverse of :meth:`from_dict`.

        ``fidelity`` is serialized only when it deviates from ``"des"``:
        a pre-tier spec and a ``fidelity="des"`` spec render to the same
        JSON, hash to the same :attr:`key`, and hit the same cache rows.
        """
        out = {
            "app": self.app,
            "params": self.params_dict,
            "config": self.config.to_dict(),
            "engine": self.engine,
            "ranks": self.ranks,
            "seed": self.seed,
            "scale": self.scale,
            "network": None if self.network is None else self.network.to_dict(),
        }
        if self.fidelity != "des":
            out["fidelity"] = self.fidelity
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        d = dict(data)
        known = {"app", "params", "config", "engine", "fidelity", "ranks",
                 "seed", "scale", "network"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown ExperimentSpec field(s) {sorted(unknown)}")
        kwargs: dict[str, Any] = {
            "app": d["app"],
            "config": RuntimeConfig.from_dict(d["config"]),
        }
        for name in ("params", "engine", "fidelity", "ranks", "seed", "scale"):
            if name in d:
                kwargs[name] = d[name]
        if d.get("network") is not None:
            kwargs["network"] = NetworkSpec.from_dict(d["network"])
        return cls(**kwargs)

    def to_json(self) -> str:
        """Canonical (deterministic) JSON rendering."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def __str__(self) -> str:
        return self.label


def _normalize_params(params: Any) -> tuple[tuple[str, ParamValue], ...]:
    if isinstance(params, Mapping):
        items = list(params.items())
    else:
        items = [(k, v) for k, v in params]
    seen: set[str] = set()
    for k, v in items:
        if not isinstance(k, str):
            raise TypeError(f"param names must be str, got {k!r}")
        if k in seen:
            raise ValueError(f"duplicate param {k!r}")
        seen.add(k)
        if not isinstance(v, (str, int, float, bool)):
            raise TypeError(
                f"param {k}={v!r} is not a JSON scalar (str/int/float/bool)"
            )
    return tuple(sorted(items))


def load_specs(text: str) -> list[ExperimentSpec]:
    """Parse a spec file: a JSON list of spec dicts, or ``{"specs": [...]}``."""
    doc = json.loads(text)
    if isinstance(doc, Mapping):
        doc = doc.get("specs", None)
        if doc is None:
            raise ValueError('spec file object must have a "specs" list')
    if not isinstance(doc, list):
        raise ValueError("spec file must be a JSON list or {'specs': [...]}")
    return [ExperimentSpec.from_dict(d) for d in doc]


def dump_specs(specs: Iterable[ExperimentSpec]) -> str:
    """Render specs to the file format :func:`load_specs` reads."""
    return json.dumps(
        {"specs": [s.to_dict() for s in specs]}, indent=2, sort_keys=True
    )
