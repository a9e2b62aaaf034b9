"""Declarative experiment descriptions.

Every figure in the paper is "run a set of applications under a
coordination setup and compare against standalone baselines".  This module
captures that as data: a :class:`WorkloadSpec` describes one application
(mirroring :class:`~repro.apps.IORConfig` field for field), and an
:class:`ExperimentSpec` bundles a platform, a workload list, and a
strategy into one runnable, JSON-round-trippable unit.  Campaigns
(Δ-graphs, size-split sweeps, policy comparisons) are plain lists of
specs, which is what lets the engine fan them out across processes.

Serialization rules
-------------------
``to_dict``/``from_dict`` round-trip through plain dicts of JSON types
(``to_json``/``from_json`` wrap :mod:`json`).  Access patterns serialize
as ``{"kind": "contiguous"|"strided", ...}``; infinite bandwidths encode
as the string ``"inf"``.  Strategies must be *named* (``"fcfs"``,
``"dynamic"``, ...) to serialize — :class:`~repro.core.Strategy`
instances are accepted at runtime but rejected by ``to_dict``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Tuple, Union

from ..apps import IORConfig
from ..mpisim import AccessPattern, Contiguous, Strided
from ..platforms import ALLOCATORS, PlatformConfig

__all__ = [
    "WorkloadSpec", "ExperimentSpec",
    "pattern_to_dict", "pattern_from_dict",
    "platform_to_dict", "platform_from_dict",
]

BASELINE_NAME = "_alone"  #: canonical workload name for standalone runs


# ---------------------------------------------------------------------------
# Pattern and platform (de)serialization
# ---------------------------------------------------------------------------

def pattern_to_dict(pattern: AccessPattern) -> Dict[str, Any]:
    """Serialize an access pattern to a plain dict."""
    if isinstance(pattern, Strided):
        return {"kind": "strided", "block_size": pattern.block_size,
                "nblocks": pattern.nblocks}
    if isinstance(pattern, Contiguous):
        return {"kind": "contiguous", "block_size": pattern.block_size}
    raise TypeError(f"cannot serialize pattern {pattern!r}")


def pattern_from_dict(data: Dict[str, Any]) -> AccessPattern:
    """Inverse of :func:`pattern_to_dict`."""
    kind = data.get("kind")
    if kind == "contiguous":
        return Contiguous(block_size=int(data["block_size"]))
    if kind == "strided":
        return Strided(block_size=int(data["block_size"]),
                       nblocks=int(data.get("nblocks", 1)))
    raise ValueError(f"unknown pattern kind {kind!r}")


def _encode_value(value: Any) -> Any:
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _decode_float(value: Any) -> float:
    if value == "inf":
        return math.inf
    return float(value)


def platform_to_dict(cfg: PlatformConfig) -> Dict[str, Any]:
    """Serialize a :class:`~repro.platforms.PlatformConfig`."""
    return {f.name: _encode_value(getattr(cfg, f.name))
            for f in fields(PlatformConfig)}


#: Fields decoded through :func:`_decode_float` — derived from the
#: dataclass annotations so new float fields round-trip automatically.
_PLATFORM_FLOAT_FIELDS = frozenset(
    f.name for f in fields(PlatformConfig) if "float" in str(f.type))


def platform_from_dict(data: Dict[str, Any]) -> PlatformConfig:
    """Inverse of :func:`platform_to_dict`."""
    known = {f.name for f in fields(PlatformConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown platform fields: {sorted(unknown)}")
    if "allocator" in data and data["allocator"] not in ALLOCATORS:
        raise ValueError(f"unknown allocator {data['allocator']!r}; "
                         f"valid: {ALLOCATORS}")
    kwargs = dict(data)
    for key in _PLATFORM_FLOAT_FIELDS:
        if key in kwargs and kwargs[key] is not None:
            kwargs[key] = _decode_float(kwargs[key])
    return PlatformConfig(**kwargs)


# ---------------------------------------------------------------------------
# WorkloadSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of one application in an experiment.

    Mirrors :class:`~repro.apps.IORConfig` field for field (a module-level
    assertion keeps them in sync) but adds serialization, so experiment
    descriptions can live in JSON files and cross process boundaries.
    """

    name: str
    nprocs: int
    pattern: AccessPattern
    nfiles: int = 1
    iterations: int = 1
    start_time: float = 0.0
    period: Optional[float] = None
    think_time: float = 0.0
    scope: str = "phase"
    grain: Optional[str] = "round"
    overlap_compute: bool = False
    procs_per_node: int = 1
    cb_buffer_size: int = 4 * 1024 * 1024
    naggregators: Optional[int] = None
    partitions: Optional[Tuple[int, ...]] = None
    operation: str = "write"

    def __post_init__(self) -> None:
        # Normalize so JSON round-trips (lists) compare equal to literals.
        if self.partitions is not None:
            object.__setattr__(self, "partitions",
                               tuple(int(p) for p in self.partitions))
        # Eager validation: constructing the IORConfig runs its checks.
        self.to_ior()

    # -- conversion --------------------------------------------------------
    def to_ior(self) -> IORConfig:
        """The runnable :class:`~repro.apps.IORConfig` this spec describes."""
        return IORConfig(**{f.name: getattr(self, f.name)
                            for f in fields(IORConfig)})

    @classmethod
    def from_ior(cls, cfg: IORConfig) -> "WorkloadSpec":
        return cls(**{f.name: getattr(cfg, f.name)
                      for f in fields(IORConfig)})

    def with_(self, **changes) -> "WorkloadSpec":
        """A modified copy (e.g. ``w.with_(nprocs=384)``)."""
        return replace(self, **changes)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["pattern"] = pattern_to_dict(self.pattern)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkloadSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown workload fields: {sorted(unknown)}")
        kwargs = dict(data)
        kwargs["pattern"] = pattern_from_dict(kwargs["pattern"])
        return cls(**kwargs)


_SPEC_FIELDS = tuple(f.name for f in fields(WorkloadSpec))
_IOR_FIELDS = tuple(f.name for f in fields(IORConfig))
assert set(_SPEC_FIELDS) == set(_IOR_FIELDS), (
    "WorkloadSpec must mirror IORConfig: "
    f"{set(_SPEC_FIELDS) ^ set(_IOR_FIELDS)}"
)


def as_workload(obj: Union[WorkloadSpec, IORConfig]) -> WorkloadSpec:
    """Coerce an IORConfig (or pass through a WorkloadSpec)."""
    if isinstance(obj, WorkloadSpec):
        return obj
    if isinstance(obj, IORConfig):
        return WorkloadSpec.from_ior(obj)
    raise TypeError(f"expected WorkloadSpec or IORConfig, got {type(obj)!r}")


# ---------------------------------------------------------------------------
# ExperimentSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: N workloads on a fresh platform under one strategy.

    ``meta`` carries free-form campaign coordinates (``{"dt": 2.0,
    "split": 24}``) that survive serialization and let
    :class:`~repro.experiments.engine.ResultSet` regroup fan-out results.

    ``arbiter`` carries coordination-layer options forwarded to
    :class:`~repro.core.CalciomRuntime` (``{"batched": False}`` selects
    the unbatched oracle path, ``{"decision_log_limit": 10000}`` caps the
    decision log for scale scenarios, ``{"shards": 8, "workers":
    "process"}`` runs each arbiter shard in its own worker process —
    the engine closes the worker pool on both the clean and the error
    path).  Ignored when ``strategy`` is None.
    """

    platform: PlatformConfig
    workloads: Tuple[WorkloadSpec, ...]
    strategy: Optional[Any] = None     #: strategy name, Strategy, or None
    name: str = ""
    measure_alone: bool = True
    meta: Dict[str, Any] = field(default_factory=dict)
    arbiter: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        workloads = tuple(as_workload(w) for w in self.workloads)
        object.__setattr__(self, "workloads", workloads)
        if not workloads:
            raise ValueError("an experiment needs at least one workload")
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate application names in {names}")

    # -- constructors ------------------------------------------------------
    @classmethod
    def single(cls, platform: PlatformConfig,
               workload: Union[WorkloadSpec, IORConfig],
               strategy: Optional[Any] = None, **kw) -> "ExperimentSpec":
        return cls(platform=platform, workloads=(as_workload(workload),),
                   strategy=strategy, **kw)

    @classmethod
    def pair(cls, platform: PlatformConfig,
             a: Union[WorkloadSpec, IORConfig],
             b: Union[WorkloadSpec, IORConfig],
             dt: float = 0.0, strategy: Optional[Any] = None,
             **kw) -> "ExperimentSpec":
        """A two-application experiment with B offset by ``dt``.

        Negative ``dt`` shifts A instead (start times must be >= 0); the
        signed dt is kept in ``meta["dt"]`` — the Δ-graph x-coordinate.
        """
        a, b = as_workload(a), as_workload(b)
        dt = float(dt)
        if dt >= 0:
            a, b = a.with_(start_time=0.0), b.with_(start_time=dt)
        else:
            a, b = a.with_(start_time=-dt), b.with_(start_time=0.0)
        meta = dict(kw.pop("meta", ()) or {})
        meta.setdefault("dt", dt)
        return cls(platform=platform, workloads=(a, b), strategy=strategy,
                   meta=meta, **kw)

    # -- accessors ---------------------------------------------------------
    @property
    def names(self) -> List[str]:
        return [w.name for w in self.workloads]

    @property
    def dt(self) -> Optional[float]:
        """The Δ-graph offset, when this spec belongs to a dt sweep."""
        return self.meta.get("dt")

    def workload(self, name: str) -> WorkloadSpec:
        for w in self.workloads:
            if w.name == name:
                return w
        raise KeyError(name)

    def with_(self, **changes) -> "ExperimentSpec":
        return replace(self, **changes)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        if not (self.strategy is None or isinstance(self.strategy, str)):
            raise TypeError(
                f"strategy {self.strategy!r} is not JSON-serializable; "
                "use a named strategy ('fcfs', 'interrupt', 'dynamic', ...)"
            )
        return {
            "name": self.name,
            "platform": platform_to_dict(self.platform),
            "workloads": [w.to_dict() for w in self.workloads],
            "strategy": self.strategy,
            "measure_alone": self.measure_alone,
            "meta": dict(self.meta),
            "arbiter": dict(self.arbiter),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        return cls(
            name=data.get("name", ""),
            platform=platform_from_dict(data["platform"]),
            workloads=tuple(WorkloadSpec.from_dict(w)
                            for w in data["workloads"]),
            strategy=data.get("strategy"),
            measure_alone=data.get("measure_alone", True),
            meta=dict(data.get("meta", {})),
            arbiter=dict(data.get("arbiter", {})),
        )

    def to_json(self, **dumps_kw) -> str:
        return json.dumps(self.to_dict(), **dumps_kw)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))


def baseline_spec(platform: PlatformConfig,
                  workload: Union[WorkloadSpec, IORConfig]) -> ExperimentSpec:
    """The normalized standalone run for one workload (cache key shape)."""
    w = as_workload(workload).with_(start_time=0.0, name=BASELINE_NAME)
    return ExperimentSpec(platform=platform, workloads=(w,), strategy=None,
                          name="baseline", measure_alone=False,
                          meta={"baseline": True})
