"""Simulation configuration.

One :class:`SimConfig` fully determines a run: design, routing, topology,
traffic, measurement protocol, fault plan and seeds.  It validates eagerly
so that sweep harnesses fail fast on bad parameter grids.

Designs and patterns are validated against the plugin registries in
:mod:`repro.registry`, so a design registered out-of-tree is immediately
accepted here.

Configs are losslessly serialisable: :meth:`SimConfig.to_dict` /
:meth:`SimConfig.from_dict` round-trip across process boundaries (the
parallel runner ships configs to workers as dicts) and
:meth:`SimConfig.config_hash` is a stable content hash that keys the
on-disk result cache.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple

from ..registry import DESIGNS, PATTERNS

#: Backend names accepted by :attr:`SimConfig.backend`.
KNOWN_BACKENDS = ("object", "vector", "auto")


class ConfigError(ValueError):
    """A :class:`SimConfig` that can never run as specified.

    Subclasses :class:`ValueError` so existing callers that catch broad
    validation errors keep working.
    """


#: (design, reason) pairs already warned about under ``backend="auto"``
#: fallback, so a sweep over hundreds of configs warns once per cause.
_FALLBACK_WARNED: set = set()


def _check_fields(cls, data: Dict[str, Any]) -> None:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} fields in dict: {unknown}; "
            f"expected a subset of {sorted(known)}"
        )


@dataclass(frozen=True)
class FaultMapEntry:
    """One explicit fault assignment inside :attr:`FaultConfig.entries`.

    The Monte-Carlo campaign sampler (:mod:`repro.campaign`) emits these:
    unlike the percent-driven plan — which *derives* its fault map from
    ``(seed, percent)`` — an entry pins every attribute of one router's
    fault, so a sampled map is part of the config proper and therefore of
    ``config_hash`` (result-cache keys and checkpoint identity).

    ``input_port``/``output_port`` are plain port indices (not
    :class:`~repro.sim.ports.Port` members, keeping this layer
    JSON-trivial); both None selects a whole-crossbar fault, both set a
    single broken crosspoint.  ``manifest_cycle`` may fall anywhere in the
    run — scheduling it inside the measurement window is the transient
    "fault during run" scenario.  Detection latency stays a knob of the
    owning :class:`FaultConfig` (``detection_cycles``), so a BIST sweep
    does not have to rewrite every entry.
    """

    node: int
    crossbar: str = "primary"
    manifest_cycle: int = 1
    input_port: Optional[int] = None
    output_port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"fault entry node must be >= 0, got {self.node}")
        if self.crossbar not in ("primary", "secondary"):
            raise ValueError(
                f"crossbar must be 'primary' or 'secondary', got {self.crossbar!r}"
            )
        if self.manifest_cycle < 0:
            raise ValueError("manifest_cycle must be >= 0")
        if (self.input_port is None) != (self.output_port is None):
            raise ValueError(
                "input_port and output_port must be set together (crosspoint "
                "fault) or both omitted (whole-crossbar fault)"
            )
        if self.input_port is not None:
            if not (0 <= self.input_port <= 4):
                raise ValueError(f"input_port out of range: {self.input_port}")
            if not (0 <= self.output_port <= 4):
                raise ValueError(f"output_port out of range: {self.output_port}")

    @property
    def is_crosspoint(self) -> bool:
        return self.input_port is not None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultMapEntry":
        _check_fields(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class FaultConfig:
    """Crossbar fault-injection plan (Section II.C / III.E).

    ``percent`` is the paper's x-axis: the share of routers that develop one
    permanent fault (100 == a fault in *every* router).
    ``detection_cycles`` is the assumed BIST latency (paper: 5).
    ``manifest_window`` bounds the uniformly-random cycle at which each
    fault manifests, so reconfiguration events are spread across warmup.
    ``granularity`` selects whole-``crossbar`` faults (the paper's
    evaluation) or single broken ``crosspoint`` faults (an extension the
    paper names as the physical fault origin).

    ``entries`` is the explicit alternative to the percent-driven plan: a
    tuple of :class:`FaultMapEntry` pinning exactly which routers fail,
    how and when.  Sampled Monte-Carlo fault maps travel this way, so
    they serialize losslessly and key the result cache like any other
    config field.  Mutually exclusive with ``percent > 0``.
    """

    percent: float = 0.0
    detection_cycles: int = 5
    manifest_window: int = 500
    seed: int = 12345
    granularity: str = "crossbar"
    entries: Optional[Tuple[FaultMapEntry, ...]] = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.percent <= 100.0):
            raise ValueError(f"fault percent must be in [0, 100], got {self.percent}")
        if self.detection_cycles < 0:
            raise ValueError("detection_cycles must be >= 0")
        if self.manifest_window < 1:
            raise ValueError("manifest_window must be >= 1")
        if self.granularity not in ("crossbar", "crosspoint"):
            raise ValueError(
                f"granularity must be 'crossbar' or 'crosspoint', got {self.granularity!r}"
            )
        if self.entries is not None:
            if len(self.entries) == 0:
                raise ValueError(
                    "entries must be a non-empty sequence or None (use the "
                    "default FaultConfig for a fault-free run)"
                )
            coerced = tuple(
                e if isinstance(e, FaultMapEntry) else FaultMapEntry.from_dict(dict(e))
                for e in self.entries
            )
            object.__setattr__(self, "entries", coerced)
            if self.percent != 0.0:
                raise ValueError(
                    "percent and entries are mutually exclusive: an explicit "
                    "fault map already fixes the faulty-router set"
                )
            nodes = [e.node for e in coerced]
            if len(set(nodes)) != len(nodes):
                raise ValueError(f"duplicate nodes in fault entries: {sorted(nodes)}")
            for e in coerced:
                if self.granularity == "crosspoint" and not e.is_crosspoint:
                    raise ValueError(
                        f"granularity='crosspoint' but the entry for node "
                        f"{e.node} carries no crosspoint ports"
                    )
                if self.granularity == "crossbar" and e.is_crosspoint:
                    raise ValueError(
                        f"granularity='crossbar' but the entry for node "
                        f"{e.node} names a crosspoint"
                    )

    @property
    def active(self) -> bool:
        """True when this config injects any fault at all (percent-driven
        or explicit entries)."""
        return self.percent > 0 or self.entries is not None

    def to_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        if d["entries"] is None:
            # Omitted rather than null: keeps the canonical JSON — and so
            # every pre-existing config_hash, cache key and checkpoint
            # identity — byte-identical for entry-less configs.
            del d["entries"]
        else:
            # A list, not a tuple: the dict must equal its own JSON round
            # trip or cache identity checks read stored results as misses.
            d["entries"] = list(d["entries"])
        return d

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultConfig":
        _check_fields(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class TelemetryConfig:
    """Observability knobs (see :mod:`repro.obs` and docs/observability.md).

    Everything defaults to off: the default simulation constructs no
    tracer, no metrics collector and no profiler, and the hot loop pays a
    single ``is None`` branch per potential event.

    ``trace_path`` streams flit-lifecycle events to a JSONL file;
    ``trace_buffer`` (mutually exclusive alternative) keeps the last N
    records in an in-memory ring instead.  ``metrics_interval`` samples
    per-router time series every N cycles, optionally persisted to
    ``metrics_path``.  ``profile`` wall-clock-times the engine phases.
    """

    trace_path: Optional[str] = None
    trace_buffer: int = 0
    metrics_interval: int = 0
    metrics_path: Optional[str] = None
    profile: bool = False

    def __post_init__(self) -> None:
        if self.trace_buffer < 0:
            raise ValueError("trace_buffer must be >= 0 (0 disables)")
        if self.trace_path and self.trace_buffer:
            raise ValueError("trace_path and trace_buffer are mutually exclusive")
        if self.metrics_interval < 0:
            raise ValueError("metrics_interval must be >= 0 (0 disables)")
        if self.metrics_path and self.metrics_interval == 0:
            raise ValueError("metrics_path requires metrics_interval > 0")

    @property
    def enabled(self) -> bool:
        return bool(
            self.trace_path
            or self.trace_buffer
            or self.metrics_interval
            or self.profile
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TelemetryConfig":
        _check_fields(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class SimConfig:
    """All knobs of one simulation run.

    Parameters mirror the paper's methodology: 8x8 mesh, Bernoulli packet
    injection at a fraction of network capacity, 4-flit input buffers, a
    fairness threshold of 4, and a 5-cycle BIST detection delay.
    """

    design: str = "dxbar_dor"
    k: int = 8
    pattern: str = "UR"
    offered_load: float = 0.3  # fraction of pattern capacity
    packet_size: int = 4  # flits per packet (64 B cache line @ 128-bit flits)
    warmup_cycles: int = 1000
    measure_cycles: int = 4000
    drain_cycles: int = 2000
    seed: int = 1
    buffer_depth: int = 4
    fairness_threshold: int = 4
    ejection_ports: int = 1  # simultaneous ejections in bufferless designs
    link_latency: int = 2  # ST cycle + LT cycle (see repro.sim.link)
    faults: FaultConfig = field(default_factory=FaultConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    # Closed-loop (trace / SPLASH-2) runs ignore offered_load and stop when
    # the workload completes or max_cycles elapses.
    max_cycles: Optional[int] = None
    # Simulation backend: the per-flit "object" walk (reference), the
    # struct-of-arrays "vector" kernels (piloted designs only), or "auto"
    # (vector where supported, object otherwise, with a one-time warning
    # on fallback).  Serialised and hashed, so cache keys and checkpoints
    # distinguish backends.
    backend: str = "object"

    def __post_init__(self) -> None:
        if self.design not in DESIGNS:
            raise ValueError(
                f"unknown design {self.design!r}; expected one of {DESIGNS.names()}"
            )
        if self.pattern not in PATTERNS:
            raise ValueError(
                f"unknown pattern {self.pattern!r}; expected one of {PATTERNS.names()}"
            )
        if self.k < 2:
            raise ValueError("mesh radix k must be >= 2")
        if not (0.0 <= self.offered_load <= 2.0):
            raise ValueError("offered_load is a fraction of capacity in [0, 2]")
        if self.packet_size < 1:
            raise ValueError("packet_size must be >= 1")
        if min(self.warmup_cycles, self.measure_cycles, self.drain_cycles) < 0:
            raise ValueError("cycle counts must be non-negative")
        if self.measure_cycles == 0:
            raise ValueError("measure_cycles must be positive")
        if self.buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1")
        if self.fairness_threshold < 1:
            raise ValueError("fairness_threshold must be >= 1")
        if self.ejection_ports < 1:
            raise ValueError("ejection_ports must be >= 1")
        if self.link_latency < 1:
            raise ValueError("link_latency must be >= 1")
        if self.faults.active and not self.spec.supports_faults:
            raise ValueError(
                "crossbar fault injection is defined for the dual-crossbar "
                "designs only (dxbar_*/unified_*); design "
                f"{self.design!r} does not support it"
            )
        if self.backend not in KNOWN_BACKENDS:
            raise ConfigError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {KNOWN_BACKENDS}"
            )
        if self.backend == "vector":
            # An *explicit* vector request on an unsupported combination
            # fails here, at validation time; only backend="auto" falls
            # back silently (well: with a one-time warning).
            reason = self._vector_unsupported_reason()
            if reason:
                raise ConfigError(
                    f"backend='vector' is not available for this config: "
                    f"{reason}; use backend='auto' to fall back to the "
                    f"object backend instead"
                )

    def _vector_unsupported_reason(self) -> Optional[str]:
        """Why the vector backend cannot run this config (None = it can)."""
        if not self.spec.supports_vector:
            return (
                f"design {self.design!r} has no vectorized kernel "
                f"(supports_vector=False in its DesignSpec)"
            )
        if self.telemetry.trace_path or self.telemetry.trace_buffer:
            return (
                "flit-lifecycle tracing requires the per-flit object walk"
            )
        return None

    def resolved_backend(self) -> str:
        """The backend a run of this config actually uses.

        ``object`` and ``vector`` resolve to themselves (validation already
        guaranteed vector support); ``auto`` picks ``vector`` when the
        design has a kernel, no per-flit tracing is requested *and* the
        expected work rate ``k**2 * offered_load`` clears the design's
        profiled ``vector_min_work`` threshold — under it, the active
        object walk skips idle routers and beats the kernel's fixed
        per-cycle cost, so ``auto`` quietly keeps the object backend (a
        performance choice, not a capability gap: no warning).  Capability
        fallbacks still warn once per (design, cause) per process.
        """
        if self.backend != "auto":
            return self.backend
        reason = self._vector_unsupported_reason()
        if reason is None:
            min_work = self.spec.vector_min_work
            if (
                min_work is not None
                and self.k * self.k * self.offered_load < min_work
            ):
                return "object"
            return "vector"
        key = (self.design, reason)
        if key not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(key)
            warnings.warn(
                f"backend='auto': falling back to the object backend "
                f"({reason})",
                RuntimeWarning,
                stacklevel=2,
            )
        return "object"

    # ------------------------------------------------------------------
    @property
    def total_cycles(self) -> int:
        return self.warmup_cycles + self.measure_cycles + self.drain_cycles

    @property
    def num_nodes(self) -> int:
        return self.k * self.k

    @property
    def spec(self):
        """The registered :class:`~repro.registry.DesignSpec` of ``design``."""
        return DESIGNS.get(self.design)

    @property
    def base_design(self) -> str:
        """Design family without the routing suffix (``dxbar_wf`` -> ``dxbar``)."""
        return self.spec.base

    @property
    def routing(self) -> str:
        """Name of the design's routing function (``dor``, ``wf`` or
        ``adaptive``), as declared in its registry spec."""
        return self.spec.routing

    def with_(self, **kwargs) -> "SimConfig":
        """Return a copy with fields replaced (sweep helper)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-serialisable form (nested configs become dicts).

        The faults sub-dict goes through :meth:`FaultConfig.to_dict` rather
        than bare ``asdict``: it omits an absent ``entries`` key (keeping
        entry-less config hashes identical to pre-entries builds) and emits
        present entries in JSON-round-trip-stable form.
        """
        d = asdict(self)
        d["faults"] = self.faults.to_dict()
        return d

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys so corrupted
        cache entries fail loudly instead of silently dropping fields."""
        _check_fields(cls, data)
        data = dict(data)
        faults = data.get("faults")
        if isinstance(faults, dict):
            data["faults"] = FaultConfig.from_dict(faults)
        telemetry = data.get("telemetry")
        if isinstance(telemetry, dict):
            data["telemetry"] = TelemetryConfig.from_dict(telemetry)
        return cls(**data)

    def config_hash(self) -> str:
        """Stable content hash of the config (hex, 16 chars).

        Computed over the canonical JSON encoding of :meth:`to_dict`, so it
        is identical across processes and interpreter runs and keys the
        runner's on-disk result cache.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

