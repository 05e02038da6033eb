"""The :class:`RunSpec` job abstraction.

A ``RunSpec`` is one fully-described simulation job: a
:class:`~repro.sim.config.SimConfig` plus an optional *workload spec* — a
small JSON-able dict describing a closed-loop workload (e.g. one SPLASH-2
trace replay) that the executing process materialises locally.  Keeping
the workload as data rather than as a live object makes specs hashable
(they key the result cache) and cheap to ship to worker processes.

Workload kinds are pluggable through
:func:`repro.registry.register_workload`; the built-in ``splash2`` kind is
registered here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Mapping, Optional, Tuple

from ..registry import WORKLOADS, register_workload
from ..sim.config import SimConfig, content_hash
from ..sim.topology import Mesh


def derived_seed(base_seed: int, *components: Any) -> int:
    """A deterministic 31-bit seed derived from ``base_seed`` and any
    hashable components (replicate index, design name, ...).

    Stable across processes and interpreter runs (no PYTHONHASHSEED
    dependence), so parallel and serial executions of the same grid use
    identical per-job seeds.
    """
    payload = json.dumps([base_seed, *components], sort_keys=True, default=str)
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass(frozen=True)
class RunSpec:
    """One simulation job: config + optional closed-loop workload spec.

    ``workload`` is either ``None`` (open-loop Bernoulli injection built
    from the config) or a dict with a ``kind`` key naming a registered
    workload factory, e.g. ``{"kind": "splash2", "app": "FFT",
    "txns_per_core": 30, "seed": 7}``.  ``tag`` is free-form caller
    bookkeeping (it does not affect the job id).
    """

    config: SimConfig
    workload: Optional[Mapping[str, Any]] = None
    tag: str = ""

    def __post_init__(self) -> None:
        if self.workload is not None:
            wl = dict(self.workload)
            if "kind" not in wl:
                raise ValueError("workload spec needs a 'kind' key")
            object.__setattr__(self, "workload", wl)

    # ------------------------------------------------------------------
    def job_id(self) -> str:
        """Content hash identifying this job in the result cache."""
        if self.workload is None:
            return self.config.config_hash()
        return content_hash(self.identity())

    def describe(self) -> Dict[str, Any]:
        """JSON-able identity of the job (stored alongside cached results
        so hash collisions / stale entries are detected, and shipped to
        worker processes)."""
        return {
            "config": self.config.to_dict(),
            "workload": dict(self.workload) if self.workload else None,
            "tag": self.tag,
        }

    def identity(self) -> Dict[str, Any]:
        """:meth:`describe` without the tag: what a cached result's stored
        identity must equal.  Computed once per instance, like
        ``SimConfig.config_hash`` (the spec and its config are frozen);
        the shared dict is read-only."""
        cached = self.__dict__.get("_identity")
        if cached is None:
            cached = self.__dict__["_identity"] = {
                "config": self.config.to_dict(),
                "workload": dict(self.workload) if self.workload else None,
            }
        return cached

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        return cls(
            config=SimConfig.from_dict(data["config"]),
            workload=data.get("workload"),
            tag=data.get("tag", ""),
        )

    def replicated(self, n: int) -> Tuple["RunSpec", ...]:
        """``n`` copies with deterministic per-replicate seeds derived from
        the base config's seed (replicate 0 keeps the original seed)."""
        out = []
        for i in range(n):
            seed = (
                self.config.seed if i == 0 else derived_seed(self.config.seed, i)
            )
            out.append(
                RunSpec(
                    config=self.config.with_(seed=seed),
                    workload=self.workload,
                    tag=f"{self.tag}#r{i}" if self.tag else f"r{i}",
                )
            )
        return tuple(out)


def materialize_workload(spec: Optional[Mapping[str, Any]], config: SimConfig):
    """Build the live Workload object described by ``spec`` (or None for
    open-loop jobs) in the executing process."""
    if spec is None:
        return None
    factory = WORKLOADS.get(spec["kind"])
    return factory(spec, config)


# ----------------------------------------------------------------------
# built-in workload kinds
# ----------------------------------------------------------------------
@lru_cache(maxsize=16)
def _splash2_trace(app: str, k: int, txns_per_core: int, seed: int):
    # Trace generation is deterministic and shared by every design that
    # replays the same app, so memoise it per process.
    from ..traffic.splash2 import generate_app_trace

    return tuple(generate_app_trace(app, Mesh(k), txns_per_core=txns_per_core, seed=seed))


@register_workload("splash2")
def _splash2_workload(spec: Mapping[str, Any], config: SimConfig):
    """Open-loop replay of one generated SPLASH-2 application trace.

    Spec keys: ``app`` (required), ``txns_per_core`` and ``seed``
    (optional, with the generator's defaults).
    """
    from ..traffic.trace import TraceWorkload

    trace = _splash2_trace(
        spec["app"],
        config.k,
        spec.get("txns_per_core", 100),
        spec.get("seed", 7),
    )
    return TraceWorkload(list(trace))
