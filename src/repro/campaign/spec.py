"""Campaign description: the sampled grid as serializable data.

A :class:`CampaignSpec` fully determines a Monte-Carlo fault-injection
campaign — (fault map x design x load) — the same way a
:class:`~repro.sim.config.SimConfig` fully determines one run.  It
serializes losslessly (``to_dict``/``from_dict``), hashes stably
(:meth:`CampaignSpec.campaign_hash` identifies the campaign in its
on-disk manifest) and expands deterministically into
:class:`~repro.runner.RunSpec` jobs (:meth:`CampaignSpec.jobs`), so a
crashed driver rebuilds the exact same job list from the manifest and the
result cache fills in whatever already completed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.faults import fault_count
from ..registry import DESIGNS
from ..runner import RunSpec
from ..sim.config import FaultConfig, SimConfig, check_fields, content_hash
from .sampler import WEIGHTINGS, FaultMapSampler, resolve_weights

#: When the sampled faults manifest: spread across warmup (the paper's
#: static-fault setup) or across the measurement window (transient
#: fault-during-run scenario).
MANIFEST_PHASES = ("warmup", "measure")

#: SimConfig fields the campaign owns; a ``sim`` override naming one of
#: these would silently fight the grid expansion, so it is rejected.
_RESERVED_SIM_KEYS = ("design", "offered_load", "k", "pattern", "faults")

#: Expanded job tuples by campaign hash, oldest first (see
#: :meth:`CampaignSpec.jobs`); a few campaigns per process at most.
_EXPANSIONS: Dict[str, Tuple["CampaignJob", ...]] = {}
_EXPANSIONS_KEPT = 4


@dataclass(frozen=True)
class CampaignJob:
    """One cell of the expanded campaign grid.

    ``sample`` indexes the fault map, ``percent`` the fault level
    (``count`` is its realised router count), and ``spec`` is the
    ready-to-run job.  ``faulty_nodes`` recovers the map from the config —
    the criticality analytics key on it.
    """

    sample: int
    percent: float
    count: int
    design: str
    load: float
    spec: RunSpec

    @property
    def faulty_nodes(self) -> Tuple[int, ...]:
        entries = self.spec.config.faults.entries
        return tuple(e.node for e in entries) if entries else ()


@dataclass(frozen=True)
class CampaignSpec:
    """All knobs of one fault-injection campaign.

    ``percents`` is the fault-level axis (0 included gives the analytics a
    fault-free baseline to normalise against); ``samples`` is the number of
    independent fault maps drawn per level.  ``weighting`` selects the
    sampling bias (``uniform``/``center``/``edges``); ``manifest_phase``/
    ``manifest_at`` schedule when faults manifest; ``detection_cycles`` is
    the BIST detection-latency knob.  ``sim`` carries any further
    :class:`~repro.sim.config.SimConfig` overrides (cycle counts, traffic
    seed, ...) applied verbatim to every job.
    """

    designs: Tuple[str, ...] = ("dxbar_dor", "unified_dor")
    loads: Tuple[float, ...] = (0.5,)
    percents: Tuple[float, ...] = (0.0, 25.0, 50.0, 75.0, 100.0)
    samples: int = 32
    seed: int = 1
    k: int = 8
    pattern: str = "UR"
    granularity: str = "crossbar"
    weighting: str = "uniform"
    manifest_phase: str = "warmup"
    manifest_at: Optional[int] = None
    detection_cycles: int = 5
    sim: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "designs", tuple(self.designs))
        object.__setattr__(self, "loads", tuple(float(v) for v in self.loads))
        object.__setattr__(self, "percents", tuple(float(v) for v in self.percents))
        object.__setattr__(self, "sim", dict(self.sim))
        if not self.designs:
            raise ValueError("campaign needs at least one design")
        if not self.loads:
            raise ValueError("campaign needs at least one offered load")
        if not self.percents:
            raise ValueError("campaign needs at least one fault percent")
        if len(set(self.percents)) != len(self.percents):
            raise ValueError(f"duplicate fault percents: {self.percents}")
        for p in self.percents:
            if not (0.0 <= p <= 100.0):
                raise ValueError(f"fault percent out of range: {p}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(
                f"unknown weighting {self.weighting!r}; expected one of {WEIGHTINGS}"
            )
        if self.manifest_phase not in MANIFEST_PHASES:
            raise ValueError(
                f"manifest_phase must be one of {MANIFEST_PHASES}, "
                f"got {self.manifest_phase!r}"
            )
        if self.manifest_at is not None and self.manifest_at < 0:
            raise ValueError("manifest_at must be >= 0")
        if self.detection_cycles < 0:
            raise ValueError("detection_cycles must be >= 0")
        for key in _RESERVED_SIM_KEYS:
            if key in self.sim:
                raise ValueError(
                    f"sim override {key!r} is owned by the campaign grid; "
                    f"set it through the CampaignSpec field instead"
                )
        faulty = any(p > 0 for p in self.percents)
        for d in self.designs:
            if d not in DESIGNS:
                raise ValueError(f"unknown design {d!r}")
            if faulty and not DESIGNS.get(d).supports_faults:
                raise ValueError(
                    f"design {d!r} does not support crossbar faults; "
                    f"campaigns with nonzero percents need dual-crossbar "
                    f"designs (dxbar_*/unified_*)"
                )
        # Validate the base config eagerly (bad sim overrides, unknown
        # pattern, ...): a campaign should fail before its first job does.
        self.base_config()

    # ------------------------------------------------------------------
    @property
    def num_routers(self) -> int:
        return self.k * self.k

    def base_config(self) -> SimConfig:
        """The fault-free template every job derives from."""
        return SimConfig(
            design=self.designs[0],
            k=self.k,
            pattern=self.pattern,
            offered_load=self.loads[0],
            faults=FaultConfig(detection_cycles=self.detection_cycles),
            **self.sim,
        )

    def manifest_bounds(self) -> Tuple[int, int]:
        """Inclusive ``[lo, hi]`` bounds of the sampled manifest cycle."""
        if self.manifest_at is not None:
            return self.manifest_at, self.manifest_at
        base = self.base_config()
        if self.manifest_phase == "warmup":
            return 1, max(1, base.warmup_cycles)
        start = base.warmup_cycles + 1
        return start, max(start, base.warmup_cycles + base.measure_cycles)

    def sampler(self) -> FaultMapSampler:
        lo, hi = self.manifest_bounds()
        return FaultMapSampler(
            self.num_routers,
            seed=self.seed,
            granularity=self.granularity,
            manifest_lo=lo,
            manifest_hi=hi,
            weights=resolve_weights(self.weighting, self.k),
        )

    # ------------------------------------------------------------------
    def jobs(self) -> List[CampaignJob]:
        """Expand the campaign deterministically into runnable jobs.

        Fault-free cells (percent 0, or a percent that rounds to zero
        routers) collapse onto sample 0: their configs would be identical
        across samples anyway, and one explicit baseline per (design,
        load) keeps the job list honest about what actually runs.

        The expansion is computed once per process and campaign: it is
        memoised under :meth:`campaign_hash`, the campaign's content, not
        under this object (``sim`` is a mutable dict, and a re-opened
        directory builds a new spec from its manifest).  Each call returns
        a new list of the shared, frozen jobs.
        """
        key = self.campaign_hash()
        expanded = _EXPANSIONS.pop(key, None)
        if expanded is None:
            expanded = self._expand()
        _EXPANSIONS[key] = expanded
        while len(_EXPANSIONS) > _EXPANSIONS_KEPT:
            del _EXPANSIONS[next(iter(_EXPANSIONS))]
        return list(expanded)

    def _expand(self) -> Tuple[CampaignJob, ...]:
        sampler = self.sampler()
        base = self.base_config()
        no_faults = FaultConfig(
            detection_cycles=self.detection_cycles, granularity=self.granularity
        )
        counts = {p: fault_count(p, self.num_routers) for p in self.percents}
        out: List[CampaignJob] = []
        for sample in range(self.samples):
            # One ordering per sample; every fault level takes its prefix.
            maps = sampler.sample_levels(
                sample, (c for c in counts.values() if c > 0)
            )
            for percent in self.percents:
                count = counts[percent]
                if count == 0 and sample > 0:
                    continue
                if count == 0:
                    faults = no_faults
                else:
                    faults = FaultConfig(
                        detection_cycles=self.detection_cycles,
                        granularity=self.granularity,
                        entries=maps[count],
                    )
                for design in self.designs:
                    for load in self.loads:
                        config = base.with_(
                            design=design, offered_load=load, faults=faults
                        )
                        out.append(
                            CampaignJob(
                                sample=sample,
                                percent=percent,
                                count=count,
                                design=design,
                                load=load,
                                spec=RunSpec(
                                    config=config,
                                    tag=f"s{sample}/p{percent:g}/{design}@{load:g}",
                                ),
                            )
                        )
        return tuple(out)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        check_fields(cls, data)
        return cls(**data)

    def campaign_hash(self) -> str:
        """Stable content hash (hex, 16 chars) identifying the campaign;
        written to the manifest so a directory refuses jobs from a
        different campaign."""
        return content_hash(self.to_dict())
