"""Parameter-sweep harnesses.

These helpers expand grids of :class:`~repro.sim.config.SimConfig` into
:class:`~repro.runner.RunSpec` jobs and execute them through
:func:`repro.runner.run_specs`, so every sweep accepts ``jobs`` (process
parallelism), ``cache`` (a :class:`~repro.runner.ResultCache`, a directory
path, or None) and ``progress`` callbacks.  The per-figure drivers in
:mod:`repro.analysis.experiments` are built on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..runner import ResultCache, RunSpec, run_specs
from ..sim.config import SimConfig
from ..sim.stats import SimResult

CacheLike = Optional[Union[ResultCache, str, Path]]


def as_cache(cache: CacheLike) -> Optional[ResultCache]:
    """Coerce a cache argument: ResultCache passes through, a path becomes
    a disk-backed cache, None stays None."""
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def _results(outcomes) -> List[SimResult]:
    """Unwrap outcomes, raising when any job failed terminally — a sweep
    with holes would silently misalign its loads/results columns."""
    bad = [o for o in outcomes if not o.ok]
    if bad:
        raise RuntimeError(
            "sweep jobs failed terminally: "
            + "; ".join(f"{o.spec.job_id()}: {o.error}" for o in bad)
        )
    return [o.result for o in outcomes]


@dataclass
class SweepResult:
    """All runs of one design across a load grid."""

    design: str
    loads: List[float]
    results: List[SimResult]

    @property
    def accepted(self) -> List[float]:
        return [r.accepted_load for r in self.results]

    @property
    def latency(self) -> List[float]:
        return [r.avg_flit_latency for r in self.results]

    @property
    def energy_per_packet(self) -> List[float]:
        return [r.energy_per_packet_nj for r in self.results]


def sweep_loads(
    design: str,
    loads: Sequence[float],
    base: Optional[SimConfig] = None,
    *,
    jobs: int = 1,
    cache: CacheLike = None,
    progress=None,
    checkpoint_every: int = 0,
    checkpoint_root: Optional[Union[str, Path]] = None,
    audit=False,
    journal=None,
    heartbeat_interval: float = 1.0,
    **overrides,
) -> SweepResult:
    """Run ``design`` at each offered load in ``loads``.

    ``journal`` (a directory path or :class:`~repro.obs.Journal`) records
    the campaign's fleet-telemetry event stream; see
    :func:`repro.runner.run_specs`.
    """
    base = base or SimConfig()
    specs = [
        RunSpec(base.with_(design=design, offered_load=load, **overrides))
        for load in loads
    ]
    outcomes = run_specs(
        specs,
        jobs=jobs,
        cache=as_cache(cache),
        progress=progress,
        checkpoint_every=checkpoint_every,
        checkpoint_root=checkpoint_root,
        audit=audit,
        journal=journal,
        heartbeat_interval=heartbeat_interval,
    )
    return SweepResult(design=design, loads=list(loads), results=_results(outcomes))


def sweep_designs(
    designs: Iterable[str],
    loads: Sequence[float],
    base: Optional[SimConfig] = None,
    *,
    jobs: int = 1,
    cache: CacheLike = None,
    progress=None,
    checkpoint_every: int = 0,
    checkpoint_root: Optional[Union[str, Path]] = None,
    audit=False,
    journal=None,
    heartbeat_interval: float = 1.0,
    **overrides,
) -> Dict[str, SweepResult]:
    """Run every design across the same load grid.

    The full designs x loads grid is submitted as one batch, so ``jobs``
    parallelism spans the whole grid rather than one design at a time.
    """
    designs = list(designs)
    loads = list(loads)
    base = base or SimConfig()
    specs = [
        RunSpec(base.with_(design=d, offered_load=load, **overrides), tag=d)
        for d in designs
        for load in loads
    ]
    outcomes = run_specs(
        specs,
        jobs=jobs,
        cache=as_cache(cache),
        progress=progress,
        checkpoint_every=checkpoint_every,
        checkpoint_root=checkpoint_root,
        audit=audit,
        journal=journal,
        heartbeat_interval=heartbeat_interval,
    )
    out: Dict[str, SweepResult] = {}
    for i, d in enumerate(designs):
        chunk = outcomes[i * len(loads) : (i + 1) * len(loads)]
        out[d] = SweepResult(design=d, loads=loads, results=_results(chunk))
    return out

