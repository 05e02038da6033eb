"""Parameter-sweep harnesses.

These helpers expand grids of :class:`~repro.sim.config.SimConfig` into
:class:`~repro.runner.RunSpec` jobs and execute them through
:func:`repro.runner.run_specs`, so every sweep accepts ``jobs`` (process
parallelism), ``root`` (a run directory keeping the cells' cache, journal
and checkpoints, or None to keep nothing) and ``progress`` callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..runner import RunSpec, run_specs
from ..runner.executor import results_of
from ..sim.config import SimConfig
from ..sim.stats import SimResult


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
    **kwargs,
) -> SweepResult:
    """Run ``design`` at each offered load in ``loads``; keyword
    arguments are those of :func:`sweep_designs`."""
    return sweep_designs([design], loads, base, **kwargs)[design]


def sweep_designs(
    designs: Iterable[str],
    loads: Sequence[float],
    base: Optional[SimConfig] = None,
    *,
    jobs: int = 1,
    root: Optional[Union[str, Path]] = None,
    progress=None,
    checkpoint_every: int = 0,
    audit=False,
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
        root=root,
        progress=progress,
        checkpoint_every=checkpoint_every,
        audit=audit,
    )
    results = results_of(outcomes, "sweep jobs")
    n = len(loads)
    return {
        d: SweepResult(design=d, loads=loads, results=results[i * n : (i + 1) * n])
        for i, d in enumerate(designs)
    }
