"""Multi-seed replication statistics.

The paper reports single runs; for a reproduction it is worth knowing how
much of an observed gap is seed noise.  :func:`replicate` runs one config
across several seeds and returns mean/stddev/CI summaries for the headline
metrics, and :func:`compare` answers "does design A beat design B beyond
noise?" with a simple Welch test.  scipy is imported on the first
:func:`compare` call, so the rest of the package runs with numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..sim.config import SimConfig
from ..sim.engine import run_simulation
from ..sim.stats import SimResult

#: The metrics summarised by :func:`replicate`.
METRICS: Tuple[str, ...] = (
    "accepted_load",
    "avg_flit_latency",
    "avg_packet_latency",
    "energy_per_packet_nj",
    "deflections_per_flit",
)


@dataclass(frozen=True)
class MetricSummary:
    """Mean / spread of one metric across replications."""

    name: str
    mean: float
    stddev: float
    n: int
    values: Tuple[float, ...]

    @property
    def sem(self) -> float:
        return self.stddev / math.sqrt(self.n) if self.n > 1 else 0.0

    def ci95(self) -> Tuple[float, float]:
        """95% confidence interval (normal approximation; the replication
        counts here are small, so treat it as a guide, not gospel)."""
        half = 1.96 * self.sem
        return (self.mean - half, self.mean + half)


def _metric_value(result: SimResult, name: str) -> float:
    value = getattr(result, name)
    return float(value)


def replicate(
    config: SimConfig, seeds: Sequence[int]
) -> Dict[str, MetricSummary]:
    """Run ``config`` once per seed and summarise the headline metrics."""
    if not seeds:
        raise ValueError("need at least one seed")
    results = [run_simulation(config.with_(seed=s)) for s in seeds]
    out: Dict[str, MetricSummary] = {}
    for name in METRICS:
        values = tuple(_metric_value(r, name) for r in results)
        mean = sum(values) / len(values)
        var = (
            sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            if len(values) > 1
            else 0.0
        )
        out[name] = MetricSummary(
            name=name, mean=mean, stddev=math.sqrt(var), n=len(values), values=values
        )
    return out


@dataclass(frozen=True)
class Comparison:
    """Welch-test verdict on one metric between two designs."""

    metric: str
    mean_a: float
    mean_b: float
    p_value: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def compare(
    config: SimConfig,
    design_a: str,
    design_b: str,
    seeds: Sequence[int],
    metric: str = "accepted_load",
) -> Comparison:
    """Welch's t-test of ``metric`` between two designs on matched seeds."""
    from scipy import stats as sps

    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if len(seeds) < 2:
        raise ValueError("need at least two seeds for a comparison")
    a = [
        _metric_value(run_simulation(config.with_(design=design_a, seed=s)), metric)
        for s in seeds
    ]
    b = [
        _metric_value(run_simulation(config.with_(design=design_b, seed=s)), metric)
        for s in seeds
    ]
    t, p = sps.ttest_ind(a, b, equal_var=False)
    return Comparison(
        metric=metric,
        mean_a=sum(a) / len(a),
        mean_b=sum(b) / len(b),
        p_value=float(p),
    )
