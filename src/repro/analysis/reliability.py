"""Reliability analytics over Monte-Carlo fault campaigns.

The paper's headline claim is *graceful degradation*: throughput falls
smoothly — never to zero — as crossbar faults approach 100%.  One number
per fault level cannot support that claim; a campaign produces a
*distribution* over sampled fault maps, and this module summarises it:

* **degradation distributions** — percentiles (not just means) of
  throughput / latency / energy, normalised to the campaign's fault-free
  baseline per (design, load);
* **yield curves** — the fraction of sampled fault maps that still meet a
  throughput threshold at each fault level (the manufacturing-yield view
  of fault tolerance);
* **criticality heatmaps** — per-router contrast between maps where the
  router is faulty and maps where it is healthy, locating the links and
  routers whose failure actually hurts;
* **hotspot heatmaps** — mean per-router telemetry counters (deflections,
  buffered events, ...) under faults, reusing the uniform counter frames
  every :class:`~repro.sim.stats.SimResult` already carries.

Everything is a pure function of the campaign's records, so serial,
parallel and resumed executions of the same campaign render
byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.stats import SimResult
from .report import render_heatmap, render_table

#: Percentile grid reported for every distribution.
PERCENTILES = (5, 25, 50, 75, 95)


@dataclass(frozen=True)
class ReliabilityRecord:
    """One completed campaign run, tagged with its grid coordinates."""

    sample: int
    percent: float
    count: int
    design: str
    load: float
    faulty_nodes: Tuple[int, ...]
    result: SimResult


@dataclass(frozen=True)
class DistStats:
    """Distribution summary of one metric over sampled fault maps."""

    n: int
    mean: float
    min: float
    p5: float
    p25: float
    p50: float
    p75: float
    p95: float
    max: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "DistStats":
        return _dist_stats([values])[0]

    def to_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "mean": self.mean,
            "min": self.min,
            "p5": self.p5,
            "p25": self.p25,
            "p50": self.p50,
            "p75": self.p75,
            "p95": self.p95,
            "max": self.max,
        }


@dataclass(frozen=True)
class GroupStats:
    """All distributions of one (design, load, percent) cell.

    Ratios are normalised to the fault-free baseline of the same
    (design, load); they are None when the campaign sampled no percent-0
    baseline (analytics then fall back to absolute values only).
    """

    design: str
    load: float
    percent: float
    maps: int
    throughput: DistStats
    latency: DistStats
    energy: DistStats
    throughput_ratio: Optional[DistStats]
    latency_ratio: Optional[DistStats]
    energy_ratio: Optional[DistStats]
    yield_fraction: Optional[float]

    def to_dict(self) -> Dict[str, object]:
        return {
            "design": self.design,
            "load": self.load,
            "percent": self.percent,
            "maps": self.maps,
            "throughput": self.throughput.to_dict(),
            "latency": self.latency.to_dict(),
            "energy": self.energy.to_dict(),
            "throughput_ratio": (
                self.throughput_ratio.to_dict() if self.throughput_ratio else None
            ),
            "latency_ratio": (
                self.latency_ratio.to_dict() if self.latency_ratio else None
            ),
            "energy_ratio": (
                self.energy_ratio.to_dict() if self.energy_ratio else None
            ),
            "yield": self.yield_fraction,
        }


class ReliabilityReport:
    """Analytics over a campaign's completed records.

    ``threshold`` defines yield: the fraction of sampled maps whose
    throughput stays at or above ``threshold`` x the fault-free baseline.
    """

    def __init__(
        self,
        records: Sequence[ReliabilityRecord],
        *,
        k: int,
        threshold: float = 0.5,
    ) -> None:
        if not (0.0 < threshold <= 1.0):
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.records = list(records)
        self.k = k
        self.threshold = threshold
        self._groups: Dict[Tuple[str, float, float], List[ReliabilityRecord]] = {}
        self._group_stats: Dict[Tuple[str, float, float], GroupStats] = {}
        for r in self.records:
            self._groups.setdefault((r.design, r.load, r.percent), []).append(r)
        # Baseline = mean over the percent-0 cell (usually one record).
        self._baseline: Dict[Tuple[str, float], Dict[str, float]] = {}
        for (design, load, percent), rs in self._groups.items():
            if percent == 0.0:
                self._baseline[(design, load)] = {
                    "throughput": _mean(r.result.accepted_load for r in rs),
                    "latency": _mean(r.result.avg_flit_latency for r in rs),
                    "energy": _mean(r.result.energy_per_packet_nj for r in rs),
                }

    # ------------------------------------------------------------------
    @property
    def cells(self) -> List[Tuple[str, float, float]]:
        """(design, load, percent) keys in deterministic report order."""
        return sorted(self._groups)

    def baseline(self, design: str, load: float) -> Optional[Dict[str, float]]:
        return self._baseline.get((design, load))

    def group(self, design: str, load: float, percent: float) -> GroupStats:
        """The cell's distributions, computed on first use (the report is
        immutable once built, and ``to_dict`` reads every cell twice)."""
        key = (design, load, percent)
        cached = self._group_stats.get(key)
        if cached is None:
            cached = self._group_stats[key] = self._build_group(*key)
        return cached

    def _build_group(self, design: str, load: float, percent: float) -> GroupStats:
        rs = self._groups[(design, load, percent)]
        tput = [r.result.accepted_load for r in rs]
        lat = [r.result.avg_flit_latency for r in rs]
        energy = [r.result.energy_per_packet_nj for r in rs]
        columns = {"throughput": tput, "latency": lat, "energy": energy}
        base = self._baseline.get((design, load))
        yield_fraction = None
        if base is not None and base["throughput"] > 0:
            ratios = [v / base["throughput"] for v in tput]
            columns["throughput_ratio"] = ratios
            yield_fraction = sum(v >= self.threshold for v in ratios) / len(ratios)
            if base["latency"] > 0:
                columns["latency_ratio"] = [v / base["latency"] for v in lat]
            if base["energy"] > 0:
                columns["energy_ratio"] = [v / base["energy"] for v in energy]
        stats = dict(zip(columns, _dist_stats(list(columns.values()))))
        return GroupStats(
            design=design,
            load=load,
            percent=percent,
            maps=len(rs),
            throughput=stats["throughput"],
            latency=stats["latency"],
            energy=stats["energy"],
            throughput_ratio=stats.get("throughput_ratio"),
            latency_ratio=stats.get("latency_ratio"),
            energy_ratio=stats.get("energy_ratio"),
            yield_fraction=yield_fraction,
        )

    def yield_curve(self, design: str, load: float) -> Dict[float, Optional[float]]:
        """percent -> yield fraction, ascending along the fault axis."""
        out: Dict[float, Optional[float]] = {}
        for d, ld, p in self.cells:
            if d == design and ld == load:
                out[p] = self.group(d, ld, p).yield_fraction
        return out

    # ------------------------------------------------------------------
    # spatial analytics
    # ------------------------------------------------------------------
    def criticality(self, design: str, load: float) -> List[List[float]]:
        """Per-router criticality grid (``k x k``).

        For each router: mean throughput degradation (1 - ratio) of the
        sampled maps in which it is faulty, minus the mean over maps in
        which it is healthy — a positive cell marks a router whose failure
        costs more than average.  Only partial-fault maps contribute
        (at 0% or 100% every map agrees on the router's state, so there is
        no contrast to measure)."""
        base = self._baseline.get((design, load))
        n = self.k * self.k
        with_deg: List[List[float]] = [[] for _ in range(n)]
        without_deg: List[List[float]] = [[] for _ in range(n)]
        if base is None or base["throughput"] <= 0:
            return [[0.0] * self.k for _ in range(self.k)]
        for r in self.records:
            if r.design != design or r.load != load:
                continue
            if r.count == 0 or r.count >= n:
                continue
            deg = 1.0 - r.result.accepted_load / base["throughput"]
            faulty = set(r.faulty_nodes)
            for node in range(n):
                (with_deg if node in faulty else without_deg)[node].append(deg)
        grid = []
        for y in range(self.k):
            row = []
            for x in range(self.k):
                node = y * self.k + x
                if with_deg[node] and without_deg[node]:
                    row.append(_mean(with_deg[node]) - _mean(without_deg[node]))
                else:
                    row.append(0.0)
            grid.append(row)
        return grid

    def hotspots(
        self, design: str, load: float, percent: float, counter: str = "deflections"
    ) -> List[List[float]]:
        """Mean per-router telemetry counter over the cell's sampled maps
        (``k x k``), e.g. where deflections or buffered events concentrate
        under faults.  Counters come from ``SimResult.per_router``."""
        rs = self._groups.get((design, load, percent), [])
        grid = [[0.0] * self.k for _ in range(self.k)]
        if not rs:
            return grid
        for r in rs:
            for node, counters in enumerate(r.result.per_router):
                grid[node // self.k][node % self.k] += counters.get(counter, 0)
        for row in grid:
            for x in range(self.k):
                row[x] /= len(rs)
        return grid

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        groups = [self.group(*cell).to_dict() for cell in self.cells]
        pairs = sorted({(d, ld) for d, ld, _ in self.cells})
        return {
            "threshold": self.threshold,
            "k": self.k,
            "records": len(self.records),
            "groups": groups,
            "criticality": {
                f"{d}@{ld:g}": self.criticality(d, ld) for d, ld in pairs
            },
            "yield_curves": {
                f"{d}@{ld:g}": {
                    f"{p:g}": y for p, y in self.yield_curve(d, ld).items()
                }
                for d, ld in pairs
            },
        }


def _dist_stats(columns: Sequence[Sequence[float]]) -> List[DistStats]:
    """:class:`DistStats` of equally long value columns, with one
    ``np.percentile`` call for all of them.

    Bit-exact with summarising each column on its own: a percentile along
    an axis applies the same interpolation to each row, and the mean of a
    contiguous row sums in the same order as the mean of a 1-D array.
    """
    arr = np.array([sorted(values) for values in columns], dtype=float)
    ps = np.percentile(arr, PERCENTILES, axis=1)
    means = arr.mean(axis=1)
    n = arr.shape[1]
    return [
        DistStats(
            n=n,
            mean=float(means[i]),
            min=float(row[0]),
            p5=float(ps[0, i]),
            p25=float(ps[1, i]),
            p50=float(ps[2, i]),
            p75=float(ps[3, i]),
            p95=float(ps[4, i]),
            max=float(row[-1]),
        )
        for i, row in enumerate(arr)
    ]


def _mean(values) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


def build_report(
    records: Sequence[ReliabilityRecord], *, k: int, threshold: float = 0.5
) -> ReliabilityReport:
    """Convenience constructor mirroring the campaign driver's call site."""
    return ReliabilityReport(records, k=k, threshold=threshold)


def render_reliability(report: ReliabilityReport, *, heatmaps: bool = True) -> str:
    """Human-readable report: one distribution table per (design, load),
    then criticality heatmaps (rendered with the shared ASCII heatmap)."""
    out: List[str] = []
    pairs = sorted({(d, ld) for d, ld, _ in report.cells})
    for design, load in pairs:
        out.append(f"== {design} @ load {load:g} (yield threshold "
                   f"{report.threshold:g}x baseline) ==")
        rows = []
        for d, ld, p in report.cells:
            if (d, ld) != (design, load):
                continue
            g = report.group(d, ld, p)
            tr = g.throughput_ratio
            lr = g.latency_ratio
            rows.append([
                f"{p:g}",
                g.maps,
                f"{g.throughput.p50:.4f}",
                f"{tr.p50:.3f}" if tr else "-",
                f"[{tr.p5:.3f},{tr.p95:.3f}]" if tr else "-",
                f"{lr.p50:.3f}" if lr else "-",
                f"{g.yield_fraction:.2f}" if g.yield_fraction is not None else "-",
            ])
        out.append(
            render_table(
                ["fault%", "maps", "tput p50", "tput ratio p50",
                 "tput ratio [p5,p95]", "lat ratio p50", "yield"],
                rows,
            )
        )
        if heatmaps:
            grid = report.criticality(design, load)
            if any(v != 0.0 for row in grid for v in row):
                out.append(
                    render_heatmap(
                        grid,
                        title=f"criticality {design} @ {load:g} "
                              f"(Δ degradation when faulty)",
                        floatfmt=".3f",
                    )
                )
        out.append("")
    return "\n".join(out).rstrip("\n")
