"""Per-figure experiment drivers.

Every reproduced table and figure — the paper's (Section III) and the
ablations, extensions and mesh-scaling study beyond it — is a
:class:`Figure` record in :data:`ALL_EXPERIMENTS`: its id, title and x
label, the simulation grid it reads, and how it turns that grid's cell
results into the plotted x axis and series.  One driver,
:meth:`Figure.__call__`, serves them all and returns a
:class:`~repro.analysis.report.FigureResult` whose series carry the same
labels the paper plots.

The driver expands a figure's grid into :class:`~repro.runner.RunSpec`
jobs and executes them through :func:`repro.runner.run_specs`, so every
figure accepts ``jobs`` (process parallelism) and ``root``, a figure run
directory (the CLI's ``--root``).  With a root, cells are cached under
``<root>/cache`` and journaled under ``<root>/journal``
(:func:`repro.runner.rundir.run_paths`), so ``repro status <root>`` shows
each one as executed, cached or retried, and a killed run resumes by
being re-run.  Figures that share a grid (5/6, 7/8, 9/10, 11/12, the two
scaling figures) hit the same config-hash keys and run them once when they
share a root; without a root nothing is kept.

The paper's figures size themselves from an :class:`ExperimentScale`; the
``REPRO_SCALE`` environment variable (``quick`` / ``default`` / ``full``)
selects a preset when the caller does not pass one explicitly, and
``REPRO_JOBS`` sets the default worker count.  Table III and the
ablation, extension and scaling figures pin their own configs and seeds
(``scaled=False``) and never read a scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..designs import DESIGN_LABELS, PAPER_DESIGNS
from ..energy.area import design_area
from ..energy.constants import DESIGN_ENERGY
from ..runner import RunSpec, run_specs
from ..runner.executor import results_of
from ..runner.spec import materialize_workload
from ..sim.config import FaultConfig, SimConfig
from ..sim.stats import SimResult
from ..traffic.patterns import pattern_names
from ..traffic.splash2 import splash2_app_names
from .report import FigureResult

#: A figure run directory, or None to keep nothing.
Root = Optional[Union[str, Path]]

#: A figure's simulation grid: cell key -> job.
Grid = Dict[Hashable, RunSpec]

#: The grid's results: cell key -> result.
Cells = Dict[Hashable, SimResult]

#: A figure's plotted series: label -> one value per x.
Series = Dict[str, List]


@dataclass(frozen=True)
class ExperimentScale:
    """Simulation sizes for the experiment harness."""

    warmup: int = 500
    measure: int = 2000
    drain: int = 10000
    loads: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    fault_loads: Tuple[float, ...] = (0.1, 0.3, 0.5, 0.7)
    fault_percents: Tuple[float, ...] = (0.0, 25.0, 50.0, 75.0, 100.0)
    txns_per_core: int = 60
    seed: int = 3
    max_trace_cycles: int = 600_000


SCALES: Dict[str, ExperimentScale] = {
    "quick": ExperimentScale(
        warmup=300,
        measure=900,
        drain=8000,
        loads=(0.1, 0.3, 0.5, 0.7, 0.9),
        fault_loads=(0.3, 0.5),
        fault_percents=(0.0, 50.0, 100.0),
        txns_per_core=30,
    ),
    "default": ExperimentScale(),
    "full": ExperimentScale(warmup=1000, measure=4000, drain=20000, txns_per_core=150),
}


def scale_from_env(default: str = "quick") -> ExperimentScale:
    """Pick the preset named by ``REPRO_SCALE`` (or ``default``)."""
    name = os.environ.get("REPRO_SCALE", default)
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(f"REPRO_SCALE must be one of {sorted(SCALES)}, got {name!r}")


def _resolve_jobs(jobs: Optional[int]) -> int:
    if jobs is not None:
        return jobs
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"REPRO_JOBS must be an integer, got {raw!r}") from None


def _run_grid(grid: Grid, jobs: Optional[int], root: Root, progress=None) -> Cells:
    """Run figure cells, each on its fastest bit-exact backend (the
    figures own their configs and never pick one).  The ``auto`` rule
    reads each cell's workload: ``k**2 * offered_load`` for the open-loop
    cells, the replayed trace's flits per cycle for SPLASH-2."""
    specs = [
        replace(s, config=s.config.with_(backend=s.config.fastest_backend(
            materialize_workload(s.workload, s.config)
        )))
        for s in grid.values()
    ]
    outcomes = run_specs(specs, jobs=_resolve_jobs(jobs), root=root, progress=progress)
    return dict(zip(grid, results_of(outcomes, "experiment jobs")))


@dataclass(frozen=True)
class Figure:
    """One reproduced table or figure, as data.

    ``grid`` builds the keyed cells the figure reads (None for an
    analytic table); figures sharing a grid function share its cells
    through a root's cache.  ``series`` turns the cell results into the x
    axis and the series; ``notes`` adds footnotes.  A figure with
    ``scaled=False`` pins its own configs and seeds: it is handed no scale
    and ``--scale`` does not change it.
    """

    exp_id: str
    title: str
    x_label: str
    grid: Optional[Callable[[Optional[ExperimentScale]], Grid]]
    series: Callable[[Optional[ExperimentScale], Cells], Tuple[list, Series]]
    notes: Callable[[Optional[ExperimentScale]], List[str]] = lambda scale: []
    scaled: bool = True

    def __call__(
        self,
        scale: Optional[ExperimentScale] = None,
        *,
        jobs: Optional[int] = None,
        root: Root = None,
        progress=None,
    ) -> FigureResult:
        scale = (scale or scale_from_env()) if self.scaled else None
        cells = _run_grid(self.grid(scale), jobs, root, progress) if self.grid else {}
        x, series = self.series(scale, cells)
        return FigureResult(
            self.exp_id, self.title, self.x_label, x, series, self.notes(scale)
        )


# ----------------------------------------------------------------------
# cells -> series
# ----------------------------------------------------------------------
_ACCEPTED = attrgetter("accepted_load")
_LATENCY = attrgetter("avg_flit_latency")
_ENERGY = attrgetter("energy_per_packet_nj")


def _table(
    cells: Cells,
    metric: Callable[[SimResult], float],
    label: Callable[[Hashable], str] = DESIGN_LABELS.__getitem__,
) -> Tuple[list, Series]:
    """Cells keyed ``(row, x)`` as one series per row (named by
    ``label``) of ``metric`` at every x, both in first-seen order."""
    rows = list(dict.fromkeys(r for r, _ in cells))
    xs = list(dict.fromkeys(x for _, x in cells))
    return xs, {label(r): [metric(cells[r, x]) for x in xs] for r in rows}


def _per_design(metric: Callable[[SimResult], float]):
    return lambda scale, cells: _table(cells, metric)


def _columns(**metrics: Callable[[SimResult], float]):
    """Cells keyed by x value, one series per named metric."""
    return lambda scale, cells: (
        list(cells),
        {name: [m(r) for r in cells.values()] for name, m in metrics.items()},
    )


# ----------------------------------------------------------------------
# Table III — area and energy
# ----------------------------------------------------------------------
_TABLE3_LABELS = {
    "flit_bless": "Flit-Bless",
    "scarab": "SCARAB",
    "buffered4": "Buffered 4",
    "buffered8": "Buffered 8",
    "dxbar": "DXbar",
    "unified": "Unified Xbar",
}


def _table3_series(scale, cells) -> Tuple[list, Series]:
    designs = list(_TABLE3_LABELS)
    return [_TABLE3_LABELS[d] for d in designs], {
        "area_mm2": [design_area(d).total for d in designs],
        "buffer_energy_pj_per_flit": [DESIGN_ENERGY[d].buffer_pj for d in designs],
        "xbar_energy_pj_per_flit": [DESIGN_ENERGY[d].xbar_pj for d in designs],
    }


table3 = Figure(
    "table3",
    "Area and energy estimation for 65 nm, 1.0 V, 1 GHz",
    "design",
    grid=None,
    series=_table3_series,
    notes=lambda scale: [
        "absolute areas solved from the paper's stated ratios "
        "(OCR dropped the table values); see repro/energy/area.py",
    ],
    scaled=False,
)


# ----------------------------------------------------------------------
# The paper's figures: grids sized by the scale
# ----------------------------------------------------------------------
def _base_config(scale: ExperimentScale) -> SimConfig:
    return SimConfig(
        warmup_cycles=scale.warmup,
        measure_cycles=scale.measure,
        drain_cycles=scale.drain,
        seed=scale.seed,
    )


def _ur_sweep(scale: ExperimentScale) -> Grid:
    """Figs. 5/6: every paper design across the uniform-random loads."""
    base = _base_config(scale)
    return {
        (d, load): RunSpec(base.with_(design=d, offered_load=load, pattern="UR"), tag=d)
        for d in PAPER_DESIGNS
        for load in scale.loads
    }


def _synthetic_half(scale: ExperimentScale) -> Grid:
    """Figs. 7/8: every paper design on every synthetic pattern at 0.5."""
    base = _base_config(scale)
    return {
        (d, p): RunSpec(base.with_(design=d, pattern=p, offered_load=0.5), tag=d)
        for d in PAPER_DESIGNS
        for p in pattern_names()
    }


def splash_cell(scale: ExperimentScale, app: str, design: str) -> RunSpec:
    """The Figs. 9/10 cell replaying SPLASH-2 ``app`` on ``design``."""
    workload = {
        "kind": "splash2",
        "app": app,
        "txns_per_core": scale.txns_per_core,
        "seed": scale.seed + 100,
    }
    cfg = SimConfig(
        design=design,
        warmup_cycles=0,
        measure_cycles=1,
        drain_cycles=0,
        seed=scale.seed,
        max_cycles=scale.max_trace_cycles,
    )
    return RunSpec(cfg, workload=workload, tag=f"{app}/{design}")


def _splash_runs(scale: ExperimentScale) -> Grid:
    """Figs. 9/10: every SPLASH-2 trace replayed on every paper design."""
    return {
        (d, app): splash_cell(scale, app, d)
        for app in splash2_app_names()
        for d in PAPER_DESIGNS
    }


def _normalised_time(scale, cells) -> Tuple[list, Series]:
    apps, cycles = _table(cells, attrgetter("final_cycle"))
    base = cycles[DESIGN_LABELS["buffered4"]]
    return apps, {label: [c / b for c, b in zip(ys, base)] for label, ys in cycles.items()}


_FAULT_DESIGNS = ("dxbar_dor", "dxbar_wf")


def _fault_grid(scale: ExperimentScale) -> Grid:
    """Figs. 11/12: DXbar DOR and WF across fault percentages and loads."""
    base = _base_config(scale)
    return {
        (design, pct, load): RunSpec(
            base.with_(
                design=design,
                pattern="UR",
                offered_load=load,
                faults=FaultConfig(percent=pct, manifest_window=max(1, scale.warmup)),
            ),
            tag=f"{design}@{pct:.0f}%",
        )
        for design in _FAULT_DESIGNS
        for pct in scale.fault_percents
        for load in scale.fault_loads
    }


def _at_high_load(metric: Callable[[SimResult], float]):
    """Fault figures plot fault percent at the highest fault load (the
    paper discusses high-load behaviour)."""
    def series(scale, cells):
        load = max(scale.fault_loads)
        return _table({(d, p): r for (d, p, lo), r in cells.items() if lo == load}, metric)
    return series


def _fault_note(scale: ExperimentScale) -> List[str]:
    return [f"uniform random traffic at offered load {max(scale.fault_loads)}"]


fig5 = Figure(
    "fig5", "Throughput of Uniform Random traffic pattern", "offered_load",
    _ur_sweep, _per_design(_ACCEPTED),
)
fig6 = Figure(
    "fig6", "Power of Uniform Random traffic pattern", "offered_load",
    _ur_sweep, _per_design(_ENERGY),
)
fig7 = Figure(
    "fig7", "Throughput at offered load = 0.5 of all synthetic traces", "pattern",
    _synthetic_half, _per_design(_ACCEPTED),
)
fig8 = Figure(
    "fig8", "Energy consumed at offered load = 0.5 of all synthetic traces", "pattern",
    _synthetic_half, _per_design(_ENERGY),
)
fig9 = Figure(
    "fig9", "Normalized time of simulation of all SPLASH-2 traces", "app",
    _splash_runs, _normalised_time,
    notes=lambda scale: ["execution time normalised to Buffered 4"],
)
fig10 = Figure(
    "fig10", "Energy consumed of all SPLASH-2 traces", "app",
    _splash_runs, _per_design(_ENERGY),
)
fig11 = Figure(
    "fig11", "Throughput with varying percentage of router crossbar faults",
    "fault_percent", _fault_grid, _at_high_load(_ACCEPTED), notes=_fault_note,
)
fig11_latency = Figure(
    "fig11c", "Latency with varying percentage of router crossbar faults",
    "fault_percent", _fault_grid, _at_high_load(_LATENCY), notes=_fault_note,
)
fig12 = Figure(
    "fig12", "Power consumed with varying percentage of router crossbar faults",
    "fault_percent", _fault_grid, _at_high_load(_ENERGY), notes=_fault_note,
)


def fault_load_curves(
    scale: Optional[ExperimentScale] = None,
    *,
    jobs: Optional[int] = None,
    root: Root = None,
    progress=None,
) -> Dict[str, FigureResult]:
    """Fig 11(a-b) companion: full accepted-vs-offered curves per fault
    percentage, one FigureResult per design."""
    scale = scale or scale_from_env()
    cells = _run_grid(_fault_grid(scale), jobs, root, progress)
    out = {}
    for design in _FAULT_DESIGNS:
        x, series = _table(
            {(p, lo): r for (d, p, lo), r in cells.items() if d == design},
            _ACCEPTED,
            label=lambda pct: f"faults {pct:.0f}%",
        )
        out[design] = FigureResult(
            exp_id=f"fig11_{design}",
            title=f"Throughput vs offered load under faults ({DESIGN_LABELS[design]})",
            x_label="offered_load",
            x=x,
            series=series,
        )
    return out


# ----------------------------------------------------------------------
# Ablations: the knobs the paper fixed (fairness threshold 4, side-buffer
# depth 4, dual vs unified crossbar, 5-cycle BIST detection), each swept
# alone around DXbar DOR at UR 0.5.
# ----------------------------------------------------------------------
_ABLATION = SimConfig(
    design="dxbar_dor",
    pattern="UR",
    offered_load=0.5,
    warmup_cycles=300,
    measure_cycles=900,
    drain_cycles=0,
    seed=17,
)


def _knob_grid(name: str, values: Sequence, overrides: Callable[[Any], dict]) -> Grid:
    """One ablation cell per value, keyed by the value and tagged
    ``name=value``; ``overrides`` maps a value to its config fields."""
    return {
        v: RunSpec(_ABLATION.with_(**overrides(v)), tag=f"{name}={v}") for v in values
    }


def _per_kcycle(count: str) -> Callable[[SimResult], float]:
    """Router events per thousand cycles per router, on the 8x8 mesh."""
    return lambda r: 1000.0 * getattr(r, count) / (64 * _ABLATION.total_cycles)


ablation_fairness = Figure(
    "ablation_fairness", "DXbar fairness threshold sweep (UR @ 0.5)", "threshold",
    lambda _: _knob_grid("threshold", (1, 2, 4, 8, 32), lambda t: {"fairness_threshold": t}),
    _columns(
        accepted=_ACCEPTED, latency=_LATENCY, flips_per_kcycle=_per_kcycle("fairness_flips")
    ),
    scaled=False,
)
ablation_depth = Figure(
    "ablation_depth", "DXbar side-buffer depth sweep (UR @ 0.5)", "depth",
    lambda _: _knob_grid("depth", (2, 4, 8, 16), lambda d: {"buffer_depth": d}),
    _columns(
        accepted=_ACCEPTED, latency=_LATENCY, buffered_fraction=attrgetter("buffered_fraction")
    ),
    scaled=False,
)
ablation_allocator = Figure(
    "ablation_allocator", "Dual crossbar vs unified dual-input crossbar (UR @ 0.5)",
    "design",
    lambda _: _knob_grid(
        "design", ("dxbar_dor", "unified_dor", "dxbar_wf", "unified_wf"), lambda d: {"design": d}
    ),
    _columns(
        accepted=_ACCEPTED,
        energy_nj_per_pkt=_ENERGY,
        swaps_per_kcycle=_per_kcycle("allocator_swaps"),
    ),
    scaled=False,
)
ablation_detection = Figure(
    "ablation_detection", "BIST detection delay sweep at 100% faults (UR @ 0.5)",
    "detection_cycles",
    lambda _: _knob_grid(
        "detection",
        (0, 5, 20, 80),
        lambda d: {"faults": FaultConfig(percent=100, detection_cycles=d, manifest_window=250)},
    ),
    _columns(accepted=_ACCEPTED, latency=_LATENCY),
    scaled=False,
)


# ----------------------------------------------------------------------
# Extensions beyond the paper's evaluation
# ----------------------------------------------------------------------
_EXTENSION = SimConfig(
    pattern="UR", warmup_cycles=300, measure_cycles=900, drain_cycles=8000, seed=23
)


def _afc_grid(_) -> Grid:
    """AFC mode-switching against DXbar and the endpoints it interpolates."""
    return {
        (d, load): RunSpec(_EXTENSION.with_(design=d, offered_load=load), tag=d)
        for load in (0.1, 0.3, 0.5, 0.7)
        for d in ("flit_bless", "buffered4", "afc", "dxbar_dor")
    }


def _afc_series(scale, cells) -> Tuple[list, Series]:
    loads, acc = _table(cells, _ACCEPTED)
    _, energy = _table(cells, _ENERGY)
    return loads, {
        **{f"acc {k}": v for k, v in acc.items()},
        **{f"nJ {k}": v for k, v in energy.items()},
    }


def _crosspoint_grid(_) -> Grid:
    """Per-crosspoint failures, masked by the allocator, at UR 0.4."""
    return {
        (d, pct): RunSpec(
            _EXTENSION.with_(
                design=d,
                offered_load=0.4,
                faults=FaultConfig(percent=pct, granularity="crosspoint", manifest_window=250),
            ),
            tag=f"{d}@{pct:.0f}%",
        )
        for d in _FAULT_DESIGNS
        for pct in (0.0, 50.0, 100.0)
    }


def scaling_grid(
    designs: Sequence[str], radices: Sequence[int], offered_load: float, base: SimConfig
) -> Grid:
    """Every design at every mesh radix under UR at ``offered_load``, keyed
    ``(design, k)``.  The load stays below every radix's saturation, so
    the comparison is the per-hop pipeline and energy story, not capacity
    (capacity per node falls as the mesh grows)."""
    return {
        (d, k): RunSpec(
            base.with_(design=d, k=k, offered_load=offered_load, pattern="UR"),
            tag=f"{d}@k{k}",
        )
        for k in radices
        for d in designs
    }


def _scaling_cells(_) -> Grid:
    return scaling_grid(
        ("buffered4", "dxbar_dor", "flit_bless"),
        (4, 6, 8),
        0.12,
        SimConfig(warmup_cycles=300, measure_cycles=700, drain_cycles=4000, seed=5),
    )


ext_afc = Figure(
    "ext_afc", "AFC mode-switching vs DXbar (UR sweep)", "offered_load",
    _afc_grid, _afc_series, scaled=False,
)
ext_crosspoint = Figure(
    "ext_crosspoint", "Crosspoint-granularity faults (UR @ 0.4)", "fault_percent",
    _crosspoint_grid, lambda scale, cells: _table(cells, _ACCEPTED, label=str),
    scaled=False,
)
scaling_latency = Figure(
    "scaling_latency", "Average latency vs mesh radix (UR @ 0.12)", "radix",
    _scaling_cells, _per_design(_LATENCY), scaled=False,
)
scaling_energy = Figure(
    "scaling_energy", "Energy per packet vs mesh radix (UR @ 0.12)", "radix",
    _scaling_cells, _per_design(_ENERGY), scaled=False,
)


#: Every figure by id: the CLI's ``repro figure NAME``, the benchmark
#: harness and the EXPERIMENTS.md generator read this.
ALL_EXPERIMENTS: Dict[str, Figure] = {
    f.exp_id: f
    for f in (
        table3, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig11_latency, fig12,
        ablation_fairness, ablation_depth, ablation_allocator, ablation_detection,
        ext_afc, ext_crosspoint, scaling_latency, scaling_energy,
    )
}
