"""Per-figure experiment drivers.

One function per table/figure of the paper's evaluation (Section III).
Each returns a :class:`~repro.analysis.report.FigureResult` whose series
carry the same labels the paper plots.

Every driver expands its simulation grid into
:class:`~repro.runner.RunSpec` jobs and executes them through
:func:`repro.runner.run_specs`, so all of them accept ``jobs`` (process
parallelism) and ``root``, a figure run directory (the CLI's ``--root``).
With a root, cells are cached under ``<root>/cache`` and journaled under
``<root>/journal`` (:func:`repro.runner.rundir.run_paths`), so ``repro
status <root>`` shows each one as executed, cached or retried, and a
killed run resumes by being re-run.  Figures that share simulations (5/6,
7/8, 9/10, 11/12) hit the same config-hash keys and run them once when
they share a root; without a root nothing is kept.

Runtime is controlled by an :class:`ExperimentScale`; the ``REPRO_SCALE``
environment variable (``quick`` / ``default`` / ``full``) selects a preset
when the caller does not pass one explicitly, and ``REPRO_JOBS`` sets the
default worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..designs import DESIGN_LABELS, PAPER_DESIGNS
from ..energy.area import design_area
from ..energy.constants import DESIGN_ENERGY
from ..runner import RunSpec, run_specs
from ..runner.executor import results_of
from ..runner.rundir import run_paths
from ..runner.spec import materialize_workload
from ..sim.config import FaultConfig, SimConfig
from ..sim.stats import SimResult
from ..traffic.patterns import pattern_names
from ..traffic.splash2 import splash2_app_names
from .report import FigureResult
from .sweep import SweepResult, design_grid

#: A figure run directory, or None to keep nothing.
Root = Optional[Union[str, Path]]


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


def _run_grid(
    specs: List[RunSpec],
    jobs: Optional[int],
    root: Root,
    progress=None,
) -> List[SimResult]:
    """Run figure cells, each on its fastest bit-exact backend (the
    figure drivers own their configs and never pick one).  The ``auto``
    rule reads each cell's workload: ``k**2 * offered_load`` for the
    open-loop cells, the replayed trace's flits per cycle for SPLASH-2."""
    specs = [
        replace(s, config=s.config.with_(backend=s.config.fastest_backend(
            materialize_workload(s.workload, s.config)
        )))
        for s in specs
    ]
    cache = journal = None
    if root is not None:
        cache, journal = run_paths(root)
    outcomes = run_specs(
        specs,
        jobs=_resolve_jobs(jobs),
        cache=cache,
        journal=journal,
        progress=progress,
    )
    return results_of(outcomes, "experiment jobs")


def _base_config(scale: ExperimentScale) -> SimConfig:
    return SimConfig(
        warmup_cycles=scale.warmup,
        measure_cycles=scale.measure,
        drain_cycles=scale.drain,
        seed=scale.seed,
    )


# ----------------------------------------------------------------------
# Table III — area and energy
# ----------------------------------------------------------------------
def table3() -> FigureResult:
    """Area and per-event energy for the six designs (Table III)."""
    designs = ("flit_bless", "scarab", "buffered4", "buffered8", "dxbar", "unified")
    labels = {
        "flit_bless": "Flit-Bless",
        "scarab": "SCARAB",
        "buffered4": "Buffered 4",
        "buffered8": "Buffered 8",
        "dxbar": "DXbar",
        "unified": "Unified Xbar",
    }
    area, buf_e, xbar_e = [], [], []
    for d in designs:
        area.append(design_area(d).total)
        ec = DESIGN_ENERGY[d]
        buf_e.append(ec.buffer_pj)
        xbar_e.append(ec.xbar_pj)
    return FigureResult(
        exp_id="table3",
        title="Area and energy estimation for 65 nm, 1.0 V, 1 GHz",
        x_label="design",
        x=[labels[d] for d in designs],
        series={
            "area_mm2": area,
            "buffer_energy_pj_per_flit": buf_e,
            "xbar_energy_pj_per_flit": xbar_e,
        },
        notes=[
            "absolute areas solved from the paper's stated ratios "
            "(OCR dropped the table values); see repro/energy/area.py",
        ],
    )


# ----------------------------------------------------------------------
# Figs 5 & 6 — uniform-random load sweep
# ----------------------------------------------------------------------
def _ur_sweep(
    scale: ExperimentScale, jobs=None, root: Root = None, progress=None
) -> Dict[str, SweepResult]:
    return design_grid(
        PAPER_DESIGNS,
        scale.loads,
        _base_config(scale),
        lambda specs: _run_grid(specs, jobs, root, progress),
        pattern="UR",
    )


def fig5(
    scale: Optional[ExperimentScale] = None,
    *,
    jobs: Optional[int] = None,
    root: Root = None,
    progress=None,
) -> FigureResult:
    """Fig 5: accepted vs offered load, uniform random."""
    scale = scale or scale_from_env()
    runs = _ur_sweep(scale, jobs, root, progress)
    return FigureResult(
        exp_id="fig5",
        title="Throughput of Uniform Random traffic pattern",
        x_label="offered_load",
        x=list(scale.loads),
        series={DESIGN_LABELS[d]: runs[d].accepted for d in PAPER_DESIGNS},
    )


def fig6(
    scale: Optional[ExperimentScale] = None,
    *,
    jobs: Optional[int] = None,
    root: Root = None,
    progress=None,
) -> FigureResult:
    """Fig 6: average energy (nJ/packet) vs offered load, uniform random."""
    scale = scale or scale_from_env()
    runs = _ur_sweep(scale, jobs, root, progress)
    return FigureResult(
        exp_id="fig6",
        title="Power of Uniform Random traffic pattern",
        x_label="offered_load",
        x=list(scale.loads),
        series={DESIGN_LABELS[d]: runs[d].energy_per_packet for d in PAPER_DESIGNS},
    )


# ----------------------------------------------------------------------
# Figs 7 & 8 — all synthetic patterns at offered load 0.5
# ----------------------------------------------------------------------
def _synthetic_half(
    scale: ExperimentScale, jobs=None, root: Root = None, progress=None
) -> Dict[str, Dict[str, SimResult]]:
    base = _base_config(scale)
    patterns = list(pattern_names())
    specs = [
        RunSpec(base.with_(design=design, pattern=p, offered_load=0.5), tag=design)
        for design in PAPER_DESIGNS
        for p in patterns
    ]
    results = _run_grid(specs, jobs, root, progress)
    n = len(patterns)
    return {
        design: dict(zip(patterns, results[i * n : (i + 1) * n]))
        for i, design in enumerate(PAPER_DESIGNS)
    }


def fig7(
    scale: Optional[ExperimentScale] = None,
    *,
    jobs: Optional[int] = None,
    root: Root = None,
    progress=None,
) -> FigureResult:
    """Fig 7: throughput at offered load 0.5 for all synthetic traces."""
    scale = scale or scale_from_env()
    runs = _synthetic_half(scale, jobs, root, progress)
    return FigureResult(
        exp_id="fig7",
        title="Throughput at offered load = 0.5 of all synthetic traces",
        x_label="pattern",
        x=list(pattern_names()),
        series={
            DESIGN_LABELS[d]: [runs[d][p].accepted_load for p in pattern_names()]
            for d in PAPER_DESIGNS
        },
    )


def fig8(
    scale: Optional[ExperimentScale] = None,
    *,
    jobs: Optional[int] = None,
    root: Root = None,
    progress=None,
) -> FigureResult:
    """Fig 8: energy at offered load 0.5 for all synthetic traces."""
    scale = scale or scale_from_env()
    runs = _synthetic_half(scale, jobs, root, progress)
    return FigureResult(
        exp_id="fig8",
        title="Energy consumed at offered load = 0.5 of all synthetic traces",
        x_label="pattern",
        x=list(pattern_names()),
        series={
            DESIGN_LABELS[d]: [runs[d][p].energy_per_packet_nj for p in pattern_names()]
            for d in PAPER_DESIGNS
        },
    )


# ----------------------------------------------------------------------
# Figs 9 & 10 — SPLASH-2 trace replay
# ----------------------------------------------------------------------
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


def _splash_runs(
    scale: ExperimentScale, jobs=None, root: Root = None, progress=None
) -> Dict[str, Dict[str, SimResult]]:
    apps = list(splash2_app_names())
    specs = [splash_cell(scale, app, design) for app in apps for design in PAPER_DESIGNS]
    results = _run_grid(specs, jobs, root, progress)
    n = len(PAPER_DESIGNS)
    return {
        app: dict(zip(PAPER_DESIGNS, results[i * n : (i + 1) * n]))
        for i, app in enumerate(apps)
    }


def fig9(
    scale: Optional[ExperimentScale] = None,
    *,
    jobs: Optional[int] = None,
    root: Root = None,
    progress=None,
) -> FigureResult:
    """Fig 9: normalized execution time of all SPLASH-2 traces
    (normalised to Buffered 4, as the tallest baseline bar)."""
    scale = scale or scale_from_env()
    runs = _splash_runs(scale, jobs, root, progress)
    apps = list(splash2_app_names())
    series = {}
    for d in PAPER_DESIGNS:
        series[DESIGN_LABELS[d]] = [
            runs[a][d].final_cycle / runs[a]["buffered4"].final_cycle for a in apps
        ]
    return FigureResult(
        exp_id="fig9",
        title="Normalized time of simulation of all SPLASH-2 traces",
        x_label="app",
        x=apps,
        series=series,
        notes=["execution time normalised to Buffered 4"],
    )


def fig10(
    scale: Optional[ExperimentScale] = None,
    *,
    jobs: Optional[int] = None,
    root: Root = None,
    progress=None,
) -> FigureResult:
    """Fig 10: energy consumed (nJ/packet) of all SPLASH-2 traces."""
    scale = scale or scale_from_env()
    runs = _splash_runs(scale, jobs, root, progress)
    apps = list(splash2_app_names())
    return FigureResult(
        exp_id="fig10",
        title="Energy consumed of all SPLASH-2 traces",
        x_label="app",
        x=apps,
        series={
            DESIGN_LABELS[d]: [runs[a][d].energy_per_packet_nj for a in apps]
            for d in PAPER_DESIGNS
        },
    )


# ----------------------------------------------------------------------
# Figs 11 & 12 — crossbar faults
# ----------------------------------------------------------------------
def _fault_grid(
    scale: ExperimentScale, jobs=None, root: Root = None, progress=None
) -> Dict[Tuple[str, float, float], SimResult]:
    base = _base_config(scale)
    keys = [
        (design, pct, load)
        for design in ("dxbar_dor", "dxbar_wf")
        for pct in scale.fault_percents
        for load in scale.fault_loads
    ]
    specs = [
        RunSpec(
            base.with_(
                design=design,
                pattern="UR",
                offered_load=load,
                faults=FaultConfig(percent=pct, manifest_window=max(1, scale.warmup)),
            ),
            tag=f"{design}@{pct:.0f}%",
        )
        for design, pct, load in keys
    ]
    results = _run_grid(specs, jobs, root, progress)
    return dict(zip(keys, results))


def _fault_fig(
    scale: ExperimentScale,
    metric: str,
    exp_id: str,
    title: str,
    jobs=None,
    root: Root = None,
    progress=None,
) -> FigureResult:
    grid = _fault_grid(scale, jobs, root, progress)
    load = max(scale.fault_loads)  # the paper discusses high-load behaviour
    series = {}
    for design in ("dxbar_dor", "dxbar_wf"):
        ys = []
        for pct in scale.fault_percents:
            r = grid[(design, pct, load)]
            ys.append(getattr(r, metric) if metric != "energy" else r.energy_per_packet_nj)
        series[DESIGN_LABELS[design]] = ys
    return FigureResult(
        exp_id=exp_id,
        title=title,
        x_label="fault_percent",
        x=list(scale.fault_percents),
        series=series,
        notes=[f"uniform random traffic at offered load {load}"],
    )


def fig11(
    scale: Optional[ExperimentScale] = None,
    *,
    jobs: Optional[int] = None,
    root: Root = None,
    progress=None,
) -> FigureResult:
    """Fig 11: throughput under increasing crossbar faults (DOR vs WF)."""
    scale = scale or scale_from_env()
    return _fault_fig(
        scale,
        "accepted_load",
        "fig11",
        "Throughput with varying percentage of router crossbar faults",
        jobs,
        root,
        progress,
    )


def fig11_latency(
    scale: Optional[ExperimentScale] = None,
    *,
    jobs: Optional[int] = None,
    root: Root = None,
    progress=None,
) -> FigureResult:
    """Fig 11(c): average latency under increasing crossbar faults."""
    scale = scale or scale_from_env()
    return _fault_fig(
        scale,
        "avg_flit_latency",
        "fig11c",
        "Latency with varying percentage of router crossbar faults",
        jobs,
        root,
        progress,
    )


def fig12(
    scale: Optional[ExperimentScale] = None,
    *,
    jobs: Optional[int] = None,
    root: Root = None,
    progress=None,
) -> FigureResult:
    """Fig 12: power (nJ/packet) under increasing crossbar faults."""
    scale = scale or scale_from_env()
    return _fault_fig(
        scale,
        "energy",
        "fig12",
        "Power consumed with varying percentage of router crossbar faults",
        jobs,
        root,
        progress,
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
    grid = _fault_grid(scale, jobs, root, progress)
    out = {}
    for design in ("dxbar_dor", "dxbar_wf"):
        series = {
            f"faults {pct:.0f}%": [
                grid[(design, pct, load)].accepted_load for load in scale.fault_loads
            ]
            for pct in scale.fault_percents
        }
        out[design] = FigureResult(
            exp_id=f"fig11_{design}",
            title=f"Throughput vs offered load under faults ({DESIGN_LABELS[design]})",
            x_label="offered_load",
            x=list(scale.fault_loads),
            series=series,
        )
    return out


#: Registry used by the benchmark harness and EXPERIMENTS.md generator.
ALL_EXPERIMENTS = {
    "table3": table3,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig11c": fig11_latency,
    "fig12": fig12,
}
