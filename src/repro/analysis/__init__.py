"""Experiment harness: sweeps, metrics, per-figure drivers, renderers."""

from .fairness import FairnessReport, fairness_ablation, injection_fairness, jain_index
from .experiments import (
    ALL_EXPERIMENTS,
    SCALES,
    ExperimentScale,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig11_latency,
    fig12,
    fault_load_curves,
    scale_from_env,
    table3,
)
from .metrics import (
    geometric_mean,
    improvement,
    normalize,
    peak_accepted,
    saturation_point,
)
from .report import (
    FigureResult,
    render_figure,
    render_heatmap,
    render_sparkline,
    render_table,
)
from .scaling import scaling_study
from .stats import Comparison, MetricSummary, compare, replicate
from .sweep import SweepResult, sweep_designs, sweep_loads

__all__ = [
    "ALL_EXPERIMENTS",
    "SCALES",
    "ExperimentScale",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig11_latency",
    "fig12",
    "fault_load_curves",
    "scale_from_env",
    "table3",
    "geometric_mean",
    "improvement",
    "normalize",
    "peak_accepted",
    "saturation_point",
    "FigureResult",
    "render_figure",
    "render_heatmap",
    "render_sparkline",
    "render_table",
    "SweepResult",
    "sweep_designs",
    "sweep_loads",
    "scaling_study",
    "FairnessReport",
    "fairness_ablation",
    "injection_fairness",
    "jain_index",
    "Comparison",
    "MetricSummary",
    "compare",
    "replicate",
]
