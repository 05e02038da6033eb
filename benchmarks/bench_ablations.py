"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — these probe the knobs the paper fixed, each
a registered figure (``repro figure ablation_*``) with its own pinned
configs and seed:

* fairness-counter threshold (paper picked 4 "after testing with different
  traffic patterns");
* DXbar side-buffer depth (4 in Table III);
* dual-crossbar age arbitration vs the unified design's separable
  round-robin allocator;
* BIST detection delay (paper assumed 5 cycles).
"""

from repro.analysis.experiments import (
    ablation_allocator,
    ablation_depth,
    ablation_detection,
    ablation_fairness,
)


def run(benchmark, figure, root):
    return benchmark.pedantic(figure, kwargs={"root": root}, rounds=1, iterations=1)


def test_ablation_fairness_threshold(benchmark, record_figure, figure_root):
    fig = record_figure(run(benchmark, ablation_fairness, figure_root))
    # More aggressive flipping => more flips; throughput stays in a band.
    flips = fig.series["flips_per_kcycle"]
    assert flips[0] > flips[-1]


def test_ablation_buffer_depth(benchmark, record_figure, figure_root):
    fig = record_figure(run(benchmark, ablation_depth, figure_root))
    acc = fig.series["accepted"]
    assert acc[-1] >= acc[0]  # deeper buffers never hurt throughput


def test_ablation_dual_vs_unified_allocator(benchmark, record_figure, figure_root):
    fig = record_figure(run(benchmark, ablation_allocator, figure_root))
    acc = dict(zip(fig.x, fig.series["accepted"]))
    # The unified design provides at least comparable performance (the
    # paper: "consistently better performance ... due to full connectivity").
    assert acc["unified_dor"] >= 0.9 * acc["dxbar_dor"]
    swaps = dict(zip(fig.x, fig.series["swaps_per_kcycle"]))
    assert swaps["unified_dor"] > 0  # the conflict-free logic is exercised


def test_ablation_detection_delay(benchmark, record_figure, figure_root):
    fig = record_figure(run(benchmark, ablation_detection, figure_root))
    assert all(v > 0 for v in fig.series["accepted"])
