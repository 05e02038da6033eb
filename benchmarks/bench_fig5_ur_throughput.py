"""Fig 5: accepted vs offered load under uniform random traffic.

Sweeps all six designs across the load grid (Bernoulli injection, 8x8
mesh) and regenerates the throughput curves.

Shape targets (paper): DXbar DOR saturates highest, ~15-20% above
Buffered 8; DXbar WF close behind DOR; Buffered 4, Flit-BLESS and SCARAB
saturate earliest (DXbar ~40% above them).
"""

from repro.analysis.experiments import fig5, scale_from_env
from repro.analysis.metrics import peak_accepted


def test_fig5_ur_throughput(benchmark, record_figure, figure_root):
    scale = scale_from_env()
    fig = benchmark.pedantic(
        fig5, args=(scale,), kwargs={"root": figure_root}, rounds=1, iterations=1
    )
    record_figure(fig)

    peak = {label: peak_accepted(ys) for label, ys in fig.series.items()}
    # Who wins, by roughly what factor.
    assert peak["DXbar DOR"] > peak["Buffered 8"]
    assert peak["DXbar DOR"] > 1.25 * peak["Buffered 4"]
    assert peak["DXbar DOR"] > 1.25 * peak["Flit-Bless"]
    assert peak["DXbar DOR"] > 1.25 * peak["SCARAB"]
    assert peak["DXbar WF"] > peak["Buffered 4"]
    # Everyone tracks offered load before saturation.
    for label, ys in fig.series.items():
        assert abs(ys[0] - fig.x[0]) < 0.05, label
