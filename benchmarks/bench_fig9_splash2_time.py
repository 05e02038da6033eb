"""Fig 9: normalized execution time of the SPLASH-2 traces.

Generates a synthetic cache-coherence trace per application (the
full-system-simulator substitution in DESIGN.md) and replays it on every
design; execution time is normalised to Buffered 4.

Shape targets (paper): DXbar at or near the best execution time on most
traces; the bufferless designs keep up and may edge ahead on some traces
(the paper itself concedes FFT to them).
"""

from repro.analysis.experiments import fig9, scale_from_env
from repro.analysis.metrics import geometric_mean


def test_fig9_splash2_time(benchmark, record_figure, figure_root):
    scale = scale_from_env()
    fig = benchmark.pedantic(
        fig9, args=(scale,), kwargs={"root": figure_root}, rounds=1, iterations=1
    )
    record_figure(fig)

    gmean = {label: geometric_mean(ys) for label, ys in fig.series.items()}
    # DXbar beats both buffered baselines overall.
    assert gmean["DXbar DOR"] < gmean["Buffered 4"]
    assert gmean["DXbar DOR"] < gmean["Buffered 8"] * 1.02
    # And never loses badly on any single trace.
    for i, app in enumerate(fig.x):
        assert fig.series["DXbar DOR"][i] <= 1.05, app
