"""Fig 12: power consumed with varying percentages of crossbar faults.

Shares the Fig 11 fault grid through the session figure root.

Shape target (paper): "the common trend is the increase in power
consumption as more packets are buffered" — energy per packet grows
monotonically-ish with the fault percentage for both routing algorithms.
"""

from repro.analysis.experiments import fig11, fig12, scale_from_env


def test_fig12_fault_power(benchmark, record_figure, figure_root):
    scale = scale_from_env()
    fig11(scale, root=figure_root)  # warm the shared fault grid outside the timer
    fig = benchmark.pedantic(
        fig12, args=(scale,), kwargs={"root": figure_root}, rounds=1, iterations=1
    )
    record_figure(fig)

    for label, ys in fig.series.items():
        assert ys[-1] > ys[0], f"{label}: faults must cost energy"
        # Broadly increasing: every point at least the fault-free baseline.
        assert all(v >= ys[0] * 0.98 for v in ys), label
