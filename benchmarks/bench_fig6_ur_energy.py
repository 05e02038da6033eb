"""Fig 6: average energy (nJ/packet) vs offered load, uniform random.

Shares the Fig 5 simulations through the session figure root.

Shape targets (paper): bufferless designs cheapest at the lowest loads but
blowing up past their saturation point (Flit-BLESS worst); DXbar stays
nearly flat and is the cheapest design at high load; Buffered 8 costs more
than Buffered 4.
"""

from repro.analysis.experiments import fig5, fig6, scale_from_env


def test_fig6_ur_energy(benchmark, record_figure, figure_root):
    scale = scale_from_env()
    fig5(scale, root=figure_root)  # ensure the shared sweep is cached outside the timer
    fig = benchmark.pedantic(
        fig6, args=(scale,), kwargs={"root": figure_root}, rounds=1, iterations=1
    )
    record_figure(fig)

    hi = -1  # highest-load grid point
    assert fig.series["Flit-Bless"][hi] > fig.series["DXbar DOR"][hi]
    assert fig.series["SCARAB"][hi] > fig.series["DXbar DOR"][hi]
    assert fig.series["Buffered 8"][hi] > fig.series["Buffered 4"][hi] * 0.99
    assert fig.series["Buffered 4"][hi] > fig.series["DXbar DOR"][hi]
    # DXbar's energy stays nearly flat across the sweep.
    dx = fig.series["DXbar DOR"]
    assert max(dx) < 1.6 * min(dx)
    # Bufferless designs explode relative to their own zero-load energy.
    bless = fig.series["Flit-Bless"]
    assert bless[hi] > 1.3 * bless[0]
