"""Fig 7: throughput at offered load 0.5 for all nine synthetic patterns.

Shape targets (paper): DXbar DOR best on UR/NUR/TOR; DXbar WF competitive
on the permutation patterns that favour adaptivity (BR/BF/MT/PS); DXbar at
or above the buffered baselines everywhere.

Documented deviation (EXPERIMENTS.md): on CP — and to a lesser degree the
other permutation patterns — at 0.5 offered load (~5x those patterns'
channel capacity) the *deflecting* designs pull ahead in our substrate,
because misrouting Valiant-balances perfectly antipodal traffic around the
saturated mesh center.  The paper reports DXbar DOR best on CP; we get
DXbar best among the non-deflecting designs only.
"""

from repro.analysis.experiments import fig7, scale_from_env


def test_fig7_synthetic_throughput(benchmark, record_figure, figure_root):
    scale = scale_from_env()
    fig = benchmark.pedantic(
        fig7, args=(scale,), kwargs={"root": figure_root}, rounds=1, iterations=1
    )
    record_figure(fig)

    idx = {p: i for i, p in enumerate(fig.x)}
    dor = fig.series["DXbar DOR"]
    wf = fig.series["DXbar WF"]
    bless = fig.series["Flit-Bless"]
    scarab = fig.series["SCARAB"]
    b4 = fig.series["Buffered 4"]
    b8 = fig.series["Buffered 8"]

    # DXbar (one routing or the other) at or above the buffered baselines
    # on every pattern.
    for p in fig.x:
        i = idx[p]
        best_dx = max(dor[i], wf[i])
        assert best_dx >= b4[i] - 0.02, p
        assert best_dx >= b8[i] - 0.03, p

    # DXbar DOR leads everyone on the patterns the paper calls out (minus
    # CP, see the module docstring).
    for p in ("UR", "NUR", "TOR"):
        i = idx[p]
        assert dor[i] >= bless[i] - 0.02, p
        assert dor[i] >= scarab[i] - 0.02, p
        assert dor[i] >= wf[i] - 0.02, p

    # WF is the competitive DXbar variant on the adaptive-friendly patterns.
    for p in ("BR", "MT", "PS"):
        i = idx[p]
        assert wf[i] >= dor[i] - 0.02, p
