"""Extension benches beyond the paper's evaluation, each a registered
figure (``repro figure ext_* / scaling_*``) with its own pinned configs and
seed:

* **AFC comparison** — the paper's related-work argument quantified: the
  AFC-style mode-switching router against DXbar and the endpoints it
  interpolates (Flit-BLESS / Buffered-4).
* **Crosspoint faults** — the fault origin the paper names but does not
  evaluate: per-crosspoint failures with allocator masking and adaptive
  escalation.
* **Mesh scaling** — how the 2-vs-3-stage pipeline gap and the energy
  advantage compound as the mesh grows beyond 8x8.
"""

from repro.analysis.experiments import (
    ext_afc,
    ext_crosspoint,
    scaling_energy,
    scaling_latency,
)


def run(benchmark, figure, root):
    return benchmark.pedantic(figure, kwargs={"root": root}, rounds=1, iterations=1)


def test_extension_afc_comparison(benchmark, record_figure, figure_root):
    fig = record_figure(run(benchmark, ext_afc, figure_root))
    hi = -1
    # AFC interpolates its endpoints: beats BLESS on throughput and energy
    # at high load, beats Buffered-4 on energy at low load.
    assert fig.series["acc AFC"][hi] > fig.series["acc Flit-Bless"][hi]
    assert fig.series["nJ AFC"][hi] < fig.series["nJ Flit-Bless"][hi]
    assert fig.series["nJ AFC"][0] < fig.series["nJ Buffered 4"][0]
    # The paper's pitch: DXbar does it without mode-switching complexity.
    assert fig.series["nJ DXbar DOR"][hi] < fig.series["nJ AFC"][hi]


def test_extension_crosspoint_faults(benchmark, record_figure, figure_root):
    fig = record_figure(run(benchmark, ext_crosspoint, figure_root))
    for design, ys in fig.series.items():
        # A single dead crosspoint per router costs far less than a dead
        # crossbar: degradation stays under 15% even at 100%.
        assert ys[-1] > 0.85 * ys[0], design


def test_extension_mesh_scaling(benchmark, record_figure, figure_root):
    latency = record_figure(run(benchmark, scaling_latency, figure_root))
    energy = record_figure(scaling_energy(root=figure_root))

    b4 = latency.series["Buffered 4"]
    dx = latency.series["DXbar DOR"]
    # The per-hop pipeline advantage compounds with the mesh diameter.
    assert (b4[-1] - dx[-1]) > (b4[0] - dx[0])
    # DXbar's energy advantage holds at every radix.
    for i in range(len(energy.x)):
        assert energy.series["DXbar DOR"][i] < energy.series["Buffered 4"][i]
