"""Tests for the analysis metrics, sweeps and renderers."""

import pytest

from repro.analysis.metrics import (
    geometric_mean,
    improvement,
    normalize,
    peak_accepted,
    saturation_point,
)
from repro.analysis.report import FigureResult, render_figure, render_sparkline, render_table
from repro.analysis.sweep import sweep_designs, sweep_loads
from repro.sim.config import SimConfig


class TestSaturationPoint:
    def test_never_saturates(self):
        loads = [0.1, 0.2, 0.3]
        assert saturation_point(loads, loads) == 0.3

    def test_exact_saturation(self):
        loads = [0.1, 0.2, 0.3, 0.4]
        accepted = [0.1, 0.2, 0.25, 0.25]
        sat = saturation_point(loads, accepted)
        assert 0.2 < sat <= 0.3

    def test_interpolation_between_points(self):
        loads = [0.2, 0.4]
        accepted = [0.2, 0.3]
        sat = saturation_point(loads, accepted)
        assert 0.2 < sat < 0.4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            saturation_point([0.1], [0.1, 0.2])

    def test_empty(self):
        with pytest.raises(ValueError):
            saturation_point([], [])

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            saturation_point([0.1], [0.1], threshold=0)


class TestMetrics:
    def test_peak(self):
        assert peak_accepted([0.1, 0.35, 0.3]) == 0.35

    def test_normalize(self):
        n = normalize({"a": 2.0, "b": 4.0}, "a")
        assert n == {"a": 1.0, "b": 2.0}

    def test_normalize_missing_baseline(self):
        with pytest.raises(KeyError):
            normalize({"a": 1.0}, "z")

    def test_improvement(self):
        assert improvement(1.2, 1.0) == pytest.approx(0.2)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestRenderers:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_figure_result_validates_lengths(self):
        with pytest.raises(ValueError):
            FigureResult("f", "t", "x", [1, 2], {"s": [1.0]})

    def test_render_figure_includes_notes(self):
        fig = FigureResult("fig0", "demo", "x", [1], {"s": [2.0]}, notes=["hello"])
        out = render_figure(fig)
        assert "fig0" in out and "hello" in out

    def test_sparkline_monotone(self):
        line = render_sparkline([0, 1, 2, 3, 4])
        assert len(line) == 5
        assert line[0] == " " and line[-1] == "@"

    def test_sparkline_flat(self):
        assert render_sparkline([2.0, 2.0]) != ""

    def test_sparkline_empty(self):
        assert render_sparkline([]) == ""


class TestSweeps:
    def _base(self):
        return SimConfig(
            k=4,
            warmup_cycles=50,
            measure_cycles=200,
            drain_cycles=50,
            packet_size=1,
            seed=5,
        )

    def test_sweep_loads_shapes(self):
        sweep = sweep_loads("dxbar_dor", [0.05, 0.1], base=self._base())
        assert sweep.design == "dxbar_dor"
        assert len(sweep.results) == 2
        assert len(sweep.accepted) == 2
        assert len(sweep.latency) == 2
        assert len(sweep.energy_per_packet) == 2

    def test_sweep_designs(self):
        out = sweep_designs(["dxbar_dor", "flit_bless"], [0.05], base=self._base())
        assert set(out) == {"dxbar_dor", "flit_bless"}

    def test_accepted_matches_offered_at_low_load(self):
        sweep = sweep_loads("buffered4", [0.05], base=self._base())
        assert sweep.accepted[0] == pytest.approx(0.05, abs=0.02)

