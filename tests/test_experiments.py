"""Smoke tests for the per-figure experiment drivers at a tiny scale."""

import pytest

from repro.analysis.experiments import (
    ALL_EXPERIMENTS,
    SCALES,
    ExperimentScale,
    clear_cache,
    fault_load_curves,
    fig5,
    fig6,
    fig9,
    fig10,
    fig11,
    fig12,
    scale_from_env,
    table3,
)
from repro.designs import DESIGN_LABELS, PAPER_DESIGNS

TINY = ExperimentScale(
    warmup=60,
    measure=240,
    drain=60,
    loads=(0.1, 0.3),
    fault_loads=(0.3,),
    fault_percents=(0.0, 100.0),
    txns_per_core=3,
    seed=1,
    max_trace_cycles=100_000,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestTable3:
    def test_has_all_six_designs(self):
        fig = table3()
        assert len(fig.x) == 6
        assert "DXbar" in fig.x

    def test_series_complete(self):
        fig = table3()
        assert set(fig.series) == {
            "area_mm2",
            "buffer_energy_pj_per_flit",
            "xbar_energy_pj_per_flit",
        }


class TestScales:
    def test_presets_exist(self):
        assert set(SCALES) == {"quick", "default", "full"}

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert scale_from_env() is SCALES["full"]

    def test_env_bad_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "gigantic")
        with pytest.raises(ValueError):
            scale_from_env()

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_from_env("quick") is SCALES["quick"]

    def test_bad_jobs_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "four")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            fig5(TINY)


class TestLoadSweepFigures:
    def test_fig5_structure_and_cache_sharing(self):
        f5 = fig5(TINY)
        f6 = fig6(TINY)
        assert f5.x == list(TINY.loads)
        assert set(f5.series) == {DESIGN_LABELS[d] for d in PAPER_DESIGNS}
        # fig6 reuses fig5's simulations (same cache key).
        assert f6.x == f5.x

    def test_fig5_low_load_tracks_offered(self):
        f5 = fig5(TINY)
        for label, ys in f5.series.items():
            assert ys[0] == pytest.approx(0.1, abs=0.05), label


class TestFaultFigures:
    def test_fig11_and_12_structure(self):
        f11 = fig11(TINY)
        f12 = fig12(TINY)
        assert f11.x == [0.0, 100.0]
        assert set(f11.series) == {"DXbar DOR", "DXbar WF"}
        assert all(v > 0 for ys in f12.series.values() for v in ys)

    def test_fault_energy_rises_with_faults(self):
        f12 = fig12(TINY)
        for label, ys in f12.series.items():
            assert ys[-1] > ys[0], f"{label}: buffering under faults costs energy"

    def test_fault_load_curves(self):
        curves = fault_load_curves(TINY)
        assert set(curves) == {"dxbar_dor", "dxbar_wf"}
        for fig in curves.values():
            assert len(fig.series) == len(TINY.fault_percents)


class TestSplashFigures:
    def test_fig9_normalised_to_buffered4(self):
        f9 = fig9(TINY)
        assert f9.series["Buffered 4"] == pytest.approx([1.0] * len(f9.x))

    def test_fig10_energy_positive(self):
        f10 = fig10(TINY)
        for ys in f10.series.values():
            assert all(v > 0 for v in ys)


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(ALL_EXPERIMENTS) == {
            "table3",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig11c",
            "fig12",
        }
