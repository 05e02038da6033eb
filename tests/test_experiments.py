"""Smoke tests for the per-figure experiment drivers at a tiny scale."""

import json

import pytest

from repro.analysis.experiments import (
    ALL_EXPERIMENTS,
    SCALES,
    ExperimentScale,
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
from repro.obs import campaign_status, merge_journal
from repro.runner.rundir import run_paths

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
    def test_fig5_structure_and_cache_sharing(self, tmp_path):
        f5 = fig5(TINY, root=tmp_path)
        f6 = fig6(TINY, root=tmp_path)
        assert f5.x == list(TINY.loads)
        assert set(f5.series) == {DESIGN_LABELS[d] for d in PAPER_DESIGNS}
        # fig6 reuses fig5's simulations (same cache key).
        assert f6.x == f5.x

    def test_fig5_low_load_tracks_offered(self):
        f5 = fig5(TINY)
        for label, ys in f5.series.items():
            assert ys[0] == pytest.approx(0.1, abs=0.05), label


class TestFaultFigures:
    def test_fig11_and_12_structure(self, tmp_path):
        f11 = fig11(TINY, root=tmp_path)
        f12 = fig12(TINY, root=tmp_path)
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


class TestCellBackends:
    def test_grid_cells_run_on_the_fastest_backend(self, tmp_path):
        from repro.sim.config import SimConfig

        fig5(TINY, root=tmp_path)
        fig11(TINY, root=tmp_path)
        fig9(TINY, root=tmp_path)
        seen = {}
        closed_loop = set()
        for path in run_paths(tmp_path).cache.glob("*.json"):
            ident = json.loads(path.read_text())["identity"]
            cfg = SimConfig.from_dict(ident["config"])
            if ident["workload"] is not None:
                # SPLASH-2 cells ignore offered_load: not stamped.
                closed_loop.add(cfg.backend)
                continue
            assert cfg.backend == cfg.fastest_backend(), cfg.design
            seen.setdefault(cfg.design, set()).add(cfg.backend)
        assert closed_loop == {"object"}
        assert set(seen) == set(PAPER_DESIGNS) | {"dxbar_dor", "dxbar_wf"}
        assert seen["buffered4"] == {"vector"}
        assert seen["dxbar_dor"] == {"object"}


class TestFigureRoot:
    """A figure root is a run directory: its journal sees every cell,
    and a second figure sharing the root re-runs none of them."""

    def test_fig5_journals_each_distinct_cell_with_its_backend(self, tmp_path):
        fig5(TINY, root=tmp_path)
        events = merge_journal(run_paths(tmp_path).journal)
        completed = [e["job"] for e in events if e["event"] == "completed"]
        assert len(completed) == len(set(completed)) == len(PAPER_DESIGNS) * len(TINY.loads)
        status = campaign_status(events)
        assert all(status.jobs[j].backend in ("object", "vector") for j in completed)
        assert status.counts()["completed"] == len(completed)

    def test_fig6_after_fig5_is_pure_cache_hits(self, tmp_path):
        fig5(TINY, root=tmp_path)
        journal = run_paths(tmp_path).journal
        before = len(merge_journal(journal))
        f6 = fig6(TINY, root=tmp_path)
        added = [e["event"] for e in merge_journal(journal)[before:]]
        assert added.count("cache_hit") == len(PAPER_DESIGNS) * len(TINY.loads)
        assert set(added) == {"campaign", "job_submitted", "cache_hit"}
        assert f6 == fig6(TINY)


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
