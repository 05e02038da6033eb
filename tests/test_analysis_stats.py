"""Tests for multi-seed replication statistics and the scaling study."""

from dataclasses import replace

import pytest

from repro.analysis.experiments import scaling_energy, scaling_grid, scaling_latency
from repro.analysis.stats import METRICS, compare, replicate
from repro.runner.rundir import run_paths
from repro.sim.config import SimConfig


def tiny_config(**kw):
    defaults = dict(
        design="dxbar_dor",
        k=4,
        pattern="UR",
        offered_load=0.1,
        warmup_cycles=60,
        measure_cycles=240,
        drain_cycles=600,
        packet_size=1,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestReplicate:
    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            replicate(tiny_config(), [])

    def test_summaries_for_all_metrics(self):
        out = replicate(tiny_config(), [1, 2, 3])
        assert set(out) == set(METRICS)
        for summary in out.values():
            assert summary.n == 3
            assert len(summary.values) == 3

    def test_single_seed_zero_spread(self):
        out = replicate(tiny_config(), [5])
        assert out["accepted_load"].stddev == 0.0
        assert out["accepted_load"].sem == 0.0

    def test_mean_matches_values(self):
        out = replicate(tiny_config(), [1, 2])
        s = out["avg_flit_latency"]
        assert s.mean == pytest.approx(sum(s.values) / 2)

    def test_ci_contains_mean(self):
        out = replicate(tiny_config(), [1, 2, 3])
        s = out["accepted_load"]
        lo, hi = s.ci95()
        assert lo <= s.mean <= hi


class TestCompare:
    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            compare(tiny_config(), "dxbar_dor", "buffered4", [1])

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            compare(tiny_config(), "dxbar_dor", "buffered4", [1, 2], metric="vibes")

    def test_latency_gap_detected(self):
        """DXbar vs Buffered-4 latency: a real, large gap (2 vs 3 cycles a
        hop) that three seeds should resolve decisively."""
        c = compare(
            tiny_config(),
            "dxbar_dor",
            "buffered4",
            [1, 2, 3],
            metric="avg_flit_latency",
        )
        assert c.mean_a < c.mean_b
        assert c.significant(alpha=0.05)

    def test_self_comparison_not_significant(self):
        c = compare(
            tiny_config(),
            "dxbar_dor",
            "dxbar_dor",
            [1, 2, 3],
            metric="accepted_load",
        )
        assert not c.significant(alpha=0.01)


class TestScalingStudy:
    """The mesh-scaling figures on a tiny base: the registered figures
    with their grid swapped for a smaller one through ``scaling_grid``."""

    BASE = SimConfig(warmup_cycles=60, measure_cycles=200, drain_cycles=800, seed=2)

    def run(self, figure, designs, radices, root=None):
        grid = lambda _: scaling_grid(designs, radices, 0.08, self.BASE)
        return replace(figure, grid=grid)(root=root)

    def test_structure(self, tmp_path):
        designs, radices = ("buffered4", "dxbar_dor"), (3, 4)
        latency = self.run(scaling_latency, designs, radices, tmp_path)
        energy = self.run(scaling_energy, designs, radices, tmp_path)
        assert (latency.exp_id, energy.exp_id) == ("scaling_latency", "scaling_energy")
        assert latency.x == energy.x == [3, 4]
        assert set(latency.series) == set(energy.series) == {"Buffered 4", "DXbar DOR"}
        # Both figures read one grid: the energy figure re-runs no cell.
        assert scaling_latency.grid is scaling_energy.grid
        assert len(list(run_paths(tmp_path).cache.glob("*.json"))) == 4

    def test_latency_grows_with_radix(self):
        fig = self.run(scaling_latency, ("dxbar_dor",), (3, 5))
        lat = fig.series["DXbar DOR"]
        assert lat[1] > lat[0]

    def test_pipeline_gap_compounds_with_radix(self):
        fig = self.run(scaling_latency, ("buffered4", "dxbar_dor"), (3, 6))
        b4 = fig.series["Buffered 4"]
        dx = fig.series["DXbar DOR"]
        gap_small = b4[0] - dx[0]
        gap_large = b4[1] - dx[1]
        assert gap_large > gap_small  # one extra stage per hop, more hops
