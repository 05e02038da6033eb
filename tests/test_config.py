"""Unit tests for SimConfig and FaultConfig validation."""

import pytest

from repro.registry import DESIGNS, PATTERNS
from repro.sim.config import FaultConfig, SimConfig


class TestSimConfigValidation:
    def test_default_is_valid(self):
        cfg = SimConfig()
        assert cfg.design == "dxbar_dor"
        assert cfg.k == 8

    def test_unknown_design(self):
        with pytest.raises(ValueError, match="unknown design"):
            SimConfig(design="magic_router")

    def test_unknown_pattern(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            SimConfig(pattern="ZZ")

    def test_bad_radix(self):
        with pytest.raises(ValueError):
            SimConfig(k=1)

    def test_bad_load(self):
        with pytest.raises(ValueError):
            SimConfig(offered_load=-0.1)
        with pytest.raises(ValueError):
            SimConfig(offered_load=2.5)

    def test_zero_measure_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(measure_cycles=0)

    def test_bad_packet_size(self):
        with pytest.raises(ValueError):
            SimConfig(packet_size=0)

    def test_bad_link_latency(self):
        with pytest.raises(ValueError):
            SimConfig(link_latency=0)

    def test_faults_only_on_dual_crossbar_designs(self):
        with pytest.raises(ValueError, match="fault injection"):
            SimConfig(design="buffered4", faults=FaultConfig(percent=50))
        # dxbar and unified both accept faults.
        SimConfig(design="dxbar_wf", faults=FaultConfig(percent=50))
        SimConfig(design="unified_dor", faults=FaultConfig(percent=50))


class TestSimConfigDerived:
    def test_total_cycles(self):
        cfg = SimConfig(warmup_cycles=10, measure_cycles=20, drain_cycles=5)
        assert cfg.total_cycles == 35

    def test_num_nodes(self):
        assert SimConfig(k=4).num_nodes == 16

    @pytest.mark.parametrize(
        "design,base,routing",
        [
            ("dxbar_dor", "dxbar", "dor"),
            ("dxbar_wf", "dxbar", "wf"),
            ("unified_wf", "unified", "wf"),
            ("buffered4", "buffered4", "dor"),
            ("flit_bless", "flit_bless", "adaptive"),
            ("scarab", "scarab", "adaptive"),
        ],
    )
    def test_base_design_and_routing(self, design, base, routing):
        cfg = SimConfig(design=design)
        assert cfg.base_design == base
        assert cfg.routing == routing

    def test_with_replaces_fields(self):
        cfg = SimConfig().with_(offered_load=0.7, seed=9)
        assert cfg.offered_load == 0.7
        assert cfg.seed == 9
        assert cfg.design == "dxbar_dor"

    def test_known_lists_cover_each_other(self):
        assert "dxbar_dor" in DESIGNS.names()
        assert len(PATTERNS.names()) == 9


class TestFaultConfig:
    def test_percent_bounds(self):
        with pytest.raises(ValueError):
            FaultConfig(percent=101)
        with pytest.raises(ValueError):
            FaultConfig(percent=-1)

    def test_detection_cycles_non_negative(self):
        with pytest.raises(ValueError):
            FaultConfig(detection_cycles=-1)

    def test_manifest_window_positive(self):
        with pytest.raises(ValueError):
            FaultConfig(manifest_window=0)

    def test_paper_default_detection_is_five(self):
        assert FaultConfig().detection_cycles == 5
