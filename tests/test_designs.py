"""Tests for the design registry."""

import pytest

from repro.core.dxbar import DXbarRouter
from repro.core.unified import UnifiedRouter
from repro.designs import (
    DESIGN_LABELS,
    PAPER_DESIGNS,
    ROUTER_CLASSES,
    build_router,
    build_routing,
)
from repro.energy.model import EnergyModel
from repro.routers.bless import BlessRouter
from repro.routers.buffered import Buffered4Router, Buffered8Router
from repro.routers.scarab import ScarabRouter
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.routing.dor import DORRouting
from repro.routing.westfirst import WestFirstRouting
from repro.sim.config import SimConfig
from repro.sim.stats import StatsCollector
from repro.sim.topology import Mesh


class TestRegistry:
    def test_six_paper_designs(self):
        assert len(PAPER_DESIGNS) == 6

    def test_labels_cover_all_configs(self):
        from repro.registry import DESIGNS

        assert set(DESIGN_LABELS) == set(DESIGNS.names())

    @pytest.mark.parametrize(
        "design,router_cls",
        [
            ("flit_bless", BlessRouter),
            ("scarab", ScarabRouter),
            ("buffered4", Buffered4Router),
            ("buffered8", Buffered8Router),
            ("dxbar_dor", DXbarRouter),
            ("dxbar_wf", DXbarRouter),
            ("unified_dor", UnifiedRouter),
            ("unified_wf", UnifiedRouter),
        ],
    )
    def test_router_classes(self, design, router_cls):
        cfg = SimConfig(design=design, k=4)
        mesh = Mesh(4)
        routing = build_routing(cfg, mesh)
        energy = EnergyModel.for_design(design, StatsCollector(16))
        router = build_router(cfg, 0, mesh, routing, energy)
        assert type(router) is router_cls

    @pytest.mark.parametrize(
        "design,routing_cls",
        [
            ("dxbar_dor", DORRouting),
            ("dxbar_wf", WestFirstRouting),
            ("buffered4", DORRouting),
            ("flit_bless", MinimalAdaptiveRouting),
            ("scarab", MinimalAdaptiveRouting),
        ],
    )
    def test_routing_classes(self, design, routing_cls):
        cfg = SimConfig(design=design, k=4)
        assert type(build_routing(cfg, Mesh(4))) is routing_cls

    def test_unified_is_a_dxbar_variant(self):
        assert issubclass(UnifiedRouter, DXbarRouter)

    def test_router_classes_cover_base_designs(self):
        assert set(ROUTER_CLASSES) == {
            "flit_bless",
            "scarab",
            "buffered4",
            "buffered8",
            "dxbar",
            "unified",
            "afc",
        }
