"""Tests for the crosspoint-granularity fault extension.

The paper names crosspoints as the physical fault origin but evaluates
whole-crossbar failures; this extension breaks a single (input, output)
crosspoint.  Adaptive routing can mask a broken crosspoint by picking
another productive output; DOR relies on the 2x2 steering switches to
reach the surviving crossbar.
"""

import pytest

from tests.conftest import make_bench

from repro.core.faults import CROSSPOINT, FaultPlan, RouterFault
from repro.sim.config import FaultConfig, SimConfig
from repro.sim.engine import run_simulation
from repro.sim.ports import Port


class TestConfig:
    def test_granularity_validated(self):
        with pytest.raises(ValueError, match="granularity"):
            FaultConfig(granularity="nibble")

    def test_crosspoint_plan_populates_ports(self):
        plan = FaultPlan(
            FaultConfig(percent=100, granularity=CROSSPOINT, seed=4), 16
        )
        for node in plan.faulty_nodes:
            f = plan.fault_for(node)
            assert f.is_crosspoint
            assert f.input_port is not None and f.output_port is not None

    def test_crossbar_plan_has_no_ports(self):
        plan = FaultPlan(FaultConfig(percent=100, seed=4), 16)
        for node in plan.faulty_nodes:
            assert not plan.fault_for(node).is_crosspoint


class TestRouterFaultQueries:
    def test_crosspoint_never_disables_whole_crossbar(self):
        f = RouterFault(
            "primary", 0, 5, input_port=Port.WEST, output_port=Port.EAST
        )
        assert f.primary_ok(100)
        assert f.secondary_ok(100)

    def test_blocks_and_masks(self):
        f = RouterFault(
            "primary", manifest_cycle=10, detected_cycle=15,
            input_port=Port.WEST, output_port=Port.EAST,
        )
        assert not f.blocks("primary", Port.WEST, Port.EAST, 9)
        assert f.blocks("primary", Port.WEST, Port.EAST, 10)
        assert not f.masks("primary", Port.WEST, Port.EAST, 12)  # undetected
        assert f.masks("primary", Port.WEST, Port.EAST, 15)
        assert not f.blocks("secondary", Port.WEST, Port.EAST, 20)
        assert not f.blocks("primary", Port.NORTH, Port.EAST, 20)


class TestDXbarWithCrosspointFaults:
    def _fault(self, crossbar, in_port, out_port, manifest=0, detect=0):
        return RouterFault(
            crossbar, manifest_cycle=manifest, detected_cycle=detect,
            input_port=in_port, output_port=out_port,
        )

    def test_primary_crosspoint_forces_buffering(self):
        """Flits from WEST to EAST at node 5 must take the secondary path."""
        b = make_bench("dxbar_dor")
        b.router(5).fault = self._fault("primary", Port.WEST, Port.EAST)
        b.inject(4, 7)  # enters node 5 on its WEST input, leaves EAST
        b.run_until_quiescent(max_cycles=300)
        flit, _ = b.delivered[0]
        assert flit.buffered_events == 1  # primary refused, secondary used

    def test_secondary_crosspoint_uses_steering_switch(self):
        """A buffered DOR flit whose only output sits behind a dead
        secondary crosspoint escapes through the primary crossbar."""
        b = make_bench("dxbar_dor")
        b.router(5).fault = self._fault("secondary", Port.WEST, Port.NORTH)
        # Force buffering at node 5 on the WEST input, destination north.
        a = b.inject(1, 13)  # wins NORTH via primary
        c = b.inject(4, 13)  # loses, buffered on WEST input, needs NORTH
        b.run_until_quiescent(max_cycles=500)
        assert len(b.delivered) == 2

    def test_unaffected_paths_see_nothing(self):
        b = make_bench("dxbar_dor")
        b.router(5).fault = self._fault("primary", Port.WEST, Port.NORTH)
        b.inject(4, 7)  # WEST -> EAST: different crosspoint
        b.run_until_quiescent(max_cycles=200)
        assert b.delivered[0][0].buffered_events == 0

    def test_no_reconfiguration_for_crosspoint(self):
        b = make_bench("dxbar_dor")
        b.router(5).fault = self._fault("primary", Port.WEST, Port.EAST)
        b.inject(4, 7)
        b.run_until_quiescent(max_cycles=300)
        assert b.counter_total("fault_reconfigs") == 0
        assert not b.router(5).reconfigured

    def test_undetected_window_wastes_cycles(self):
        """Before detection the flit blindly attempts the dead crosspoint;
        after detection the allocator masks it — same delivery, later."""
        b = make_bench("dxbar_dor")
        b.router(5).fault = self._fault(
            "primary", Port.WEST, Port.EAST, manifest=0, detect=0
        )
        b.inject(4, 7)
        b.run_until_quiescent(max_cycles=300)
        t_masked = b.delivered[0][1]

        b2 = make_bench("dxbar_dor")
        b2.router(5).fault = self._fault(
            "primary", Port.WEST, Port.EAST, manifest=0, detect=10**6
        )
        b2.inject(4, 7)
        b2.run_until_quiescent(max_cycles=300)
        t_blind = b2.delivered[0][1]
        assert t_blind >= t_masked


class TestEndToEndCrosspointCampaign:
    @pytest.mark.parametrize("design", ["dxbar_dor", "dxbar_wf", "unified_dor"])
    def test_full_crosspoint_faults_deliver_everything(self, design):
        cfg = SimConfig(
            design=design,
            k=8,
            pattern="UR",
            offered_load=0.2,
            warmup_cycles=200,
            measure_cycles=600,
            drain_cycles=4000,
            seed=6,
            faults=FaultConfig(
                percent=100, granularity=CROSSPOINT, manifest_window=100
            ),
        )
        r = run_simulation(cfg, check_invariants=True)
        assert r.extra["measured_pending_at_end"] == 0
        assert r.accepted_load > 0.15

    def test_adaptive_masks_crosspoints_better_than_dor(self):
        """WF has alternative productive outputs, so known-dead crosspoints
        cost it less latency than DOR at moderate load."""
        results = {}
        for design in ("dxbar_dor", "dxbar_wf"):
            clean = run_simulation(
                SimConfig(
                    design=design, pattern="UR", offered_load=0.25,
                    warmup_cycles=300, measure_cycles=800, drain_cycles=4000, seed=9,
                )
            )
            faulty = run_simulation(
                SimConfig(
                    design=design, pattern="UR", offered_load=0.25,
                    warmup_cycles=300, measure_cycles=800, drain_cycles=4000, seed=9,
                    faults=FaultConfig(
                        percent=100, granularity=CROSSPOINT, manifest_window=200
                    ),
                )
            )
            results[design] = faulty.avg_flit_latency / clean.avg_flit_latency
        assert results["dxbar_wf"] <= results["dxbar_dor"] * 1.10
