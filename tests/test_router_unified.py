"""Behavioural tests for the unified dual-input single-crossbar router."""

import pytest

from tests.conftest import make_bench, run_digest


class TestEquivalenceWithDXbar:
    """The unified crossbar provides the same dataflow as the dual
    crossbar; per the paper it achieves 'identical functionality with
    reduced area'."""

    def test_zero_load_latency_matches(self):
        for dst, expected in ((1, 2), (3, 6), (15, 12)):
            b = make_bench("unified_dor")
            b.inject(0, dst)
            b.run_until_quiescent()
            assert b.delivered[0][1] == expected

    def test_conflict_loser_buffered(self):
        b = make_bench("unified_dor")
        a = b.inject(1, 13)
        c = b.inject(4, 13)
        b.run_until_quiescent(max_cycles=500)
        flits = {f.packet_id: f for f, _ in b.delivered}
        assert len(flits) == 2
        buffered = sorted(f.buffered_events for f in flits.values())
        assert buffered == [0, 1]
        assert all(f.deflections == 0 for f in flits.values())

    def test_delivers_same_flit_set_as_dxbar(self):
        injections = [(1, 13), (4, 13), (13, 1), (4, 7), (0, 15), (10, 5)]
        delivered = {}
        for design in ("dxbar_dor", "unified_dor"):
            b = make_bench(design)
            for src, dst in injections:
                b.inject(src, dst)
            b.run_until_quiescent(max_cycles=500)
            delivered[design] = sorted((f.src, f.dst) for f, _ in b.delivered)
        assert delivered["dxbar_dor"] == delivered["unified_dor"]


class TestDualInputTraversal:
    def test_same_input_two_flits_one_cycle(self):
        """The defining capability (Fig 4): a buffered and an incoming flit
        from the same input port traverse in the same cycle."""
        b = make_bench("unified_dor")
        a = b.inject(1, 13)
        c = b.inject(4, 13)  # gets buffered at node 5
        b.step()
        d = b.inject(4, 7)  # same input as c at node 5, different output
        b.run_until_quiescent(max_cycles=500)
        by_pkt = {f.packet_id: cycle for f, cycle in b.delivered}
        # c leaves the buffer the same cycle d passes through: both eject
        # together two hops later.
        assert by_pkt[c] == by_pkt[d] == 7

    def test_allocator_swaps_observable(self):
        """Drive enough dual-grant cycles that the conflict-free detection
        logic fires at least once."""
        b = make_bench("unified_dor", k=4)
        for i in range(40):
            b.inject(1, 13)
            b.inject(4, 13)
            b.inject(4, 7)
            b.step()
        b.run_until_quiescent(max_cycles=2000)
        assert b.stats.allocator_swaps >= 1


class TestUnifiedFaults:
    def test_fault_degrades_to_buffered_operation(self):
        from repro.core.faults import PRIMARY, RouterFault

        b = make_bench("unified_dor")
        b.router(5).fault = RouterFault(PRIMARY, manifest_cycle=0, detected_cycle=0)
        b.inject(4, 7)
        b.run_until_quiescent(max_cycles=300)
        flit, _ = b.delivered[0]
        assert flit.buffered_events >= 1
        assert b.counter_total("fault_reconfigs") == 1

    def test_undetected_fault_freezes_then_recovers(self):
        from repro.core.faults import SECONDARY, RouterFault

        b = make_bench("unified_dor")
        b.router(5).fault = RouterFault(SECONDARY, manifest_cycle=1, detected_cycle=9)
        for i in range(4):
            b.inject(4, 7)
        b.run_until_quiescent(max_cycles=500)
        assert len(b.delivered) == 4


class TestEnergyDifference:
    def test_unified_crossbar_costs_more_per_traversal(self):
        results = {}
        for design in ("dxbar_dor", "unified_dor"):
            b = make_bench(design)
            b.inject(0, 3)
            b.run_until_quiescent()
            results[design] = b.stats.energy_xbar_pj
        # 15 pJ vs 13 pJ per traversal, same traversal count.
        assert results["unified_dor"] == pytest.approx(
            results["dxbar_dor"] * 15.0 / 13.0
        )


class TestGoldenRun:
    def test_report_digest_pinned(self):
        """A loaded k=8 uniform-random run whose full report is pinned by
        digest: any change to allocation order, fairness or buffering in
        the unified router shows up here."""
        import hashlib
        import json

        from repro.sim.config import SimConfig
        from repro.sim.engine import Simulator

        cfg = SimConfig(
            design="unified_dor",
            k=8,
            pattern="UR",
            offered_load=0.5,
            seed=7,
            warmup_cycles=50,
            measure_cycles=150,
            drain_cycles=100,
        )
        report = Simulator(cfg).run().to_dict()
        assert report["final_cycle"] == 300
        assert report["allocator_swaps"] > 0 and report["fairness_flips"] > 0
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == (
            "78fc1fb94199288abe80058fad552381da2dbc6e22ac2ebe6ce737d61c4f02bc"
        )

    def test_degraded_digest_pinned(self):
        """Every router takes a whole-crossbar fault early and collapses to
        the degraded buffered step shared with DXbar."""
        from repro.sim.config import FaultConfig, SimConfig

        cfg = SimConfig(
            design="unified_dor",
            k=8,
            pattern="UR",
            offered_load=0.3,
            seed=7,
            warmup_cycles=50,
            measure_cycles=150,
            drain_cycles=100,
            faults=FaultConfig(percent=100, granularity="crossbar", manifest_window=50),
        )
        report, digest = run_digest(cfg)
        assert report["fault_reconfigurations"] == 64
        assert digest == (
            "173d0c7f926ac0188c3a6cc76852aa9a55ba3edb943c8b561f940d4927fe1401"
        )
