"""Tests for the activity-scheduled network walk.

Every walk the busy-switch thresholds select gives the dense walk's
``SimResult.to_dict()``: the active sets and the switch may change what a
cycle costs, never what it computes.  The differential cases are calls
into the oracle in ``tests/test_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.sim.config import FaultConfig, SimConfig
from repro.sim.engine import Simulator
from repro.traffic.generator import Workload
from tests.conftest import on_walk
from tests.test_equivalence import Case, assert_paths_agree, faults, splash2


def _advance(sim: Simulator, cycles: int) -> None:
    for _ in range(cycles):
        sim.workload.tick(sim.network.cycle, sim.network)
        sim.network.step()


class TestBitExactness:
    """Every walk: identical results over the whole design matrix."""

    def test_all_designs(self, any_design):
        assert_paths_agree(Case(any_design))

    @pytest.mark.parametrize("design", ["dxbar_dor", "unified_wf"])
    def test_full_fault_run(self, design):
        assert_paths_agree(Case(design, load=0.25, faults=faults(100, seed=3)))

    def test_crosspoint_fault_run(self):
        plan = faults(50, "crosspoint", seed=5)
        assert_paths_agree(Case("dxbar_dor", load=0.25, faults=plan))

    @pytest.mark.parametrize("design", ["dxbar_dor", "unified_dor"])
    @pytest.mark.parametrize("granularity", ["crossbar", "crosspoint"])
    def test_mid_measurement_fault_grid(self, design, granularity):
        """Faults manifesting inside the measurement window flip routers to
        degraded mode while measured traffic is in flight."""
        plan = FaultConfig(percent=50, granularity=granularity, manifest_window=80)
        assert_paths_agree(Case(design, faults=plan))

    def test_closed_loop_run(self):
        assert_paths_agree(Case("dxbar_dor", max_cycles=3000))

    def test_scarab_mid_step_wakes_at_high_load(self):
        """SCARAB's NACKs wake source routers during the step phase; at
        0.4 the walk crosses the busy threshold while they are queued."""
        assert_paths_agree(Case("scarab", load=0.4))

    @pytest.mark.parametrize("design", ["flit_bless", "buffered4", "unified_dor"])
    def test_trace_replay(self, design):
        """A bursty SPLASH-2 trace (Ocean) drives the mesh in and out of
        the busy phase."""
        assert_paths_agree(Case(design, workload=splash2("Ocean", 12, 5)))

    def test_flip_walk_flips(self):
        """The ``flip`` walk really exercises the hand-back path."""
        cfg = Case("dxbar_dor").config().with_(warmup_cycles=50, measure_cycles=300,
                                               drain_cycles=400)
        with on_walk("flip"):
            sim = Simulator(cfg)
        net = sim.network
        flips, busy = 0, False
        for _ in range(cfg.total_cycles):
            _advance(sim, 1)
            flips += net._busy_walk != busy
            busy = net._busy_walk
        assert flips >= 10
        # The diagnostic counter bench_perf reports as busy_share.
        assert 0 < net.busy_cycles < cfg.total_cycles


class TestActiveSets:
    def test_sets_empty_when_quiescent(self, bench_factory):
        b = bench_factory("dxbar_dor")
        b.inject(0, 5)
        b.run_until_quiescent()
        b.step(3)  # let links/channels drain out of the active sets
        net = b.network
        assert not any(net._active_routers)
        assert net._active_links == set()
        assert net._active_channels == set()

    def test_idle_cycle_steps_no_routers(self, bench_factory, monkeypatch):
        b = bench_factory("buffered4")
        b.inject(0, 5)
        b.run_until_quiescent()
        b.step(3)
        stepped = []
        for r in b.network.routers:
            monkeypatch.setattr(
                r, "step", lambda cycle, node=r.node: stepped.append(node)
            )
        b.step(5)
        assert stepped == []

    def test_checkpoint_resume_rebuilds_active_sets(self):
        """Active sets are derived state: a checkpoint round-trip mid-run
        rebuilds exactly the sets the run maintained.  The original is
        pinned to the active walk, the only phase that maintains them."""
        cfg = Case("buffered8").config()
        with on_walk("sparse"):
            orig = Simulator(cfg)
        _advance(orig, 100)

        resumed = Simulator(cfg)
        resumed.load_state_dict(orig.state_dict())
        assert resumed.network._active_routers == orig.network._active_routers
        assert resumed.network._active_links == orig.network._active_links
        assert resumed.network._active_channels == orig.network._active_channels

    def test_checkpoint_in_busy_phase_resumes(self):
        """At 0.4 the oracle's flip walk takes both snapshots in its
        full-walk phase, whose active sets are stale."""
        case = Case("dxbar_dor", load=0.4)
        with on_walk("flip"):
            sim = case.simulator(case.config())
        for cycle in case.snapshots:
            _advance(sim, cycle - sim.network.cycle)
            assert sim.network._busy_walk
        assert_paths_agree(case)


class TestConservationEveryCycle:
    """Flit conservation must hold at *every* cycle boundary of the
    activity-scheduled walk, not just at the engine's periodic checks."""

    @pytest.mark.parametrize("design", ["flit_bless", "buffered4"])
    def test_conservation_each_cycle(self, design):
        cfg = Case(design).config().with_(warmup_cycles=0, measure_cycles=250,
                                          drain_cycles=150)
        sim = Simulator(cfg)
        for _ in range(cfg.total_cycles):
            _advance(sim, 1)
            sim.network.check_conservation()


class TestClosedLoopMeasurement:
    """Satellite regression: closed-loop (``max_cycles`` set) injections
    must be measured unconditionally — the pre-run open-loop window used
    to silently drop packets injected after ``warmup + measure``."""

    class LateInjector(Workload):
        """Injects without a ``measured`` override, later than the stale
        open-loop window could ever reach."""

        def __init__(self, at_cycle: int) -> None:
            self.at_cycle = at_cycle
            self.injected = False

        def tick(self, cycle, network) -> None:
            if cycle == self.at_cycle and not self.injected:
                network.inject_packet(0, 15, cycle, num_flits=2)
                self.injected = True

        def done(self) -> bool:
            return self.injected

    def test_late_packet_is_measured(self):
        cfg = SimConfig(design="dxbar_dor", k=4, warmup_cycles=5, measure_cycles=5,
                        drain_cycles=0, max_cycles=500)
        inject_at = 50
        assert cfg.warmup_cycles + cfg.measure_cycles < inject_at
        wl = self.LateInjector(inject_at)
        sim = Simulator(cfg, workload=wl)
        r = sim.run()
        assert r.injected_flits == 2
        assert r.ejected_flits == 2
        assert r.measured_packets_completed == 1
        assert r.avg_flit_latency > 0
