"""Differential and unit tests for the activity-scheduled network walk.

The hard requirement: ``Network._step_active`` must be *bit-exact* with
the dense reference walk (``Network._step_dense``) — identical
``SimResult.to_dict()`` for every design, routing, and fault level.  The
active sets may only change how much wall-clock a cycle costs, never
what it computes.
"""

from __future__ import annotations

import pytest

from repro.sim.config import FaultConfig, SimConfig
from repro.sim.engine import Simulator
from repro.traffic.generator import Workload


def _config(design: str, **overrides) -> SimConfig:
    defaults = dict(
        design=design,
        k=4,
        pattern="UR",
        offered_load=0.3,
        warmup_cycles=50,
        measure_cycles=300,
        drain_cycles=400,
        packet_size=2,
        seed=11,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def _run(config: SimConfig, dense: bool) -> dict:
    sim = Simulator(config)
    sim.network.dense_step = dense
    if dense:
        sim.network._rebuild_active_sets()
    result = sim.run(check_invariants=True)
    d = result.to_dict()
    # Wall-clock profile timings are the one legitimately nondeterministic
    # field.
    d.get("extra", {}).pop("profile", None)
    return d


class TestBitExactness:
    """Active vs dense: identical results over the whole design matrix."""

    def test_all_designs(self, any_design):
        assert _run(_config(any_design), False) == _run(_config(any_design), True)

    @pytest.mark.parametrize("design", ["dxbar_dor", "unified_wf"])
    def test_full_fault_run(self, design):
        cfg = _config(
            design, offered_load=0.25, faults=FaultConfig(percent=100, seed=3)
        )
        assert _run(cfg, False) == _run(cfg, True)

    def test_crosspoint_fault_run(self):
        cfg = _config(
            "dxbar_dor",
            offered_load=0.25,
            faults=FaultConfig(percent=50, granularity="crosspoint", seed=5),
        )
        assert _run(cfg, False) == _run(cfg, True)

    @pytest.mark.parametrize("design", ["dxbar_dor", "unified_dor"])
    @pytest.mark.parametrize("granularity", ["crossbar", "crosspoint"])
    def test_mid_measurement_fault_grid(self, design, granularity):
        """Faults manifesting inside the measurement window (warmup is 50
        cycles, manifest window 250) flip routers to degraded mode while
        measured traffic is in flight."""
        faults = FaultConfig(percent=50, granularity=granularity, manifest_window=250)
        cfg = _config(design, faults=faults)
        assert _run(cfg, False) == _run(cfg, True)

    def test_closed_loop_run(self):
        cfg = _config("dxbar_dor", max_cycles=3000)
        assert _run(cfg, False) == _run(cfg, True)


class TestActiveSets:
    def test_sets_empty_when_quiescent(self, bench_factory):
        b = bench_factory("dxbar_dor")
        b.inject(0, 5)
        b.run_until_quiescent()
        b.step(3)  # let links/channels drain out of the active sets
        net = b.network
        assert net._active_routers == set()
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

    def test_dense_to_active_toggle_matches(self):
        """Switching walks mid-run (with the documented rebuild) lands on
        the same trajectory as an all-active run."""
        cfg = _config("dxbar_dor")
        mixed = Simulator(cfg)
        mixed.network.dense_step = True
        mixed.network._rebuild_active_sets()
        for _ in range(150):
            mixed.workload.tick(mixed.network.cycle, mixed.network)
            mixed.network.step()
        mixed.network.dense_step = False
        mixed.network._rebuild_active_sets()

        pure = Simulator(cfg)
        for _ in range(150):
            pure.workload.tick(pure.network.cycle, pure.network)
            pure.network.step()

        a = mixed.run()
        b = pure.run()
        da, db = a.to_dict(), b.to_dict()
        da.get("extra", {}).pop("profile", None)
        db.get("extra", {}).pop("profile", None)
        assert da == db

    def test_checkpoint_resume_rebuilds_active_sets(self):
        """Active sets are derived state: a checkpoint round-trip mid-run
        must continue on the identical trajectory."""
        cfg = _config("buffered8")
        orig = Simulator(cfg)
        for _ in range(200):
            orig.workload.tick(orig.network.cycle, orig.network)
            orig.network.step()
        snap = orig.state_dict()

        resumed = Simulator(cfg)
        resumed.load_state_dict(snap)
        assert resumed.network._active_routers == orig.network._active_routers
        assert resumed.network._active_links == orig.network._active_links
        assert resumed.network._active_channels == orig.network._active_channels

        a = orig.run()
        b = resumed.run()
        da, db = a.to_dict(), b.to_dict()
        da.get("extra", {}).pop("profile", None)
        db.get("extra", {}).pop("profile", None)
        assert da == db


class TestConservationEveryCycle:
    """Flit conservation must hold at *every* cycle boundary of the
    activity-scheduled walk, not just at the engine's periodic checks."""

    @pytest.mark.parametrize("design", ["flit_bless", "buffered4"])
    def test_conservation_each_cycle(self, design):
        cfg = _config(design, warmup_cycles=0, measure_cycles=250, drain_cycles=150)
        sim = Simulator(cfg)
        net = sim.network
        for _ in range(cfg.total_cycles):
            sim.workload.tick(net.cycle, net)
            net.step()
            net.check_conservation()


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
        cfg = _config(
            "dxbar_dor",
            warmup_cycles=5,
            measure_cycles=5,
            drain_cycles=0,
            max_cycles=500,
        )
        inject_at = 50
        assert cfg.warmup_cycles + cfg.measure_cycles < inject_at
        wl = self.LateInjector(inject_at)
        sim = Simulator(cfg, workload=wl)
        r = sim.run()
        assert r.injected_flits == 2
        assert r.ejected_flits == 2
        assert r.measured_packets_completed == 1
        assert r.avg_flit_latency > 0
