"""Differential and unit tests for the activity-scheduled network walk.

The hard requirement: the default walk — ``Network._step_active`` while
the mesh is sparse, the node-ordered full walk while it is busy — must be
*bit-exact* with the dense reference walk (``Network._step_dense``):
identical ``SimResult.to_dict()`` for every design, routing, and fault
level.  The active sets and the busy switch may only change how much
wall-clock a cycle costs, never what it computes.
"""

from __future__ import annotations

import math

import pytest

import repro.sim.network as network_mod
from repro.sim.config import FaultConfig, SimConfig
from repro.sim.engine import Simulator
from repro.sim.topology import Mesh
from repro.traffic.generator import Workload
from repro.traffic.splash2 import generate_app_trace
from repro.traffic.trace import TraceWorkload

#: Busy-switch thresholds (enter, exit), in flits in flight per router,
#: of the walks every differential case runs besides the dense reference
#: and the shipped default: ``sparse`` never leaves the active walk, and
#: ``flip`` switches at 2 flits per router with no hysteresis, which at
#: these loads flips the walk tens of times per run.
SWITCHES = {
    "sparse": (math.inf, math.inf),
    "flip": (2.0, 2.0),
    # Not a differential walk: the busy-phase checkpoint test's switch,
    # busy from 1 flit per router (most of a k=4 run at 0.3 load).
    "early": (1.0, 0.5),
}


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


def _simulator(config: SimConfig, walk: str, workload=None) -> Simulator:
    """A simulator on one walk: ``dense``, ``default`` or a key of
    :data:`SWITCHES` (the thresholds are read at network construction)."""
    with pytest.MonkeyPatch.context() as mp:
        if walk in SWITCHES:
            enter, exit_ = SWITCHES[walk]
            mp.setattr(network_mod, "BUSY_ENTER_PER_ROUTER", enter)
            mp.setattr(network_mod, "BUSY_EXIT_PER_ROUTER", exit_)
        sim = Simulator(config, workload)
    if walk == "dense":
        sim.network.dense_step = True
        sim.network._rebuild_active_sets()
    return sim


def _result(sim: Simulator, **run_kwargs) -> dict:
    d = sim.run(**run_kwargs).to_dict()
    # Wall-clock profile timings are the one legitimately nondeterministic
    # field.
    d.get("extra", {}).pop("profile", None)
    return d


def _assert_walks_agree(config: SimConfig, workload_factory=lambda: None) -> None:
    """Dense, sparse-only, flipping and default walks: identical results."""
    runs = {
        walk: _result(
            _simulator(config, walk, workload_factory()), check_invariants=True
        )
        for walk in ("dense", "sparse", "flip", "default")
    }
    for walk in ("sparse", "flip", "default"):
        assert runs[walk] == runs["dense"], walk


class TestBitExactness:
    """Every walk: identical results over the whole design matrix."""

    def test_all_designs(self, any_design):
        _assert_walks_agree(_config(any_design))

    @pytest.mark.parametrize("design", ["dxbar_dor", "unified_wf"])
    def test_full_fault_run(self, design):
        cfg = _config(
            design, offered_load=0.25, faults=FaultConfig(percent=100, seed=3)
        )
        _assert_walks_agree(cfg)

    def test_crosspoint_fault_run(self):
        cfg = _config(
            "dxbar_dor",
            offered_load=0.25,
            faults=FaultConfig(percent=50, granularity="crosspoint", seed=5),
        )
        _assert_walks_agree(cfg)

    @pytest.mark.parametrize("design", ["dxbar_dor", "unified_dor"])
    @pytest.mark.parametrize("granularity", ["crossbar", "crosspoint"])
    def test_mid_measurement_fault_grid(self, design, granularity):
        """Faults manifesting inside the measurement window (warmup is 50
        cycles, manifest window 250) flip routers to degraded mode while
        measured traffic is in flight."""
        faults = FaultConfig(percent=50, granularity=granularity, manifest_window=250)
        cfg = _config(design, faults=faults)
        _assert_walks_agree(cfg)

    def test_closed_loop_run(self):
        cfg = _config("dxbar_dor", max_cycles=3000)
        _assert_walks_agree(cfg)

    def test_scarab_mid_step_wakes_at_high_load(self):
        """SCARAB's NACKs wake source routers during the step phase; at
        0.4 the walk crosses the busy threshold while they are queued."""
        _assert_walks_agree(_config("scarab", offered_load=0.4))

    @pytest.mark.parametrize("design", ["flit_bless", "buffered4", "unified_dor"])
    def test_trace_replay(self, design):
        """A bursty SPLASH-2 trace (Ocean) drives the mesh in and out of
        the busy phase."""
        trace = generate_app_trace("Ocean", Mesh(4), txns_per_core=12, seed=5)
        cfg = _config(
            design, warmup_cycles=0, measure_cycles=1, drain_cycles=0,
            max_cycles=50_000,
        )
        _assert_walks_agree(cfg, lambda: TraceWorkload(trace))

    def test_flip_walk_flips(self):
        """The ``flip`` thresholds really exercise the hand-back path."""
        cfg = _config("dxbar_dor")
        sim = _simulator(cfg, "flip")
        net = sim.network
        flips, busy = 0, False
        for _ in range(cfg.total_cycles):
            sim.workload.tick(net.cycle, net)
            net.step()
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
        mixed = _simulator(cfg, "dense")
        for _ in range(150):
            mixed.workload.tick(mixed.network.cycle, mixed.network)
            mixed.network.step()
        mixed.network.dense_step = False
        mixed.network._rebuild_active_sets()

        pure = Simulator(cfg)
        for _ in range(150):
            pure.workload.tick(pure.network.cycle, pure.network)
            pure.network.step()

        assert _result(mixed) == _result(pure)

    def test_checkpoint_resume_rebuilds_active_sets(self):
        """Active sets are derived state: a checkpoint round-trip mid-run
        must continue on the identical trajectory.  The original is pinned
        to the active walk, the only phase that maintains the sets."""
        cfg = _config("buffered8")
        orig = _simulator(cfg, "sparse")
        for _ in range(200):
            orig.workload.tick(orig.network.cycle, orig.network)
            orig.network.step()
        snap = orig.state_dict()

        resumed = Simulator(cfg)
        resumed.load_state_dict(snap)
        assert resumed.network._active_routers == orig.network._active_routers
        assert resumed.network._active_links == orig.network._active_links
        assert resumed.network._active_channels == orig.network._active_channels

        assert _result(orig) == _result(resumed)

    def test_checkpoint_in_busy_phase_resumes(self):
        """A snapshot taken while the default walk runs its full-walk
        phase (whose active sets are stale) resumes bit-exactly."""
        cfg = _config("dxbar_dor")
        orig = _simulator(cfg, "early")
        net = orig.network
        while not net._busy_walk and net.cycle < cfg.total_cycles:
            orig.workload.tick(net.cycle, net)
            net.step()
        for _ in range(20):
            orig.workload.tick(net.cycle, net)
            net.step()
        assert net._busy_walk
        snap = orig.state_dict()

        resumed = Simulator(cfg)
        resumed.load_state_dict(snap)
        assert _result(orig) == _result(resumed) == _result(Simulator(cfg))


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
