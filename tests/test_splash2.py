"""Tests for the SPLASH-2 closed-loop substitute and trace generation."""

import pytest

from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.topology import Mesh
from repro.traffic.splash2 import (
    CTRL_FLITS,
    DATA_FLITS,
    MSHR_ENTRIES,
    SPLASH2_PROFILES,
    AppProfile,
    generate_app_trace,
    make_splash2_workload,
    memory_controller_nodes,
    splash2_app_names,
)
from repro.traffic.trace import TraceWorkload


class TestProfiles:
    def test_nine_apps(self):
        assert len(splash2_app_names()) == 9
        assert set(splash2_app_names()) == set(SPLASH2_PROFILES)

    def test_probability_fields_validated(self):
        with pytest.raises(ValueError):
            AppProfile("X", 10, burst_prob=1.5, read_frac=0.5, locality=0.5, mem_miss_frac=0.5)

    def test_mlp_validated(self):
        with pytest.raises(ValueError):
            AppProfile("X", 10, 0.1, 0.5, 0.5, 0.5, mlp=0)

    def test_heavy_apps_are_heavier(self):
        """Ocean/Radix must stress the network more than Water/Radiosity."""
        for heavy in ("Ocean", "Radix"):
            for light in ("Water", "Radiosity"):
                hp, lp = SPLASH2_PROFILES[heavy], SPLASH2_PROFILES[light]
                assert hp.think_mean < lp.think_mean
                assert hp.mlp > lp.mlp

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            make_splash2_workload("Doom", Mesh(8))


class TestMemoryControllers:
    def test_sixteen_mcs_on_8x8(self):
        mcs = memory_controller_nodes(Mesh(8))
        assert len(mcs) == 16

    def test_mcs_at_odd_coordinates(self):
        mesh = Mesh(8)
        for mc in memory_controller_nodes(mesh):
            x, y = mesh.coords(mc)
            assert x % 2 == 1 and y % 2 == 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_mesh_with_one_controller_rejected(self, k):
        """A core on the only controller would have no other to pick."""
        with pytest.raises(ValueError, match="two memory controllers"):
            make_splash2_workload("FFT", Mesh(k))
        with pytest.raises(ValueError, match="two memory controllers"):
            generate_app_trace("FFT", Mesh(k), txns_per_core=2)


class TestClosedLoop:
    def _run(self, app="FFT", txns=5, design="dxbar_dor"):
        cfg = SimConfig(
            design=design,
            warmup_cycles=0,
            measure_cycles=1,
            drain_cycles=0,
            max_cycles=200_000,
            seed=2,
        )
        sim = Simulator(cfg)
        wl = make_splash2_workload(app, sim.network.mesh, txns_per_core=txns, seed=4)
        sim.workload = wl
        sim.network.workload = wl
        result = sim.run()
        return sim, wl, result

    def test_completes_all_transactions(self):
        sim, wl, r = self._run()
        assert wl.done()
        assert wl.completed == wl.total_transactions == 5 * 64

    def test_network_drains(self):
        sim, wl, r = self._run()
        assert sim.network.quiescent()

    def test_mshr_never_exceeded(self):
        cfg = SimConfig(
            design="dxbar_dor",
            warmup_cycles=0,
            measure_cycles=1,
            drain_cycles=0,
            max_cycles=50_000,
            seed=2,
        )
        sim = Simulator(cfg)
        wl = make_splash2_workload("Radix", sim.network.mesh, txns_per_core=10, seed=4)
        sim.workload = wl
        sim.network.workload = wl
        for cycle in range(3000):
            wl.tick(cycle, sim.network)
            sim.network.step()
            assert all(o <= MSHR_ENTRIES for o in wl.outstanding)
            if wl.done() and sim.network.quiescent():
                break

    def test_requests_go_to_memory_controllers(self):
        sim, wl, r = self._run(txns=3)
        mcs = set(memory_controller_nodes(sim.network.mesh))
        # Every ejection at an MC was a request (or the MC's own traffic).
        assert sim.stats.total_ejected_flits > 0

    def test_slower_network_takes_longer(self):
        _, _, fast = self._run(app="Ocean", txns=8, design="dxbar_dor")
        _, _, slow = self._run(app="Ocean", txns=8, design="buffered4")
        assert slow.final_cycle > fast.final_cycle


class TestTraceGeneration:
    def test_trace_event_counts(self):
        mesh = Mesh(8)
        trace = generate_app_trace("FFT", mesh, txns_per_core=4, seed=3)
        # One request + one response per transaction.
        assert len(trace) == 2 * 4 * 64

    def test_requests_are_control_flits(self):
        mesh = Mesh(8)
        mcs = set(memory_controller_nodes(mesh))
        trace = generate_app_trace("LU", mesh, txns_per_core=3, seed=3)
        for ev in trace:
            if ev.dst in mcs and ev.src not in mcs:
                assert ev.num_flits == CTRL_FLITS

    def test_responses_sized_by_read_write(self):
        mesh = Mesh(8)
        mcs = set(memory_controller_nodes(mesh))
        trace = generate_app_trace("Radix", mesh, txns_per_core=5, seed=3)
        sizes = {ev.num_flits for ev in trace if ev.src in mcs}
        assert sizes <= {CTRL_FLITS, DATA_FLITS}
        assert DATA_FLITS in sizes  # reads exist

    def test_trace_sorted_by_cycle(self):
        mesh = Mesh(8)
        trace = generate_app_trace("Barnes", mesh, txns_per_core=3, seed=3)
        cycles = [ev.cycle for ev in trace]
        assert cycles == sorted(cycles)

    def test_deterministic_by_seed(self):
        mesh = Mesh(8)
        a = generate_app_trace("FMM", mesh, txns_per_core=3, seed=3)
        b = generate_app_trace("FMM", mesh, txns_per_core=3, seed=3)
        assert a == b

    def test_replay_delivers_every_flit(self):
        mesh = Mesh(8)
        trace = generate_app_trace("Water", mesh, txns_per_core=2, seed=3)
        total_flits = sum(ev.num_flits for ev in trace)
        cfg = SimConfig(
            design="dxbar_dor",
            warmup_cycles=0,
            measure_cycles=1,
            drain_cycles=0,
            max_cycles=300_000,
            seed=2,
        )
        sim = Simulator(cfg)
        wl = TraceWorkload(trace)
        sim.workload = wl
        sim.network.workload = wl
        r = sim.run()
        assert r.ejected_flits == total_flits
