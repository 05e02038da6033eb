"""Unit tests for the stats collector and SimResult."""

import pytest

from repro.sim.config import SimConfig, TelemetryConfig
from repro.sim.engine import Simulator
from repro.sim.flit import Flit
from repro.sim.stats import StatsCollector
from repro.traffic.trace import TraceEvent, TraceWorkload


def _flit(fid=0, pid=0, src=0, dst=1, t0=0, measured=True, num_flits=1, idx=0):
    return Flit(
        fid, pid, src, dst, injected_cycle=t0, measured=measured,
        num_flits=num_flits, flit_index=idx,
    )


class TestCounters:
    def test_injection_counts(self):
        s = StatsCollector(4)
        s.set_window(0, 100)
        s.record_flit_injection(_flit())
        s.record_flit_injection(_flit(measured=False))
        assert s.total_injected_flits == 2
        assert s.injected_flits == 1

    def test_window_throughput_counts_all_flits(self):
        """Throughput counts every ejection in the window, measured or not
        (backlog draining must be visible)."""
        s = StatsCollector(4)
        s.set_window(10, 20)
        s.record_ejection(_flit(measured=False), cycle=15)
        assert s.ejected_in_window == 1
        s.record_ejection(_flit(fid=1, pid=1), cycle=25)
        assert s.ejected_in_window == 1  # outside the window

    def test_latency_only_from_measured(self):
        s = StatsCollector(4)
        s.set_window(0, 100)
        s.record_ejection(_flit(t0=2, measured=False), cycle=10)
        assert s.flit_latency_sum == 0
        s.record_ejection(_flit(fid=1, pid=1, t0=2), cycle=10)
        assert s.flit_latency_sum == 8

    def test_per_node_accounting(self):
        s = StatsCollector(4)
        s.set_window(0, 100)
        s.record_flit_injection(_flit(src=2))
        s.record_ejection(_flit(dst=3), cycle=1)
        assert s.per_node_injected[2] == 1
        assert s.per_node_ejected[3] == 1


class TestWindowEdges:
    def test_pre_window_flit_ejected_inside_window(self):
        """A flit injected before the window but ejected inside it counts
        toward window throughput but not toward measured-cohort stats, and
        its packet completes without entering the measured bookkeeping."""
        s = StatsCollector(4)
        s.set_window(10, 20)
        s.record_packet_injection(0, cycle=5, num_flits=1, measured=False)
        f = _flit(pid=0, t0=5, measured=False)
        s.record_flit_injection(f)
        s.record_ejection(f, cycle=15)
        assert s.ejected_in_window == 1
        assert s.ejected_flits == 0
        assert s.flit_latency_sum == 0
        assert s.packets_completed == 1
        assert s.packet_latencies == []
        assert s.measured_pending == 0
        assert s.injected_flits == 0
        assert s.total_injected_flits == 1

    def test_zero_length_window(self):
        s = StatsCollector(4)
        s.set_window(10, 10)
        assert not s.in_window(10)
        assert not s.in_window(9)
        s.record_ejection(_flit(measured=False), cycle=10)
        assert s.ejected_in_window == 0
        r = s.result(
            design="dxbar_dor", offered_load=0.1, capacity=1.0,
            cycles=10, final_cycle=10,
        )
        assert r.accepted_load == 0.0

    def test_backwards_window_rejected(self):
        s = StatsCollector(4)
        with pytest.raises(ValueError):
            s.set_window(20, 10)

    def test_window_boundaries_half_open(self):
        s = StatsCollector(4)
        s.set_window(10, 20)
        assert s.in_window(10)
        assert not s.in_window(20)

    def test_closed_loop_rewindows_to_whole_run(self):
        """Closed-loop runs re-window to [0, final_cycle] so every ejection
        lands inside the window and accepted load is realised throughput."""
        cfg = SimConfig(
            design="dxbar_dor", k=4, warmup_cycles=0, measure_cycles=1,
            drain_cycles=0, seed=3, max_cycles=10_000,
        )
        sim = Simulator(cfg)
        wl = TraceWorkload(
            [TraceEvent(0, 0, 5, 2), TraceEvent(2, 3, 12, 1), TraceEvent(40, 9, 1, 2)]
        )
        sim.workload = wl
        sim.network.workload = wl
        r = sim.run()
        assert sim.stats.measure_start == 0
        assert sim.stats.measure_end == r.final_cycle
        assert sim.stats.ejected_in_window == sim.stats.total_ejected_flits == 5
        assert r.accepted_flits_per_node_cycle == pytest.approx(
            5 / (16 * r.final_cycle)
        )


class TestPacketReassembly:
    def test_packet_completes_after_all_flits(self):
        s = StatsCollector(4)
        s.set_window(0, 100)
        s.record_packet_injection(7, cycle=0, num_flits=2, measured=True)
        s.record_ejection(_flit(fid=0, pid=7, num_flits=2, idx=0), cycle=5)
        assert s.packets_completed == 0
        s.record_ejection(_flit(fid=1, pid=7, num_flits=2, idx=1), cycle=9)
        assert s.packets_completed == 1
        assert s.packet_latencies == [9]

    def test_unknown_packet_ignored(self):
        s = StatsCollector(4)
        s.set_window(0, 100)
        s.record_ejection(_flit(pid=99), cycle=5)  # no matching injection
        assert s.packets_completed == 0


class TestDrops:
    def test_record_drop_keeps_packet_pending(self):
        """SCARAB semantics: a dropped flit will be retransmitted, so the
        packet stays pending and still completes on the retransmitted
        ejection."""
        s = StatsCollector(4)
        s.set_window(0, 100)
        s.record_packet_injection(7, cycle=0, num_flits=1, measured=True)
        s.record_drop(_flit(pid=7))
        assert s.measured_pending == 1
        assert s.drops == 1
        s.record_ejection(_flit(pid=7), cycle=9)
        assert s.packets_completed == 1
        assert s.measured_pending == 0

    def test_terminal_drop_releases_pending(self):
        """A terminal drop (no retransmission) must release the packet's
        reassembly state — above all ``measured_pending``, which gates the
        engine's drain loop."""
        s = StatsCollector(4)
        s.set_window(0, 100)
        s.record_packet_injection(7, cycle=0, num_flits=2, measured=True)
        assert s.measured_pending == 1
        s.record_terminal_drop(_flit(fid=0, pid=7, num_flits=2, idx=0))
        assert s.measured_pending == 0
        assert s.total_dropped_flits == 1
        assert s.drops == 1
        # A straggler sibling flit that still gets delivered is harmless:
        # the packet was written off, nothing double-counts.
        s.record_ejection(_flit(fid=1, pid=7, num_flits=2, idx=1), cycle=5)
        assert s.packets_completed == 0
        assert s.measured_pending == 0
        assert s.packet_latencies == []

    def test_terminal_drop_of_unmeasured_packet(self):
        s = StatsCollector(4)
        s.set_window(0, 100)
        s.record_packet_injection(3, cycle=0, num_flits=1, measured=False)
        s.record_terminal_drop(_flit(pid=3, measured=False))
        assert s.measured_pending == 0
        assert s.drops == 0  # unmeasured: raw total only
        assert s.total_dropped_flits == 1


def _asdict_form(r):
    """``SimResult.to_dict`` as it was built on ``dataclasses.asdict``."""
    from dataclasses import asdict

    d = asdict(r)
    d["total_energy_nj"] = r.total_energy_nj
    d["energy_per_packet_nj"] = r.energy_per_packet_nj
    d["energy_per_flit_pj"] = r.energy_per_flit_pj
    profile = r.extra.get("profile")
    if profile:
        d["profile"] = profile
    return d


class TestResultDict:
    @pytest.fixture(scope="class")
    def result(self):
        cfg = SimConfig(design="dxbar_dor", k=4, offered_load=0.3, warmup_cycles=20,
                        measure_cycles=60, drain_cycles=40,
                        telemetry=TelemetryConfig(profile=True))
        return Simulator(cfg).run()

    def test_same_json_as_asdict(self, result):
        import json

        assert result.extra.get("profile")  # the nested section is covered
        want = _asdict_form(result)
        got = result.to_dict()
        assert list(got) == list(want)
        assert json.dumps(got) == json.dumps(want)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_mutating_the_dict_leaves_the_result(self, result):
        import json

        before = json.dumps(result.to_dict())
        d = result.to_dict()
        d["per_router"][0]["deflections"] = -1
        d["per_router"].append({})
        d["per_node"]["injected"][0] = -1
        d["per_node"]["new"] = []
        d["extra"]["router_counter_totals"]["x"] = 1
        d["extra"]["fault_nodes"].append(99)
        d["extra"]["profile"].clear()
        d["profile"].clear()
        assert json.dumps(result.to_dict()) == before


class TestResult:
    def _collector(self):
        s = StatsCollector(4)
        s.set_window(0, 100)
        return s

    def test_accepted_load_normalisation(self):
        s = self._collector()
        s.record_packet_injection(0, 0, 1, True)
        s.record_ejection(_flit(), cycle=50)
        r = s.result(
            design="dxbar_dor",
            offered_load=0.5,
            capacity=1.0,
            cycles=100,
            final_cycle=100,
        )
        assert r.accepted_load == pytest.approx(1 / (4 * 100))

    def test_energy_totals(self):
        s = self._collector()
        s.energy_buffer_pj = 1000.0
        s.energy_link_pj = 500.0
        r = s.result(
            design="dxbar_dor", offered_load=0.1, capacity=1.0, cycles=10, final_cycle=10
        )
        assert r.total_energy_nj == pytest.approx(1.5)

    def test_energy_per_packet_zero_when_no_packets(self):
        s = self._collector()
        r = s.result(
            design="dxbar_dor", offered_load=0.1, capacity=1.0, cycles=10, final_cycle=10
        )
        assert r.energy_per_packet_nj == 0.0
        assert r.energy_per_flit_pj == 0.0

    def test_buffered_fraction_zero_only_when_both_zero(self):
        """0.0 must mean "no buffering happened", never "no data": with
        zero hops the fraction is 0.0 only when there were also zero
        buffered events."""
        s = self._collector()
        r = s.result(
            design="dxbar_dor", offered_load=0.1, capacity=1.0, cycles=10, final_cycle=10
        )
        assert r.buffered_fraction == 0.0

    def test_buffered_fraction_saturates_without_hops(self):
        # Buffered events with hops_sum == 0 (e.g. a window that closed
        # before any measured flit left its first router) must not be
        # reported as a perfectly bufferless 0.0.
        s = self._collector()
        s.buffered_flit_events = 3
        r = s.result(
            design="dxbar_dor", offered_load=0.1, capacity=1.0, cycles=10, final_cycle=10
        )
        assert r.buffered_fraction == 1.0

    def test_buffered_fraction_is_ratio(self):
        s = self._collector()
        s.buffered_flit_events = 3
        s.hops_sum = 12
        r = s.result(
            design="dxbar_dor", offered_load=0.1, capacity=1.0, cycles=10, final_cycle=10
        )
        assert r.buffered_fraction == pytest.approx(0.25)

    def test_energy_fallback_divides_by_measured_completions(self):
        """Regression: the fallback path divided measured-only energy
        totals by ``packets_completed``, which also counts unmeasured
        warmup/drain packets — understating per-packet energy whenever the
        warmup was nonzero."""
        s = self._collector()
        s.packet_latencies = [5] * 5  # 5 measured completions...
        s.packet_energies_pj = []  # ...but no per-packet energy recorded
        s.packets_completed = 20  # 15 further unmeasured completions
        s.energy_xbar_pj = 10_000.0  # 10 nJ, accumulated for measured flits
        r = s.result(
            design="dxbar_dor", offered_load=0.1, capacity=1.0, cycles=10, final_cycle=10
        )
        assert r.avg_packet_energy_nj == 0.0
        assert r.measured_packets_completed == 5
        assert r.packets_completed == 20
        assert r.energy_per_packet_nj == pytest.approx(10.0 / 5)

    def test_energy_fallback_with_warmup_run(self):
        """Same bug at integration level: a run with a nonzero warmup has
        packets_completed > measured_packets_completed, and the fallback
        must normalise by the measured count."""
        from dataclasses import replace

        cfg = SimConfig(
            design="dxbar_dor", k=4, offered_load=0.2, warmup_cycles=100,
            measure_cycles=300, drain_cycles=400, packet_size=2, seed=3,
        )
        r = Simulator(cfg).run()
        assert r.packets_completed > r.measured_packets_completed > 0
        fallback = replace(r, avg_packet_energy_nj=0.0)
        assert fallback.energy_per_packet_nj == pytest.approx(
            r.total_energy_nj / r.measured_packets_completed
        )

    def test_extra_dict_preserved(self):
        s = self._collector()
        r = s.result(
            design="dxbar_dor",
            offered_load=0.1,
            capacity=1.0,
            cycles=10,
            final_cycle=10,
            extra={"pattern": "UR"},
        )
        assert r.extra["pattern"] == "UR"
