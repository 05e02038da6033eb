"""Tests for network construction, wiring and invariants."""

import pytest

from tests.conftest import make_bench, on_walk

from repro.sim.config import FaultConfig, SimConfig
from repro.sim.network import Network
from repro.sim.ports import OPPOSITE
from repro.sim.stats import StatsCollector


def _network(design="dxbar_dor", k=4, **kw):
    cfg = SimConfig(design=design, k=k, **kw)
    return Network(cfg, StatsCollector(cfg.num_nodes))


class TestWiring:
    def test_router_count(self):
        assert len(_network(k=4).routers) == 16

    def test_link_count(self):
        # 2 directions * 2 dims * k * (k-1)
        assert len(_network(k=4).links) == 48

    def test_links_connect_matching_ports(self):
        net = _network(k=4)
        for src, port, dst in net.mesh.edges():
            link = net.routers[src].out_links[port]
            assert link is net.routers[dst].in_links[OPPOSITE[port]]

    def test_credit_channels_only_for_buffered_designs(self):
        assert _network("buffered4").credit_channels
        assert not _network("flit_bless").credit_channels
        assert not _network("dxbar_dor").credit_channels  # bufferless links

    def test_credit_budget_wiring(self):
        net = _network("buffered8", buffer_depth=4)
        center = net.routers[5]
        assert all(c == 8 for c in center.credits.values())

    def test_edge_routers_have_fewer_ports(self):
        net = _network(k=4)
        corner = net.routers[0]
        assert len(corner.in_links) == 2
        assert len(corner.out_links) == 2


class TestInjection:
    def test_inject_packet_fans_out_flits(self):
        net = _network()
        pid = net.inject_packet(0, 5, cycle=0, num_flits=4)
        assert net.active_flits == 4
        assert net.routers[0].source_queue_len == 4

    def test_self_injection_rejected(self):
        net = _network()
        with pytest.raises(ValueError):
            net.inject_packet(3, 3, cycle=0)

    def test_packet_ids_unique(self):
        net = _network()
        ids = {net.inject_packet(0, 1, cycle=0) for _ in range(10)}
        assert len(ids) == 10


class TestFaultApplication:
    def test_fault_plan_applied_to_routers(self):
        cfg = SimConfig(
            design="dxbar_dor", k=4, faults=FaultConfig(percent=50, seed=3)
        )
        net = Network(cfg, StatsCollector(16))
        faulty = [r for r in net.routers if r.fault is not None]
        assert len(faulty) == 8

    def test_no_faults_by_default(self):
        net = _network()
        assert all(r.fault is None for r in net.routers)


class TestConservation:
    def test_conservation_under_load(self, any_design):
        b = make_bench(any_design)
        for i in range(16):
            b.inject(i % 16, (i + 5) % 16)
        for _ in range(30):
            b.step()
            b.network.check_conservation()
        b.run_until_quiescent(max_cycles=2000)
        b.network.check_conservation()
        assert b.stats.total_injected_flits == b.stats.total_ejected_flits

    def test_quiescent_initially(self):
        assert _network().quiescent()


class TestHopPath:
    """The network's latch/shift loops and ``BaseRouter.traverse`` keep the
    link protocol checks that ``BaseRouter.latch``/``Link.step``/
    ``Link.push`` made."""

    @pytest.mark.parametrize("dense", [False, True])
    def test_unlatched_link_head_strands_in_both_walks(self, dense):
        with on_walk("dense" if dense else "sparse"):
            bench = make_bench("flit_bless", k=3)
        bench.router(4).latch_ports = ()  # node 4 never takes its arrivals
        bench.inject(3, 4)
        with pytest.raises(RuntimeError, match="stranded on link 3->4"):
            bench.step(20)

    def test_traverse_onto_a_staged_link_is_double_driven(self):
        from repro.sim.flit import Flit

        bench = make_bench("flit_bless", k=3)
        router = bench.router(4)
        port = next(iter(router.out_links))
        router.traverse(Flit(0, 0, src=4, dst=0, injected_cycle=0), port, 0)
        with pytest.raises(RuntimeError, match="double-driven"):
            router.traverse(Flit(1, 1, src=4, dst=0, injected_cycle=0), port, 0)

    def test_enqueue_packet_matches_enqueue_flit_per_flit(self):
        from repro.sim.flit import make_packet

        a, b = make_bench("dxbar_dor", k=3), make_bench("dxbar_dor", k=3)
        flits_a = make_packet(0, 0, src=4, dst=0, cycle=0, num_flits=3, measured=True)
        flits_b = make_packet(0, 0, src=4, dst=0, cycle=0, num_flits=3, measured=True)
        a.router(4).enqueue_packet(flits_a)
        for flit in flits_b:
            b.router(4).enqueue_flit(flit)
        assert list(a.router(4).inj_queue) == flits_a
        assert a.router(4).counters.snapshot() == b.router(4).counters.snapshot()
        assert a.stats.state_dict() == b.stats.state_dict()
        assert a.network._active_routers == b.network._active_routers
        assert [n for n, flag in enumerate(a.network._active_routers) if flag] == [4]


class TestEjectHook:
    """``on_eject`` is bound when the workload is set, and only when the
    workload's class overrides ``Workload.on_eject``."""

    def test_only_overriding_workloads_are_called(self, monkeypatch):
        from repro.traffic.generator import Workload

        def base_hook(self, flit, cycle, network):
            raise AssertionError("the base class's no-op on_eject was called")

        monkeypatch.setattr(Workload, "on_eject", base_hook)

        class Plain(Workload):
            def tick(self, cycle, network):
                pass

        class Hooked(Plain):
            def __init__(self):
                self.seen = []

            def on_eject(self, flit, cycle, network):
                self.seen.append(flit.fid)

        net = make_bench("flit_bless", k=3).network

        def deliver():
            fid = net._next_flit_id
            net.inject_packet(0, 8, net.cycle, num_flits=1)
            while not net.quiescent():
                net.step()
            return fid

        net.workload = Plain()
        deliver()
        hooked = Hooked()
        net.workload = hooked
        assert hooked.seen == [deliver()]
        net.workload = Plain()
        deliver()
        net.workload = None
        deliver()
        assert len(hooked.seen) == 1
