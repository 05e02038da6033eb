"""Tests for the analytic channel-load / capacity model."""

import pytest

from repro.registry import ROUTING
from repro.routing.base import shared_routing
from repro.routing.capacity import (
    average_hops,
    channel_capacity,
    channel_loads,
    max_channel_load,
    mesh_capacity,
)
from repro.routing.dor import DORRouting
from repro.sim.ports import Port
from repro.sim.topology import Mesh
from repro.traffic.patterns import make_pattern, pattern_names


@pytest.fixture(scope="module")
def mesh():
    return Mesh(8)


class TestChannelLoads:
    def test_neighbor_pattern_unit_loads(self, mesh):
        """NB only uses eastbound hops: every east channel (plus wraps via
        the row) carries exactly its source's traffic."""
        nb = make_pattern("NB", mesh)
        loads = channel_loads(nb, mesh)
        east_loads = [v for (n, p), v in loads.items() if p == Port.EAST]
        assert east_loads  # plenty of east channels in use
        # The wrap column 7 -> 0 routes west across the whole row, so west
        # channels carry the wrap traffic; all loads stay small.
        assert max(loads.values()) <= 7.0

    def test_ur_max_load_at_bisection(self, mesh):
        """Known result for XY/UR on an even mesh: the bisection channels
        carry k/4 * (k/2)/(N-1)*N ~ 2.03 at unit injection."""
        ur = make_pattern("UR", mesh)
        lmax = max_channel_load(ur, mesh)
        assert 1.9 < lmax < 2.2

    def test_loads_conserve_total_hops(self, mesh):
        """Sum of channel loads equals expected hops per injected flit * N."""
        ur = make_pattern("UR", mesh)
        loads = channel_loads(ur, mesh)
        total = sum(loads.values())
        hops = average_hops(ur, mesh)
        assert abs(total - hops * 64) < 1e-6


class TestCapacity:
    def test_ur_capacity(self, mesh):
        ur = make_pattern("UR", mesh)
        cap = channel_capacity(ur, mesh)
        assert 0.45 < cap < 0.53

    def test_neighbor_capacity_is_high(self, mesh):
        nb = make_pattern("NB", mesh)
        assert channel_capacity(nb, mesh) >= 0.5

    def test_complement_is_adversarial(self, mesh):
        cp = make_pattern("CP", mesh)
        ur = make_pattern("UR", mesh)
        assert channel_capacity(cp, mesh) < channel_capacity(ur, mesh)

    def test_capacity_capped_at_injection_bandwidth(self, mesh):
        nb = make_pattern("NB", mesh)
        assert channel_capacity(nb, mesh) <= 1.0

    def test_explicit_routing_accepted(self, mesh):
        ur = make_pattern("UR", mesh)
        cap = channel_capacity(ur, mesh, DORRouting(mesh))
        assert cap == pytest.approx(channel_capacity(ur, mesh))


class TestAverageHops:
    def test_ur_average(self, mesh):
        """Mean UR distance on 8x8: 2 * (k/3 * (k^2-1)/k^2 ...) ~ 5.33."""
        ur = make_pattern("UR", mesh)
        assert 5.2 < average_hops(ur, mesh) < 5.5

    def test_neighbor_short(self, mesh):
        nb = make_pattern("NB", mesh)
        # 7 of 8 columns hop once east; the wrap column walks 7 hops west.
        assert average_hops(nb, mesh) == pytest.approx((7 * 1 + 7) / 8)

    def test_complement_long(self, mesh):
        cp = make_pattern("CP", mesh)
        assert average_hops(cp, mesh) > average_hops(make_pattern("UR", mesh), mesh)


class TestMemoisedCapacity:
    @pytest.mark.parametrize("k", [3, 4, 5, 8])
    @pytest.mark.parametrize("routing", ROUTING.names())
    def test_equals_the_reference_walk(self, routing, k):
        """Every registered routing x pattern: the memoised capacity on the
        shared table is the walk on a freshly built one, bit for bit."""
        cls = ROUTING.get(routing)
        mesh = Mesh(k)
        for name in pattern_names():
            try:
                pattern = make_pattern(name, mesh)
            except ValueError:
                # e.g. a power-of-two pattern on 3x3: the memo refuses too
                with pytest.raises(ValueError):
                    mesh_capacity(k, name, cls)
                continue
            want = channel_capacity(pattern, mesh, cls(mesh))
            assert mesh_capacity(k, name, cls) == want
            assert mesh_capacity(k, name, cls) == want  # memoised

    def test_tables_are_shared_per_class_and_radix(self):
        dor = shared_routing(DORRouting, 4)
        assert shared_routing(DORRouting, 4) is dor
        assert shared_routing(DORRouting, 5) is not dor
        fresh = DORRouting(Mesh(4))
        assert dor._table == fresh._table

    def test_a_new_class_under_an_old_name_gets_its_own_table(self):
        class OtherDOR(DORRouting):
            pass

        assert shared_routing(OtherDOR, 4) is not shared_routing(DORRouting, 4)
        assert type(shared_routing(OtherDOR, 4)) is OtherDOR
