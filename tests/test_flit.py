"""Unit tests for the flit/packet model."""

from repro.core.arbiters import age_key
from repro.sim.flit import Flit, make_packet


class TestFlit:
    def test_age_key_orders_older_first(self):
        old = Flit(0, 0, src=0, dst=1, injected_cycle=5)
        young = Flit(1, 1, src=0, dst=1, injected_cycle=9)
        assert age_key(old) < age_key(young)

    def test_age_tiebreak_by_packet_id(self):
        a = Flit(0, 3, src=0, dst=1, injected_cycle=5)
        b = Flit(1, 7, src=0, dst=1, injected_cycle=5)
        assert age_key(a) < age_key(b)

    def test_age_tiebreak_by_flit_index(self):
        a, b = make_packet(0, 3, src=0, dst=1, cycle=5, num_flits=2, measured=True)
        assert age_key(a) < age_key(b)

    def test_counters_start_zero(self):
        f = Flit(0, 0, src=0, dst=1, injected_cycle=0)
        assert f.hops == 0
        assert f.deflections == 0
        assert f.buffered_events == 0
        assert f.retransmits == 0

    def test_network_entry_unset(self):
        f = Flit(0, 0, src=0, dst=1, injected_cycle=0)
        assert f.network_entry_cycle == -1

    def test_reply_tag_threading(self):
        f = Flit(0, 0, src=0, dst=1, injected_cycle=0, reply_tag=("req", 3, True))
        assert f.reply_tag == ("req", 3, True)


class TestMakePacket:
    def test_packet_flit_count(self):
        flits = make_packet(10, 2, src=0, dst=5, cycle=7, num_flits=4, measured=True)
        assert len(flits) == 4

    def test_flit_ids_consecutive(self):
        flits = make_packet(10, 2, src=0, dst=5, cycle=7, num_flits=4, measured=True)
        assert [f.fid for f in flits] == [10, 11, 12, 13]

    def test_every_flit_is_head(self):
        """DXbar requires every flit to carry full routing state."""
        flits = make_packet(0, 0, src=3, dst=9, cycle=2, num_flits=3, measured=False)
        for i, f in enumerate(flits):
            assert (f.src, f.dst) == (3, 9)
            assert f.injected_cycle == 2
            assert f.flit_index == i
            assert f.num_flits == 3
            assert not f.measured

    def test_shared_packet_id(self):
        flits = make_packet(0, 42, src=0, dst=1, cycle=0, num_flits=2, measured=True)
        assert {f.packet_id for f in flits} == {42}


class TestAgeKey:
    """``Flit.age`` is the age key, built once and never serialised."""

    @staticmethod
    def _key(f):
        return (f.injected_cycle, f.packet_id, f.flit_index, f.fid)

    def test_set_at_init(self):
        f = Flit(7, 3, src=0, dst=1, injected_cycle=12, flit_index=1, num_flits=2)
        assert f.age == self._key(f) == (12, 3, 1, 7)
        assert age_key(f) is f.age

    def test_not_serialised_and_rebuilt_by_from_dict(self):
        f = Flit(7, 3, src=0, dst=1, injected_cycle=12, flit_index=1, num_flits=2)
        d = f.to_dict()
        assert "age" not in d
        g = Flit.from_dict(d)
        assert g.age == self._key(g) == f.age

    def test_set_by_vector_materialize(self):
        from repro.sim.vector.store import FlitStore

        f = Flit(9, 4, src=2, dst=5, injected_cycle=30, flit_index=2, num_flits=3)
        store = FlitStore()
        g = store.materialize(store.intern(f.to_dict()))
        assert g.age == self._key(g) == f.age
