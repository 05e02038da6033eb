"""Unit and property tests for the arbiters."""

import pytest
from hypothesis import given, strategies as st

from repro.core.arbiters import RoundRobinArbiter, oldest_first, round_robin_table
from repro.sim.flit import Flit


def _mask(indices):
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


class TestRoundRobin:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)

    def test_no_requests_no_grant(self):
        assert RoundRobinArbiter(4).grant(0) is None

    def test_single_request_wins(self):
        assert RoundRobinArbiter(4).grant(_mask([2])) == 2

    def test_rotates_after_grant(self):
        arb = RoundRobinArbiter(3)
        grants = [arb.grant(_mask([0, 1, 2])) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_strong_fairness(self):
        """A continuously requesting index is served within size grants."""
        arb = RoundRobinArbiter(5)
        waits = 0
        for _ in range(20):
            if arb.grant(_mask([1, 3])) == 3:
                break
            waits += 1
        assert waits < 5

    @given(
        st.lists(
            st.sets(st.integers(0, 4), min_size=1, max_size=5), min_size=1, max_size=40
        )
    )
    def test_grant_always_among_requests(self, rounds):
        arb = RoundRobinArbiter(5)
        for req in rounds:
            got = arb.grant(_mask(req))
            assert got in req

    @pytest.mark.parametrize("size", [1, 3, 5])
    def test_table_is_first_request_at_or_after_pointer(self, size):
        table = round_robin_table(size)
        for ptr in range(size):
            assert table[ptr][0] == -1
            for mask in range(1, 1 << size):
                scan = [(ptr + off) % size for off in range(size)]
                assert table[ptr][mask] == next(i for i in scan if (mask >> i) & 1)


class TestOldestFirst:
    def test_orders_by_injection_cycle(self):
        f1 = Flit(0, 0, 0, 1, injected_cycle=9)
        f2 = Flit(1, 1, 0, 1, injected_cycle=3)
        assert oldest_first([f1, f2]) == [f2, f1]

    def test_stable_total_order(self):
        flits = [
            Flit(i, packet_id=i % 3, src=0, dst=1, injected_cycle=5) for i in range(6)
        ]
        once = oldest_first(flits)
        twice = oldest_first(list(reversed(flits)))
        assert [f.fid for f in once] == [f.fid for f in twice]
