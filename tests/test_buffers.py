"""Unit and property tests for FlitFIFO."""

import pytest
from hypothesis import given, strategies as st

from repro.core.buffers import FlitFIFO
from repro.sim.flit import Flit


def _flit(fid=0):
    return Flit(fid=fid, packet_id=fid, src=0, dst=1, injected_cycle=0)


class TestFlitFIFO:
    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            FlitFIFO(0)

    def test_fifo_order(self):
        fifo = FlitFIFO(4)
        for i in range(3):
            fifo.push(_flit(i))
        assert [fifo.pop().fid for _ in range(3)] == [0, 1, 2]

    def test_head_is_nondestructive(self):
        fifo = FlitFIFO(4)
        f = _flit()
        fifo.push(f)
        assert fifo.head() is f
        assert len(fifo) == 1

    def test_head_empty(self):
        assert FlitFIFO(2).head() is None

    def test_overflow_raises(self):
        fifo = FlitFIFO(2)
        fifo.push(_flit(0))
        fifo.push(_flit(1))
        assert fifo.full
        with pytest.raises(RuntimeError, match="overflow"):
            fifo.push(_flit(2))

    def test_iteration_order(self):
        fifo = FlitFIFO(4)
        for i in range(4):
            fifo.push(_flit(i))
        assert [f.fid for f in fifo] == [0, 1, 2, 3]

    @given(st.lists(st.booleans(), max_size=80))
    def test_depth_never_exceeded_under_random_ops(self, ops):
        fifo = FlitFIFO(4)
        pushed = popped = 0
        for do_push in ops:
            if do_push:
                if not fifo.full:
                    fifo.push(_flit(pushed))
                    pushed += 1
            else:
                if len(fifo):
                    assert fifo.pop().fid == popped
                    popped += 1
            assert 0 <= len(fifo) <= 4
        assert len(fifo) == pushed - popped
