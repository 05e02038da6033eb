"""Tests for trace events, replay and file I/O."""

import pytest

from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.traffic.trace import (
    EVENT_ORDER,
    TraceEvent,
    TraceWorkload,
    read_trace,
    write_trace,
)


class TestTraceEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceEvent(-1, 0, 1)
        with pytest.raises(ValueError):
            TraceEvent(0, 3, 3)
        with pytest.raises(ValueError):
            TraceEvent(0, 0, 1, num_flits=0)

    def test_ordering_by_cycle(self):
        assert TraceEvent(1, 0, 1) < TraceEvent(2, 0, 1)

    def test_sort_key_gives_the_dataclass_order(self):
        """Replays sort by ``EVENT_ORDER``, not the generated ``__lt__``:
        the order must be the same, ties on cycle and src included."""
        import random

        events = [
            TraceEvent(c, s, d, n)
            for c in (0, 3) for s in (0, 1) for d in (2, 5) for n in (1, 4)
        ]
        random.Random(1).shuffle(events)
        assert TraceWorkload(events).events == sorted(events)
        assert sorted(events, key=EVENT_ORDER) == sorted(events)

    def test_generated_splash2_trace_is_sorted(self):
        from repro.sim.topology import Mesh
        from repro.traffic.splash2 import generate_app_trace

        trace = generate_app_trace("FFT", Mesh(4), txns_per_core=3, seed=5)
        assert trace == sorted(trace)


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        events = [
            TraceEvent(5, 1, 2, 4),
            TraceEvent(0, 0, 63, 1),
            TraceEvent(9, 7, 8, 2),
        ]
        path = tmp_path / "t.trace"
        write_trace(events, path)
        back = read_trace(path)
        assert back == sorted(events)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# header\n\n0 1 2 1\n# mid\n3 4 5 2\n")
        assert read_trace(path) == [TraceEvent(0, 1, 2, 1), TraceEvent(3, 4, 5, 2)]

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("0 1 2\n")
        with pytest.raises(ValueError, match="expected 4 fields"):
            read_trace(path)


class TestTraceWorkload:
    def test_replay_injects_at_cycle(self):
        cfg = SimConfig(
            design="dxbar_dor",
            k=4,
            warmup_cycles=0,
            measure_cycles=1,
            drain_cycles=0,
            max_cycles=1000,
            seed=1,
        )
        sim = Simulator(cfg)
        wl = TraceWorkload([TraceEvent(0, 0, 3, 1), TraceEvent(10, 5, 6, 2)])
        sim.workload = wl
        sim.network.workload = wl
        r = sim.run()
        assert r.ejected_flits == 3
        assert wl.done()
        assert wl.remaining == 0

    def test_late_events_fire_when_reached(self):
        cfg = SimConfig(
            design="dxbar_dor",
            k=4,
            warmup_cycles=0,
            measure_cycles=1,
            drain_cycles=0,
            max_cycles=5,
            seed=1,
        )
        sim = Simulator(cfg)
        wl = TraceWorkload([TraceEvent(100, 0, 3, 1)])
        sim.workload = wl
        sim.network.workload = wl
        sim.run()
        assert not wl.done()
        assert wl.remaining == 1
