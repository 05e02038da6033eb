"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager

import pytest

import repro.sim.network as network_mod
from repro.sim.config import SimConfig
from repro.sim.network import Network
from repro.sim.stats import StatsCollector
from repro.sim.topology import Mesh


@pytest.fixture
def mesh8() -> Mesh:
    return Mesh(8)


@pytest.fixture
def mesh4() -> Mesh:
    return Mesh(4)


class Bench:
    """A small harness that drives a Network directly.

    Tests inject explicit packets and step the clock, then inspect routers,
    stats and delivered flits.
    """

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.stats = StatsCollector(config.num_nodes)
        # Everything measured unless a test overrides the window.
        self.stats.set_window(0, 10**9)
        self.network = Network(config, self.stats)
        self.delivered = []  # (flit, cycle)
        self.network.workload = self

    # Workload interface: record ejections, never inject on tick.
    def tick(self, cycle, network) -> None:  # pragma: no cover - unused
        pass

    def on_eject(self, flit, cycle, network) -> None:
        self.delivered.append((flit, cycle))

    def done(self) -> bool:  # pragma: no cover - unused
        return False

    # ------------------------------------------------------------------
    def inject(self, src: int, dst: int, num_flits: int = 1, reply_tag=None) -> int:
        return self.network.inject_packet(
            src, dst, self.network.cycle, num_flits=num_flits, measured=True,
            reply_tag=reply_tag,
        )

    def step(self, cycles: int = 1) -> None:
        for _ in range(cycles):
            self.network.step()

    def run_until_quiescent(self, max_cycles: int = 5000) -> int:
        """Step until every injected flit is delivered; returns cycles used."""
        start = self.network.cycle
        while not self.network.quiescent():
            if self.network.cycle - start > max_cycles:
                raise AssertionError(
                    f"network failed to drain within {max_cycles} cycles; "
                    f"{self.network.active_flits} flits still in flight"
                )
            self.network.step()
        return self.network.cycle - start

    def router(self, node: int):
        return self.network.routers[node]

    def delivered_fids(self):
        return sorted(f.fid for f, _ in self.delivered)

    def counter_total(self, name: str) -> int:
        """One ``RouterCounters`` field summed over the mesh."""
        return sum(getattr(r.counters, name) for r in self.network.routers)


def make_bench(design: str, k: int = 4, **overrides) -> Bench:
    """Build a Bench over a small mesh of the given design."""
    defaults = dict(
        design=design,
        k=k,
        warmup_cycles=0,
        measure_cycles=10**6,
        drain_cycles=0,
        packet_size=1,
        seed=1,
    )
    defaults.update(overrides)
    return Bench(SimConfig(**defaults))


def run_digest(config: SimConfig):
    """Run ``config`` to completion; return its report dict and the sha256
    of the report's sorted JSON (the golden-run pin)."""
    from repro.sim.engine import Simulator

    report = Simulator(config).run().to_dict()
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    return report, digest


#: Walks as busy-switch thresholds (enter, exit), in flits per router: the
#: differential reference, the active walk alone, and a switch that flips often.
WALKS = {"dense": (0.0, 0.0), "sparse": (math.inf, math.inf), "flip": (2.0, 2.0)}


@contextmanager
def on_walk(walk: str):
    """Networks built inside the block take ``walk`` (a :data:`WALKS` key);
    the thresholds are read at construction."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network_mod, "BUSY_ENTER_PER_ROUTER", WALKS[walk][0])
        mp.setattr(network_mod, "BUSY_EXIT_PER_ROUTER", WALKS[walk][1])
        yield


@pytest.fixture
def bench_factory():
    return make_bench


ALL_DESIGNS = (
    "flit_bless",
    "scarab",
    "buffered4",
    "buffered8",
    "dxbar_dor",
    "dxbar_wf",
    "unified_dor",
    "unified_wf",
    "afc",
)


@pytest.fixture(params=ALL_DESIGNS)
def any_design(request) -> str:
    return request.param
