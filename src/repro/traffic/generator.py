"""Open-loop workloads: Bernoulli packet injection of a synthetic pattern.

The paper's methodology (Section III.A): "packets are injected according to
the Bernoulli process based on the given network load".  Offered load is in
flits/node/cycle, so the per-cycle packet probability at each node is
``load / packet_size``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from ..sim.flit import Flit
from ..sim.network import Network
from .patterns import TrafficPattern


class Workload(ABC):
    """Drives injection each cycle; observes ejections."""

    #: True for trace replays, whose ``backend="auto"`` crossover a design
    #: may set apart (``DesignSpec.vector_min_trace_work``).
    is_trace = False

    @abstractmethod
    def tick(self, cycle: int, network: Network) -> None:
        """Inject this cycle's new packets."""

    def on_eject(self, flit: Flit, cycle: int, network: Network) -> None:
        """Ejection callback (closed-loop workloads react here)."""

    def done(self) -> bool:
        """True when a closed-loop workload has completed (open-loop
        workloads are time-bounded and always return False)."""
        return False

    def flits_per_cycle(self) -> Optional[float]:
        """Expected injected flits per cycle for the whole network, the
        figure ``backend="auto"`` weighs against a design's
        ``vector_min_work``.  None (the default) means unknown: the rule
        then reads the config's ``k**2 * offered_load``."""
        return None

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot the workload's mutable state (RNG streams, replay
        cursors, outstanding-transaction bookkeeping).  The base class is
        stateless; stateful subclasses override both methods."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output onto an identically
        constructed workload."""


class BernoulliSynthetic(Workload):
    """Bernoulli packet injection of one synthetic pattern.

    ``inject_until`` bounds injection (typically warmup + measure cycles) so
    the drain phase measures in-flight packets only.
    """

    def __init__(
        self,
        pattern: TrafficPattern,
        load: float,
        packet_size: int,
        seed: int,
        inject_until: Optional[int] = None,
    ) -> None:
        if load < 0:
            raise ValueError("load must be non-negative")
        if packet_size < 1:
            raise ValueError("packet_size must be >= 1")
        self.pattern = pattern
        self.load = load
        self.packet_size = packet_size
        self.packet_prob = min(1.0, load / packet_size)
        self.inject_until = inject_until
        self.rng = np.random.default_rng(seed)
        self._n = pattern.mesh.num_nodes

    def flits_per_cycle(self) -> float:
        # ``load`` is in flits/node/cycle.
        return self._n * self.load

    def tick(self, cycle: int, network: Network) -> None:
        if self.inject_until is not None and cycle >= self.inject_until:
            return
        if self.packet_prob <= 0.0:
            return
        # One vectorised Bernoulli draw per cycle instead of N scalar draws
        # (the injection decision dominates tick time at 64 nodes/cycle).
        fire = np.nonzero(self.rng.random(self._n) < self.packet_prob)[0]
        for src in fire:
            src = int(src)
            dst = self.pattern.sample_dest(src, self.rng)
            if dst is None:
                continue  # the pattern's fixed points do not inject
            network.inject_packet(src, dst, cycle, num_flits=self.packet_size)

    def state_dict(self) -> dict:
        # numpy exposes/accepts the full bit-generator state as a nested
        # dict of ints — JSON-safe and bit-exact.
        return {"rng": self.rng.bit_generator.state}

    def load_state_dict(self, state: dict) -> None:
        self.rng.bit_generator.state = state["rng"]


class SingleShot(Workload):
    """Test helper: inject an explicit list of (cycle, src, dst, nflits)."""

    def __init__(self, events) -> None:
        self.events = sorted(events)
        self._idx = 0

    def tick(self, cycle: int, network: Network) -> None:
        while self._idx < len(self.events) and self.events[self._idx][0] <= cycle:
            _, src, dst, nflits = self.events[self._idx]
            network.inject_packet(src, dst, cycle, num_flits=nflits, measured=True)
            self._idx += 1

    def done(self) -> bool:
        return self._idx >= len(self.events)

    def state_dict(self) -> dict:
        return {"idx": self._idx}

    def load_state_dict(self, state: dict) -> None:
        self._idx = state["idx"]
