"""Closed-loop synthetic SPLASH-2 workloads.

The paper collects SPLASH-2 network traces with Simics + GEMS (Tables I and
II: 64 two-issue in-order cores, private 64 KB L1s, 16 x 1 MB L2/directory
tiles with MESI, 16 memory controllers, 80-cycle directory and 160-cycle
memory latencies, 16 MSHR entries).  Full-system simulation is not
available here, so this module substitutes a *closed-loop synthetic
cache-coherence engine* whose traffic has the same structure (DESIGN.md
documents the substitution):

* every core issues read/write misses to its address-mapped directory tile
  (1-flit control request), throttled by a 16-entry MSHR;
* the directory answers after its latency (plus memory latency on a
  miss-to-memory) with a 4-flit data response (64 B line at 128-bit flits)
  or a 1-flit write acknowledgement;
* after a response retires, the core "computes" for a think time drawn from
  a geometric distribution, with an app-specific probability of issuing
  immediately (burstiness);
* per-application profiles set the think time, burstiness, read fraction,
  directory-home locality and memory-miss ratio — calibrated to the
  qualitative load levels reported for these applications in the NoC
  literature (FFT/LU/Water are light, Ocean/Radix heavy and bursty,
  Raytrace hotspotted).

Because the loop is closed, a slower network stretches the time to finish
the fixed transaction count — the paper's "normalized execution time" is
exactly ``final_cycle(design) / final_cycle(baseline)``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..sim.flit import Flit
from ..sim.network import Network
from ..sim.topology import Mesh
from .generator import Workload

#: Directory lookup latency in cycles (paper Table II).
DIRECTORY_LATENCY = 80

#: Main-memory latency in cycles (paper Table II).
MEMORY_LATENCY = 160

#: MSHR entries per core (paper Table II).
MSHR_ENTRIES = 16

#: Flits in a data response: 64-byte cache line over 128-bit flits.
DATA_FLITS = 4

#: Flits in a request or write acknowledgement.
CTRL_FLITS = 1


@dataclass(frozen=True)
class AppProfile:
    """Per-application traffic shape.

    ``think_mean``: mean compute cycles between a retired miss and the next
    issue.  ``burst_prob``: probability the next miss issues back-to-back
    (models miss clustering).  ``read_frac``: GetS vs GetX mix.
    ``locality``: probability a miss targets the core's home directory tile
    instead of a uniformly random one.  ``mem_miss_frac``: fraction of
    directory accesses that also pay the memory latency.  ``mlp``: number of
    independent outstanding-miss chains per core (memory-level parallelism);
    the effective issue window is ``min(mlp, MSHR_ENTRIES)``.
    """

    name: str
    think_mean: float
    burst_prob: float
    read_frac: float
    locality: float
    mem_miss_frac: float
    mlp: int = 4

    def __post_init__(self) -> None:
        for field in ("burst_prob", "read_frac", "locality", "mem_miss_frac"):
            v = getattr(self, field)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{field} must be a probability, got {v}")
        if self.think_mean < 0:
            raise ValueError("think_mean must be non-negative")
        if self.mlp < 1:
            raise ValueError("mlp must be >= 1")


#: The nine applications of Figs 9/10 with their input-set-scaled shapes.
SPLASH2_PROFILES: Dict[str, AppProfile] = {
    "FFT": AppProfile("FFT", think_mean=160, burst_prob=0.30, read_frac=0.75, locality=0.20, mem_miss_frac=0.45, mlp=4),
    "LU": AppProfile("LU", think_mean=220, burst_prob=0.20, read_frac=0.80, locality=0.45, mem_miss_frac=0.30, mlp=3),
    "Radiosity": AppProfile("Radiosity", think_mean=300, burst_prob=0.10, read_frac=0.85, locality=0.50, mem_miss_frac=0.20, mlp=2),
    "Ocean": AppProfile("Ocean", think_mean=25, burst_prob=0.55, read_frac=0.70, locality=0.35, mem_miss_frac=0.50, mlp=16),
    "Raytrace": AppProfile("Raytrace", think_mean=90, burst_prob=0.35, read_frac=0.90, locality=0.10, mem_miss_frac=0.25, mlp=8),
    "Radix": AppProfile("Radix", think_mean=12, burst_prob=0.65, read_frac=0.55, locality=0.25, mem_miss_frac=0.55, mlp=16),
    "Water": AppProfile("Water", think_mean=280, burst_prob=0.10, read_frac=0.85, locality=0.55, mem_miss_frac=0.20, mlp=2),
    "FMM": AppProfile("FMM", think_mean=200, burst_prob=0.20, read_frac=0.80, locality=0.40, mem_miss_frac=0.30, mlp=3),
    "Barnes": AppProfile("Barnes", think_mean=150, burst_prob=0.25, read_frac=0.80, locality=0.30, mem_miss_frac=0.35, mlp=4),
}


def splash2_app_names() -> Tuple[str, ...]:
    """The nine traces in the paper's plotting order."""
    return ("FFT", "LU", "Radiosity", "Ocean", "Raytrace", "Radix", "Water", "FMM", "Barnes")


def memory_controller_nodes(mesh: Mesh) -> List[int]:
    """The 16 directory/MC tiles: one per 2x2 quad (odd x, odd y)."""
    return [
        mesh.node_at(x, y)
        for y in range(1, mesh.k, 2)
        for x in range(1, mesh.k, 2)
    ]


def _placement(mesh: Mesh) -> Tuple[List[int], List[int]]:
    """The memory controllers and each core's home controller (the
    nearest, ties by id).  A core on a controller sends its misses to
    another one (see :func:`_pick_controller`), so a mesh needs two."""
    mcs = memory_controller_nodes(mesh)
    if len(mcs) < 2:
        raise ValueError(
            f"SPLASH-2 traffic needs at least two memory controllers (one per "
            f"2x2 quad); a {mesh.k}x{mesh.k} mesh has {len(mcs)}: use k >= 4"
        )
    home_mc = [min(mcs, key=lambda m: (mesh.manhattan(n, m), m)) for n in mesh.nodes()]
    return mcs, home_mc


def _pick_controller(
    rng: np.random.Generator, profile: AppProfile, mcs: List[int], home_mc: List[int], core: int
) -> int:
    """The controller one miss from ``core`` targets: its home controller
    with probability ``profile.locality``, else a uniform draw."""
    if rng.random() < profile.locality:
        mc = home_mc[core]
    else:
        mc = mcs[int(rng.integers(len(mcs)))]
    if mc == core:
        # A core co-located with its MC picks another controller: the
        # local L2 slice hit would not travel the network at all.
        others = [m for m in mcs if m != core]
        mc = others[int(rng.integers(len(others)))]
    return mc


class Splash2Workload(Workload):
    """Closed-loop MESI-style request/response engine for one application."""

    def __init__(
        self,
        profile: AppProfile,
        mesh: Mesh,
        txns_per_core: int = 200,
        seed: int = 7,
    ) -> None:
        if txns_per_core < 1:
            raise ValueError("txns_per_core must be >= 1")
        self.profile = profile
        self.mesh = mesh
        self.txns_per_core = txns_per_core
        self.rng = np.random.default_rng(seed)
        self.mcs, self.home_mc = _placement(mesh)
        n = mesh.num_nodes
        self.remaining = [txns_per_core] * n
        self.outstanding = [0] * n
        self.completed = 0
        # Min-heaps of pending timed events.
        self._issues: List[Tuple[int, int]] = []  # (cycle, core)
        self._responses: List[Tuple[int, int, int, int]] = []  # (cycle, mc, core, nflits)
        self._pending_resp_count = 0
        # Packet-completion tracking: packet_id -> flits still in flight.
        self._packet_left: Dict[int, int] = {}
        self._seq = 0
        chains = min(profile.mlp, MSHR_ENTRIES)
        for core in range(n):
            # One independent issue chain per unit of memory-level
            # parallelism; each retirement re-arms its own chain.
            for _ in range(chains):
                heapq.heappush(self._issues, (int(self.rng.integers(0, 64)), core))

    # ------------------------------------------------------------------
    def _think_time(self) -> int:
        if self.rng.random() < self.profile.burst_prob:
            return 1
        if self.profile.think_mean <= 0:
            return 1
        # Geometric think time with the configured mean.
        return 1 + int(self.rng.geometric(1.0 / max(1.0, self.profile.think_mean)))

    # ------------------------------------------------------------------
    def tick(self, cycle: int, network: Network) -> None:
        # Issue due requests (MSHR-throttled).
        mshr_blocked: List[Tuple[int, int]] = []
        while self._issues and self._issues[0][0] <= cycle:
            due, core = heapq.heappop(self._issues)
            if self.remaining[core] <= 0:
                continue
            if self.outstanding[core] >= MSHR_ENTRIES:
                # MSHR full: retry next cycle (without starving other cores
                # that are also due this cycle).
                mshr_blocked.append((cycle + 1, core))
                continue
            self.outstanding[core] += 1
            self.remaining[core] -= 1
            is_read = self.rng.random() < self.profile.read_frac
            mc = _pick_controller(self.rng, self.profile, self.mcs, self.home_mc, core)
            self._seq += 1
            pid = network.inject_packet(
                core,
                mc,
                cycle,
                num_flits=CTRL_FLITS,
                measured=True,
                reply_tag=("req", core, is_read),
            )
            self._packet_left[pid] = CTRL_FLITS
        for item in mshr_blocked:
            heapq.heappush(self._issues, item)

        # Launch responses whose service latency elapsed.
        while self._responses and self._responses[0][0] <= cycle:
            _, mc, core, nflits = heapq.heappop(self._responses)
            pid = network.inject_packet(
                mc,
                core,
                cycle,
                num_flits=nflits,
                measured=True,
                reply_tag=("resp", core, None),
            )
            self._packet_left[pid] = nflits

    def on_eject(self, flit: Flit, cycle: int, network: Network) -> None:
        if flit.reply_tag is None:
            return
        left = self._packet_left.get(flit.packet_id)
        if left is None:
            return
        left -= 1
        if left > 0:
            self._packet_left[flit.packet_id] = left
            return
        del self._packet_left[flit.packet_id]

        kind, core, is_read = flit.reply_tag
        if kind == "req":
            # Directory service, possibly including a memory access.
            latency = DIRECTORY_LATENCY
            if self.rng.random() < self.profile.mem_miss_frac:
                latency += MEMORY_LATENCY
            nflits = DATA_FLITS if is_read else CTRL_FLITS
            heapq.heappush(
                self._responses, (cycle + latency, flit.dst, core, nflits)
            )
            self._pending_resp_count += 1
        else:
            # Transaction retired: free the MSHR, schedule the next issue.
            self._pending_resp_count -= 1
            self.outstanding[core] -= 1
            self.completed += 1
            if self.remaining[core] > 0:
                heapq.heappush(self._issues, (cycle + self._think_time(), core))

    def done(self) -> bool:
        return (
            self.completed >= self.txns_per_core * self.mesh.num_nodes
            and not self._responses
            and self._pending_resp_count == 0
        )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        # Heaps are serialised verbatim (a heap's list layout is a valid
        # heap); derived placement (mcs, home_mc) is rebuilt by the ctor.
        return {
            "rng": self.rng.bit_generator.state,
            "remaining": list(self.remaining),
            "outstanding": list(self.outstanding),
            "completed": self.completed,
            "issues": [list(t) for t in self._issues],
            "responses": [list(t) for t in self._responses],
            "pending_resp_count": self._pending_resp_count,
            "packet_left": [[pid, n] for pid, n in self._packet_left.items()],
            "seq": self._seq,
        }

    def load_state_dict(self, state: dict) -> None:
        self.rng.bit_generator.state = state["rng"]
        self.remaining = list(state["remaining"])
        self.outstanding = list(state["outstanding"])
        self.completed = state["completed"]
        # Entries must be tuples so heappush never compares list to tuple.
        self._issues = [tuple(t) for t in state["issues"]]
        self._responses = [tuple(t) for t in state["responses"]]
        self._pending_resp_count = state["pending_resp_count"]
        self._packet_left = {int(pid): n for pid, n in state["packet_left"]}
        self._seq = state["seq"]

    @property
    def total_transactions(self) -> int:
        return self.txns_per_core * self.mesh.num_nodes


def make_splash2_workload(
    app: str, mesh: Mesh, txns_per_core: int = 200, seed: int = 7
) -> Splash2Workload:
    """Build the closed-loop workload for one SPLASH-2 application name."""
    try:
        profile = SPLASH2_PROFILES[app]
    except KeyError:
        raise ValueError(
            f"unknown SPLASH-2 app {app!r}; known: {sorted(SPLASH2_PROFILES)}"
        )
    return Splash2Workload(profile, mesh, txns_per_core=txns_per_core, seed=seed)


# ----------------------------------------------------------------------
# Trace generation (the paper's methodology: full-system run -> trace ->
# NoC-simulator replay).  The closed-loop engine above is run against an
# *ideal network* (minimal 2-cycle-per-hop latency, no contention) to
# produce the injection trace; replaying it open-loop on each design makes
# congested designs accumulate backlog exactly as GEMS trace replay does.
# ----------------------------------------------------------------------

def _ideal_latency(mesh: Mesh, src: int, dst: int, nflits: int) -> int:
    """Zero-load delivery time of a packet: 2 cycles/hop + serialization."""
    return 2 * mesh.manhattan(src, dst) + nflits


def generate_app_trace(
    app: str,
    mesh: Mesh,
    txns_per_core: int = 100,
    seed: int = 7,
):
    """Generate the open-loop injection trace of one SPLASH-2 application.

    Runs the closed-loop coherence engine against an ideal (contention-free)
    network and records every packet injection.  Returns a list of
    :class:`~repro.traffic.trace.TraceEvent`.
    """
    from .trace import EVENT_ORDER, TraceEvent

    profile = SPLASH2_PROFILES.get(app)
    if profile is None:
        raise ValueError(f"unknown SPLASH-2 app {app!r}; known: {sorted(SPLASH2_PROFILES)}")
    rng = np.random.default_rng(seed)
    mcs, home_mc = _placement(mesh)
    n = mesh.num_nodes
    remaining = [txns_per_core] * n
    events = []
    # Event heap of (cycle, seq, kind, core) where kind is "issue" or a
    # pending response arrival handled inline.
    heap: List[Tuple[int, int, int]] = []
    seq = 0
    chains = min(profile.mlp, MSHR_ENTRIES)
    for core in range(n):
        for _ in range(chains):
            seq += 1
            heapq.heappush(heap, (int(rng.integers(0, 64)), seq, core))

    def think() -> int:
        if rng.random() < profile.burst_prob:
            return 1
        return 1 + int(rng.geometric(1.0 / max(1.0, profile.think_mean)))

    while heap:
        cycle, _, core = heapq.heappop(heap)
        if remaining[core] <= 0:
            continue
        remaining[core] -= 1
        is_read = rng.random() < profile.read_frac
        mc = _pick_controller(rng, profile, mcs, home_mc, core)
        events.append(TraceEvent(cycle, core, mc, CTRL_FLITS))
        t = cycle + _ideal_latency(mesh, core, mc, CTRL_FLITS)
        service = DIRECTORY_LATENCY
        if rng.random() < profile.mem_miss_frac:
            service += MEMORY_LATENCY
        nflits = DATA_FLITS if is_read else CTRL_FLITS
        t += service
        events.append(TraceEvent(t, mc, core, nflits))
        t += _ideal_latency(mesh, mc, core, nflits)
        if remaining[core] > 0:
            seq_local = seq = seq + 1
            heapq.heappush(heap, (t + think(), seq_local, core))
    events.sort(key=EVENT_ORDER)
    return events
