"""Statistics collection and simulation results.

A single :class:`StatsCollector` instance is shared by every router, link
and traffic source of one simulation.  It distinguishes a *measurement
window*: only flits injected inside the window contribute to latency /
throughput / energy averages, while raw totals are always kept (they feed
invariant checks such as flit conservation).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict, List, Optional

from .flit import Flit

#: Scalar attributes serialised verbatim by ``StatsCollector.state_dict``.
_SCALAR_STATE = (
    "measure_start",
    "measure_end",
    "total_injected_flits",
    "total_ejected_flits",
    "total_dropped_flits",
    "injected_flits",
    "ejected_flits",
    "ejected_in_window",
    "flit_latency_sum",
    "network_latency_sum",
    "hops_sum",
    "deflections",
    "drops",
    "retransmissions",
    "buffered_flit_events",
    "xbar_traversals",
    "link_traversals",
    "allocator_swaps",
    "energy_buffer_pj",
    "energy_xbar_pj",
    "energy_link_pj",
    "energy_nack_pj",
    "packets_completed",
    "packets_injected",
    "measured_pending",
)


class StatsCollector:
    """Mutable per-simulation counters.

    Energy is accumulated in picojoules and reported in nanojoules.  The
    per-event charging is done by :class:`repro.energy.model.EnergyModel`,
    which owns the constants; this class only stores the totals so that the
    hot loop does one float add per event.
    """

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.measure_start = 0
        self.measure_end = 0

        # Raw totals (all flits, including warmup/drain).
        self.total_injected_flits = 0
        self.total_ejected_flits = 0
        self.total_dropped_flits = 0  # SCARAB in-flight drops awaiting retx

        # Measured-window counters.
        self.injected_flits = 0
        self.ejected_flits = 0
        self.ejected_in_window = 0
        self.flit_latency_sum = 0
        self.network_latency_sum = 0
        self.hops_sum = 0
        self.deflections = 0
        self.drops = 0
        self.retransmissions = 0
        self.buffered_flit_events = 0
        self.xbar_traversals = 0
        self.link_traversals = 0
        self.allocator_swaps = 0

        # Energy in pJ, measured flits only.
        self.energy_buffer_pj = 0.0
        self.energy_xbar_pj = 0.0
        self.energy_link_pj = 0.0
        self.energy_nack_pj = 0.0

        # Packet reassembly: packet_id -> number of flits still in flight.
        self._pending_packets: Dict[int, int] = {}
        self._packet_birth: Dict[int, int] = {}
        self._packet_energy: Dict[int, float] = {}
        self._packet_measured: Dict[int, bool] = {}
        self.packet_latencies: List[int] = []
        self.packet_energies_pj: List[float] = []
        self.packets_completed = 0
        self.packets_injected = 0
        # Measured packets still in flight — the engine drains until this
        # reaches zero so per-packet stats carry no survivor bias.
        self.measured_pending = 0

        # Per-node counts (fairness analysis): source-queue arrivals,
        # actual network entries (source-queue departures) and ejections.
        self.per_node_ejected = [0] * num_nodes
        self.per_node_injected = [0] * num_nodes
        self.per_node_entries = [0] * num_nodes

    # ------------------------------------------------------------------
    # window control
    # ------------------------------------------------------------------
    def set_window(self, start: int, end: int) -> None:
        """Define the measurement window ``[start, end)`` in cycles."""
        if end < start:
            raise ValueError("measurement window must have end >= start")
        self.measure_start = start
        self.measure_end = end

    def in_window(self, cycle: int) -> bool:
        return self.measure_start <= cycle < self.measure_end

    # ------------------------------------------------------------------
    # event recording
    # ------------------------------------------------------------------
    def record_packet_injection(self, packet_id: int, cycle: int, num_flits: int, measured: bool) -> None:
        self._pending_packets[packet_id] = num_flits
        self._packet_birth[packet_id] = cycle
        self._packet_energy[packet_id] = 0.0
        self._packet_measured[packet_id] = measured
        if measured:
            self.packets_injected += 1
            self.measured_pending += 1

    def record_flit_injection(self, flit: Flit) -> None:
        self.total_injected_flits += 1
        self.per_node_injected[flit.src] += 1
        if flit.measured:
            self.injected_flits += 1

    def record_ejection(self, flit: Flit, cycle: int) -> None:
        """A flit reached its destination PE."""
        self.total_ejected_flits += 1
        self.per_node_ejected[flit.dst] += 1
        # Throughput is a property of the network, not of the measured
        # cohort: count every ejection that lands inside the window (at
        # high load the window drains backlog injected before it).
        if self.measure_start <= cycle < self.measure_end:  # in_window, inlined
            self.ejected_in_window += 1
        if flit.measured:
            self.ejected_flits += 1
            self.flit_latency_sum += cycle - flit.injected_cycle
            if flit.network_entry_cycle >= 0:
                self.network_latency_sum += cycle - flit.network_entry_cycle
            self.hops_sum += flit.hops
            self.deflections += flit.deflections
            self.buffered_flit_events += flit.buffered_events
            self.retransmissions += flit.retransmits
        remaining = self._pending_packets.get(flit.packet_id)
        if remaining is not None:
            self._packet_energy[flit.packet_id] += flit.energy_pj
            remaining -= 1
            if remaining == 0:
                del self._pending_packets[flit.packet_id]
                birth = self._packet_birth.pop(flit.packet_id)
                energy = self._packet_energy.pop(flit.packet_id)
                measured = self._packet_measured.pop(flit.packet_id)
                self.packets_completed += 1
                if measured:
                    self.measured_pending -= 1
                    self.packet_latencies.append(cycle - birth)
                    self.packet_energies_pj.append(energy)
            else:
                self._pending_packets[flit.packet_id] = remaining

    def record_drop(self, flit: Flit) -> None:
        """An in-flight drop that will be retransmitted (SCARAB).

        The flit stays pending: SCARAB's ``_drop`` structurally pairs every
        ``record_drop`` with ``queue_retransmit`` at the source, so the
        packet's ``_pending_packets`` entry (and ``measured_pending``, which
        gates the engine's drain loop) must not be released here — the
        auditor's conservation walk enforces that pairing every cycle.  A
        design that drops a flit *terminally* must call
        :meth:`record_terminal_drop` instead, or the drain loop would wait
        forever for a packet that can no longer complete.
        """
        self.total_dropped_flits += 1
        if flit.measured:
            self.drops += 1

    def record_terminal_drop(self, flit: Flit) -> None:
        """A drop with no retransmission: the packet can never complete.

        Releases the packet's reassembly state so latency/energy averages
        skip it and — critically — decrements ``measured_pending`` so the
        engine's drain loop terminates.  No in-tree design drops
        terminally (SCARAB always retransmits); this is the documented
        hook for lossy plugin designs.
        """
        self.total_dropped_flits += 1
        if flit.measured:
            self.drops += 1
        if flit.packet_id in self._pending_packets:
            del self._pending_packets[flit.packet_id]
            self._packet_birth.pop(flit.packet_id, None)
            self._packet_energy.pop(flit.packet_id, None)
            measured = self._packet_measured.pop(flit.packet_id, False)
            if measured:
                self.measured_pending -= 1

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Full collector snapshot.  Int-keyed dicts are stored as
        ``[key, value]`` pair lists: JSON would stringify the keys and —
        worse — a plain dict round-trip could reorder them, while dict
        insertion order is part of the simulation state."""
        state = {name: getattr(self, name) for name in _SCALAR_STATE}
        state["pending_packets"] = [[k, v] for k, v in self._pending_packets.items()]
        state["packet_birth"] = [[k, v] for k, v in self._packet_birth.items()]
        state["packet_energy"] = [[k, v] for k, v in self._packet_energy.items()]
        state["packet_measured"] = [[k, v] for k, v in self._packet_measured.items()]
        state["packet_latencies"] = list(self.packet_latencies)
        state["packet_energies_pj"] = list(self.packet_energies_pj)
        state["per_node_ejected"] = list(self.per_node_ejected)
        state["per_node_injected"] = list(self.per_node_injected)
        state["per_node_entries"] = list(self.per_node_entries)
        return state

    def load_state_dict(self, state: dict) -> None:
        for name in _SCALAR_STATE:
            setattr(self, name, state[name])
        self._pending_packets = {int(k): v for k, v in state["pending_packets"]}
        self._packet_birth = {int(k): v for k, v in state["packet_birth"]}
        self._packet_energy = {int(k): v for k, v in state["packet_energy"]}
        self._packet_measured = {int(k): v for k, v in state["packet_measured"]}
        self.packet_latencies = list(state["packet_latencies"])
        self.packet_energies_pj = list(state["packet_energies_pj"])
        self.per_node_ejected = list(state["per_node_ejected"])
        self.per_node_injected = list(state["per_node_injected"])
        self.per_node_entries = list(state["per_node_entries"])

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def result(
        self,
        *,
        design: str,
        offered_load: float,
        capacity: float,
        cycles: int,
        final_cycle: int,
        extra: Optional[dict] = None,
        per_router: Optional[List[Dict[str, int]]] = None,
        counter_totals: Optional[Dict[str, int]] = None,
    ) -> "SimResult":
        """Freeze the collector into an immutable :class:`SimResult`.

        ``per_router`` is the engine-collected list of uniform router
        telemetry-counter dicts (one per node) and ``counter_totals`` their
        merge, the source of the fairness-flip and fault-reconfiguration
        counts; the per-node source-queue arrival / network-entry /
        ejection splits are always included.
        """
        counter_totals = counter_totals or {}
        window = max(1, self.measure_end - self.measure_start)
        accepted_rate = self.ejected_in_window / (self.num_nodes * window)
        return SimResult(
            design=design,
            offered_load=offered_load,
            capacity=capacity,
            cycles=cycles,
            final_cycle=final_cycle,
            injected_flits=self.injected_flits,
            ejected_flits=self.ejected_flits,
            accepted_flits_per_node_cycle=accepted_rate,
            accepted_load=accepted_rate / capacity if capacity > 0 else 0.0,
            avg_flit_latency=(
                self.flit_latency_sum / self.ejected_flits if self.ejected_flits else 0.0
            ),
            avg_network_latency=(
                self.network_latency_sum / self.ejected_flits if self.ejected_flits else 0.0
            ),
            avg_hops=(self.hops_sum / self.ejected_flits if self.ejected_flits else 0.0),
            avg_packet_latency=(
                sum(self.packet_latencies) / len(self.packet_latencies)
                if self.packet_latencies
                else 0.0
            ),
            avg_packet_energy_nj=(
                sum(self.packet_energies_pj) / len(self.packet_energies_pj) / 1e3
                if self.packet_energies_pj
                else 0.0
            ),
            measured_packets_completed=len(self.packet_latencies),
            packets_completed=self.packets_completed,
            deflections_per_flit=(
                self.deflections / self.ejected_flits if self.ejected_flits else 0.0
            ),
            # Buffered events per hop.  Guard the denominator explicitly:
            # 0.0 only when no buffered event happened either; buffered
            # events with zero measured hops (nothing measured ejected yet
            # everything that did was buffered) saturate at 1.0 instead of
            # the old max(1, hops) ratio that just echoed the event count.
            buffered_fraction=(
                self.buffered_flit_events / self.hops_sum
                if self.hops_sum > 0
                else (0.0 if self.buffered_flit_events == 0 else 1.0)
            ),
            retransmissions=self.retransmissions,
            drops=self.drops,
            fairness_flips=counter_totals.get("fairness_flips", 0),
            allocator_swaps=self.allocator_swaps,
            fault_reconfigurations=counter_totals.get("fault_reconfigs", 0),
            energy_buffer_nj=self.energy_buffer_pj / 1e3,
            energy_xbar_nj=self.energy_xbar_pj / 1e3,
            energy_link_nj=self.energy_link_pj / 1e3,
            energy_nack_nj=self.energy_nack_pj / 1e3,
            extra=dict(extra or {}),
            per_node={
                "injected": list(self.per_node_injected),
                "entries": list(self.per_node_entries),
                "ejected": list(self.per_node_ejected),
            },
            per_router=list(per_router) if per_router is not None else [],
        )


#: Leaf types that ``_json_copy`` hands back as they are.
_ATOMIC = (int, float, str, bool, type(None))


def _json_copy(obj):
    """A deep copy of JSON-like data: what ``dataclasses.asdict`` makes of
    dicts, lists and tuples of plain values, without its per-leaf
    ``copy.deepcopy`` (most of its cost on a result's per-router
    counters).  Any other object falls back to ``copy.deepcopy``."""
    t = type(obj)
    if t in _ATOMIC:
        return obj
    if t is dict:
        return {
            k: v if type(v) in _ATOMIC else _json_copy(v) for k, v in obj.items()
        }
    if t is list:
        return [v if type(v) in _ATOMIC else _json_copy(v) for v in obj]
    if t is tuple:
        return tuple(_json_copy(v) for v in obj)
    return copy.deepcopy(obj)


@dataclass(frozen=True)
class SimResult:
    """Immutable summary of one simulation run.

    Loads are expressed both in flits/node/cycle and as a fraction of the
    pattern's network capacity (the paper's x-axis).
    """

    design: str
    offered_load: float  # fraction of capacity
    capacity: float  # flits/node/cycle at fraction 1.0
    cycles: int
    final_cycle: int
    injected_flits: int
    ejected_flits: int
    accepted_flits_per_node_cycle: float
    accepted_load: float  # fraction of capacity
    avg_flit_latency: float
    avg_network_latency: float
    avg_hops: float
    avg_packet_latency: float
    avg_packet_energy_nj: float
    measured_packets_completed: int
    packets_completed: int
    deflections_per_flit: float
    buffered_fraction: float
    retransmissions: int
    drops: int
    fairness_flips: int
    allocator_swaps: int
    fault_reconfigurations: int
    energy_buffer_nj: float
    energy_xbar_nj: float
    energy_link_nj: float
    energy_nack_nj: float
    extra: dict = field(default_factory=dict)
    # Per-node stats splits (source-queue arrivals, network entries,
    # ejections) and the per-router telemetry-counter breakdown.
    per_node: dict = field(default_factory=dict)
    per_router: list = field(default_factory=list)

    @property
    def total_energy_nj(self) -> float:
        return (
            self.energy_buffer_nj
            + self.energy_xbar_nj
            + self.energy_link_nj
            + self.energy_nack_nj
        )

    @property
    def energy_per_packet_nj(self) -> float:
        """Average network energy per completed packet (the Fig 6/8/10
        metric).  Computed from exact per-packet accounting so packets still
        in flight bias neither the numerator nor the denominator; falls back
        to the aggregate ratio when no measured packet completed.

        The fallback divides by the *measured* completion count: the energy
        totals only accumulate for measured flits, so dividing by
        ``packets_completed`` (which also counts unmeasured warmup/drain
        packets) would understate the per-packet energy of any run with a
        nonzero warmup.
        """
        if self.avg_packet_energy_nj > 0.0:
            return self.avg_packet_energy_nj
        if self.measured_packets_completed == 0:
            return 0.0
        return self.total_energy_nj / self.measured_packets_completed

    @property
    def energy_per_flit_pj(self) -> float:
        if self.ejected_flits == 0:
            return 0.0
        return self.total_energy_nj * 1e3 / self.ejected_flits

    def to_dict(self) -> dict:
        """Machine-readable form: every field plus the derived metrics.

        The returned dict is JSON-serialisable as-is; CI harnesses consume
        it through the CLI's ``--json`` flag.  It equals ``asdict(self)``
        plus the derived keys, in the same key order, and shares no mutable
        part with the result.
        """
        d = {name: _json_copy(getattr(self, name)) for name in _RESULT_FIELDS}
        d["total_energy_nj"] = self.total_energy_nj
        d["energy_per_packet_nj"] = self.energy_per_packet_nj
        d["energy_per_flit_pj"] = self.energy_per_flit_pj
        # Profiled runs get a top-level "profile" section (the engine
        # stores the PhaseProfiler snapshot in extra; surfacing it here
        # keeps --json consumers from digging through extra).
        profile = self.extra.get("profile") if isinstance(self.extra, dict) else None
        if profile:
            d["profile"] = _json_copy(profile)
        return d

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise :meth:`to_dict` to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "SimResult":
        """Rebuild a result from :meth:`to_dict` output (derived metrics
        are dropped and recomputed from the stored fields).  Used by the
        parallel runner and the on-disk result cache."""
        names = {f.name for f in dataclass_fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.design}: offered={self.offered_load:.2f} "
            f"accepted={self.accepted_load:.3f} "
            f"lat={self.avg_flit_latency:.1f}cy "
            f"E/pkt={self.energy_per_packet_nj:.2f}nJ"
        )


#: :class:`SimResult` field names in declaration order.
_RESULT_FIELDS = tuple(f.name for f in dataclass_fields(SimResult))
