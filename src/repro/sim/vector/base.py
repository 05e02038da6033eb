"""Shared machinery of the vectorized (struct-of-arrays) backend.

A :class:`VectorNetwork` is a drop-in replacement for
:class:`repro.sim.network.Network` for the piloted designs: same
constructor signature, same flit endpoints (``inject_packet`` / source
queues / ejection bookkeeping), same ``state_dict`` format, same
introspection surface — but ``step()`` is implemented by a design-specific
whole-population array kernel instead of a per-router object walk.

Bit-exactness with the object walk is the design contract, not an
aspiration: every stats update (including the order of float adds into the
energy accumulators and the order of ``record_ejection`` calls, which
drives dict insertion order and per-packet float accumulation) replays the
object walk's exact sequence.  The rules, per accumulator class:

* int counters commute — batched adds are safe;
* the global ``energy_*_pj`` floats each receive one constant, so their
  value is a pure function of the *count* of adds; the kernels replay the
  count as sequential scalar adds (never ``count * constant``);
* per-flit ``energy_pj`` receives heterogeneous constants — the kernels
  preserve each flit's per-cycle event order (array adds of one constant
  are bitwise-identical to the same scalar adds);
* ejections are processed in the object walk's global order: node
  ascending, oldest-first rank within a node.

State layout:

* flits live in a :class:`~repro.sim.vector.store.FlitStore` (SoA);
* link pipelines are "fly" arrays of ``(slot, link, arrival_cycle)``
  triples — a flit pushed at cycle ``c`` arrives at ``c + latency``, which
  encodes the same information as the object link's shift register;
* per-node telemetry counters are one ``(N, len(COUNTER_FIELDS))`` int64
  array;
* source queues stay per-node Python deques of slot ids (they are walked,
  not vectorized: injection decisions are inherently per-node and the
  nonempty set is small).

Open-loop injection (``workload.tick`` before ``step``) is deferred into
per-packet pending rows and flushed as one vectorized scatter per field at
the start of ``step`` — per-flit NumPy scalar writes would dominate the
cycle budget.  Closed-loop injection from an ``on_eject`` callback lands
mid-step and is written through directly (rare path).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional

import numpy as np

from ...energy.model import EnergyModel
from ...obs.counters import COUNTER_FIELDS
from ...obs.facade import Telemetry
from ...traffic.generator import Workload
from ..config import SimConfig
from ..flit import Flit
from ..ports import NUM_PORTS, OPPOSITE, Port
from ..stats import StatsCollector
from ..topology import Mesh
from .store import FlitStore
from .views import VectorChannelView, VectorLinkView, VectorRouterView

#: Column indices into the per-node counters array.
CI = {name: i for i, name in enumerate(COUNTER_FIELDS)}
CI_INJECTED = CI["injected"]
CI_EJECTED = CI["ejected"]
CI_ENTRIES = CI["entries"]
CI_PRIMARY = CI["primary_traversals"]
CI_DEFLECTIONS = CI["deflections"]

_EMPTY = np.zeros(0, dtype=np.int64)


def group_ordinals(nd: np.ndarray):
    """``(counts, ordinal)`` of the runs in a sorted group array: for each
    element, ``ordinal`` is its rank within its run.  (Hand-rolled because
    ``np.r_`` costs ~20µs per call — real money at one call per cycle.)"""
    n = len(nd)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(nd[1:], nd[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    counts = np.empty(len(starts), dtype=np.int64)
    counts[:-1] = starts[1:] - starts[:-1]
    counts[-1] = n - starts[-1]
    ordinal = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
    return counts, ordinal


class VectorNetwork:
    """Base class of the vectorized network implementations."""

    #: Mirrors ``BaseRouter.uses_credits`` of the piloted design.
    uses_credits = False

    def __init__(
        self,
        config: SimConfig,
        stats: StatsCollector,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        # Imported here to avoid a designs <-> network import cycle.
        from ...designs import build_routing

        self.config = config
        self.stats = stats
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.mesh = Mesh(config.k)
        self.routing = build_routing(config, self.mesh)
        self.energy = EnergyModel.for_design(config.design, stats)
        self._const = self.energy.constants

        n_nodes = self.mesh.num_nodes
        self.num_nodes = n_nodes
        self.latency = config.link_latency

        # Link tables, in mesh.edges() order == the object Network's link
        # index order (checkpoint compatibility depends on this).
        edges = list(self.mesh.edges())
        self.num_links = len(edges)
        self.link_src = np.array([e[0] for e in edges], dtype=np.int64)
        self.link_dst = np.array([e[2] for e in edges], dtype=np.int64)
        self.link_inport = np.array(
            [int(OPPOSITE[e[1]]) for e in edges], dtype=np.int64
        )
        self.out_index = np.full((n_nodes, NUM_PORTS), -1, dtype=np.int64)
        self.in_index = np.full((n_nodes, NUM_PORTS), -1, dtype=np.int64)
        for i, (src, out_port, dst) in enumerate(edges):
            self.out_index[src, int(out_port)] = i
            self.in_index[dst, int(OPPOSITE[out_port])] = i
        self._nports = [len(self.mesh.ports_of(node)) for node in range(n_nodes)]
        self._nports_arr = np.array(self._nports, dtype=np.int64)
        port_mask = np.zeros(n_nodes, dtype=np.int64)
        for node in range(n_nodes):
            m = 0
            for p in self.mesh.ports_of(node):
                m |= 1 << int(p)
            port_mask[node] = m
        self._port_mask = port_mask

        self.store = FlitStore()

        # In-flight link occupancy as parallel (slot, link, arrival) arrays.
        cap = 256
        self._fly_slot = np.zeros(cap, dtype=np.int64)
        self._fly_link = np.zeros(cap, dtype=np.int64)
        self._fly_arr = np.zeros(cap, dtype=np.int64)
        self._fly_n = 0
        self._linkmap: Dict[int, list] = {}
        self._linkmap_cycle = -1

        self.counters = np.zeros((n_nodes, len(COUNTER_FIELDS)), dtype=np.int64)

        # Source (PE injection) queues of slot ids.
        self._inj_q: List[deque] = [deque() for _ in range(n_nodes)]
        self._q_nonempty: set = set()

        # Deferred open-loop injections: one row per flit, flushed at step
        # start.  Mid-step (on_eject) injections bypass this buffer.
        self._pend_rows: List[tuple] = []
        self._eject_ctx: Optional[int] = None  # node whose on_eject is running

        self.workload = None  # set by the Simulator
        self.cycle = 0
        self._active_flits = 0
        self._next_packet_id = 0
        self._next_flit_id = 0
        self.fault_plan = None  # vector designs support no fault plans
        # Inert compatibility knob: the object Network dispatches between
        # its dense and activity-scheduled walks on this; the vector
        # kernels have a single walk.
        self.dense_step = False

        # Object-surface views (auditor, interval metrics, checkpoints).
        self.routers = [VectorRouterView(self, node) for node in range(n_nodes)]
        self.links: List[VectorLinkView] = []
        for i, (src, out_port, dst) in enumerate(edges):
            view = VectorLinkView(self, i, src, dst, self.latency)
            self.links.append(view)
            self.routers[src].out_links[out_port] = view
            self.routers[dst].in_links[OPPOSITE[out_port]] = view
        self.credit_channels: List[VectorChannelView] = []
        if self.uses_credits:
            for i, (src, out_port, dst) in enumerate(edges):
                chan = VectorChannelView(self, i, src)
                self.credit_channels.append(chan)
                self.routers[src].credit_in[out_port] = chan

        self._design_init()

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _design_init(self) -> None:
        """Design-specific state (FIFOs, credits, arbiters, route LUTs)."""

    def _step_kernel(self, cycle: int) -> None:
        raise NotImplementedError

    def _mid_step_injected(self, src: int, slots: List[int], was_empty: bool) -> None:
        """Visibility bookkeeping for a packet injected from ``on_eject``
        while the ejector node ``self._eject_ctx`` is being processed."""

    def credit_budget(self) -> int:
        return 0

    # ------------------------------------------------------------------
    # flit endpoints (same contract as Network.inject_packet)
    # ------------------------------------------------------------------
    def router_at(self, node: int) -> VectorRouterView:
        return self.routers[node]

    def wake_router(self, node: int) -> None:
        """No-op: the vector kernels scan queue state directly."""

    def inject_packet(
        self,
        src: int,
        dst: int,
        cycle: int,
        num_flits: Optional[int] = None,
        measured: Optional[bool] = None,
        reply_tag=None,
    ) -> int:
        if src == dst:
            raise ValueError("a packet's destination must differ from its source")
        n = num_flits if num_flits is not None else self.config.packet_size
        if measured is not None:
            m = measured
        elif self.config.max_cycles is not None:
            m = True
        else:
            m = self.stats.in_window(cycle)
        pid = self._next_packet_id
        self._next_packet_id += 1
        fid0 = self._next_flit_id
        self._next_flit_id += n
        stats = self.stats
        stats.record_packet_injection(pid, cycle, n, m)

        st = self.store
        slots = st.alloc_many(n)
        mid_step = self._eject_ctx is not None
        if mid_step:
            # Closed-loop reply landing mid-step: write through so the
            # remainder of this cycle's kernel sees consistent fields.
            sl = np.array(slots, dtype=np.int64)
            st.fid[sl] = np.arange(fid0, fid0 + n, dtype=np.int64)
            st.packet_id[sl] = pid
            st.src[sl] = src
            st.dst[sl] = dst
            st.injected_cycle[sl] = cycle
            st.flit_index[sl] = np.arange(n, dtype=np.int64)
            st.num_flits[sl] = n
            st.measured[sl] = m
            st.age[sl] = (np.int64(cycle) << 32) | st.fid[sl]
        else:
            rows = self._pend_rows
            for i, slot in enumerate(slots):
                rows.append((slot, fid0 + i, pid, src, dst, cycle, i, n, m))
        if reply_tag is not None:
            tags = st.reply_tag
            for slot in slots:
                tags[slot] = reply_tag

        q = self._inj_q[src]
        was_empty = not q
        q.extend(slots)
        if was_empty:
            self._q_nonempty.add(src)
        # Inlined record_flit_injection x n (int counters commute).
        self.counters[src, CI_INJECTED] += n
        stats.total_injected_flits += n
        stats.per_node_injected[src] += n
        if m:
            stats.injected_flits += n
        self._active_flits += n
        if mid_step:
            self._mid_step_injected(src, slots, was_empty)
        return pid

    def _flush_pending(self) -> None:
        rows = self._pend_rows
        if not rows:
            return
        st = self.store
        slot, fid, pid, src, dst, inj, idx, nf, meas = zip(*rows)
        sl = np.array(slot, dtype=np.int64)
        st.fid[sl] = fid
        st.packet_id[sl] = pid
        st.src[sl] = src
        st.dst[sl] = dst
        st.injected_cycle[sl] = inj
        st.flit_index[sl] = idx
        st.num_flits[sl] = nf
        st.measured[sl] = meas
        st.age[sl] = (st.injected_cycle[sl] << 32) | st.fid[sl]
        rows.clear()

    # ------------------------------------------------------------------
    # shared kernel helpers
    # ------------------------------------------------------------------
    def _seq_add(self, attr: str, const: float, count: int) -> None:
        """``count`` sequential scalar adds of ``const`` into a stats
        float — bit-exact with the object walk's per-event accumulation
        (a single fused ``count * const`` add would not be).
        ``np.add.accumulate`` is a strictly sequential float64 recurrence,
        so it produces the identical bit pattern at C speed."""
        if not count:
            return
        v = getattr(self.stats, attr)
        if count <= 8:
            for _ in range(count):
                v += const
        else:
            seq = np.empty(count + 1, dtype=np.float64)
            seq[0] = v
            seq[1:] = const
            v = float(np.add.accumulate(seq)[-1])
        setattr(self.stats, attr, v)

    def _charge_xbar_many(self, slots: np.ndarray) -> None:
        n = len(slots)
        if not n:
            return
        st = self.store
        self.stats.xbar_traversals += n
        st.energy_pj[slots] += self._const.xbar_pj
        self._seq_add(
            "energy_xbar_pj", self._const.xbar_pj, int(st.measured[slots].sum())
        )

    def _charge_link_many(self, slots: np.ndarray) -> None:
        n = len(slots)
        if not n:
            return
        st = self.store
        self.stats.link_traversals += n
        st.energy_pj[slots] += self._const.link_pj
        self._seq_add(
            "energy_link_pj", self._const.link_pj, int(st.measured[slots].sum())
        )

    def _charge_buffer_many(self, slots: np.ndarray) -> None:
        if not len(slots):
            return
        st = self.store
        st.energy_pj[slots] += self._const.buffer_pj
        self._seq_add(
            "energy_buffer_pj", self._const.buffer_pj, int(st.measured[slots].sum())
        )

    def _mark_entries(self, slots: List[int], nodes: List[int], cycle: int) -> None:
        """Inlined ``mark_network_entry`` for freshly-popped source-queue
        flits (their entry cycle is still -1 by construction)."""
        if not slots:
            return
        sl = np.array(slots, dtype=np.int64)
        nd = np.array(nodes, dtype=np.int64)
        self.store.network_entry_cycle[sl] = cycle
        np.add.at(self.counters[:, CI_ENTRIES], nd, 1)
        per_node = self.stats.per_node_entries
        for node in nodes:
            per_node[node] += 1

    def _process_ejections(self, slots: np.ndarray, nodes: np.ndarray, cycle: int) -> None:
        """Eject ``slots`` (pre-sorted in the object walk's order: node
        ascending, oldest-first within a node).  Mirrors
        ``BaseRouter.send(LOCAL)`` + ``Network.eject`` exactly; the caller
        has already applied the design's pre-ejection charges."""
        n = len(slots)
        if not n:
            return
        st = self.store
        stats = self.stats
        np.add.at(self.counters[:, CI_EJECTED], nodes, 1)
        node_l = nodes.tolist()
        wl = self.workload
        if wl is not None and type(wl).on_eject is not Workload.on_eject:
            # Closed-loop path: the callback wants a real Flit and may
            # inject replies, so materialise and use the real collector.
            slot_l = slots.tolist()
            prev = self._eject_ctx
            try:
                for i in range(n):
                    flit = st.materialize(slot_l[i])
                    stats.record_ejection(flit, cycle)
                    self._active_flits -= 1
                    self._eject_ctx = node_l[i]
                    wl.on_eject(flit, cycle, self)
            finally:
                self._eject_ctx = prev
        else:
            # Open-loop fast path: record_ejection inlined over bulk-read
            # field lists; the loop order IS the object walk's call order,
            # which per-packet float accumulation depends on.
            in_win = stats.in_window(cycle)
            meas_l = st.measured[slots].tolist()
            inj_l = st.injected_cycle[slots].tolist()
            ent_l = st.network_entry_cycle[slots].tolist()
            hops_l = st.hops[slots].tolist()
            defl_l = st.deflections[slots].tolist()
            buf_l = st.buffered_events[slots].tolist()
            retx_l = st.retransmits[slots].tolist()
            pid_l = st.packet_id[slots].tolist()
            en_l = st.energy_pj[slots].tolist()
            # Locals for the hot loop; the int sums commute, so they fold
            # back into the collector in one add each.  The per-packet
            # *float* accumulation stays per-event, in order.
            pending = stats._pending_packets
            per_node = stats.per_node_ejected
            pk_energy = stats._packet_energy
            pk_birth = stats._packet_birth
            pk_measured = stats._packet_measured
            pk_lats = stats.packet_latencies
            pk_ens = stats.packet_energies_pj
            ej_flits = flit_lat = net_lat = hops_sum = defl_sum = 0
            buf_sum = retx_sum = completed = meas_done = 0
            for i in range(n):
                per_node[node_l[i]] += 1
                if meas_l[i]:
                    ej_flits += 1
                    flit_lat += cycle - inj_l[i]
                    entry = ent_l[i]
                    if entry >= 0:
                        net_lat += cycle - entry
                    hops_sum += hops_l[i]
                    defl_sum += defl_l[i]
                    buf_sum += buf_l[i]
                    retx_sum += retx_l[i]
                pid = pid_l[i]
                remaining = pending.get(pid)
                if remaining is not None:
                    pk_energy[pid] += en_l[i]
                    remaining -= 1
                    if remaining == 0:
                        del pending[pid]
                        birth = pk_birth.pop(pid)
                        energy = pk_energy.pop(pid)
                        measured = pk_measured.pop(pid)
                        completed += 1
                        if measured:
                            meas_done += 1
                            pk_lats.append(cycle - birth)
                            pk_ens.append(energy)
                    else:
                        pending[pid] = remaining
            stats.total_ejected_flits += n
            if in_win:
                stats.ejected_in_window += n
            stats.ejected_flits += ej_flits
            stats.flit_latency_sum += flit_lat
            stats.network_latency_sum += net_lat
            stats.hops_sum += hops_sum
            stats.deflections += defl_sum
            stats.buffered_flit_events += buf_sum
            stats.retransmissions += retx_sum
            stats.packets_completed += completed
            stats.measured_pending -= meas_done
            self._active_flits -= n
        st.free_many(slots)

    # ------------------------------------------------------------------
    # link pipelines
    # ------------------------------------------------------------------
    def _fly_push(self, slots: np.ndarray, links: np.ndarray, arrival: int) -> None:
        n = self._fly_n
        add = len(slots)
        cap = len(self._fly_slot)
        if n + add > cap:
            new_cap = cap
            while new_cap < n + add:
                new_cap *= 2
            pad = np.zeros(new_cap - cap, dtype=np.int64)
            self._fly_slot = np.concatenate([self._fly_slot, pad])
            self._fly_link = np.concatenate([self._fly_link, pad])
            self._fly_arr = np.concatenate([self._fly_arr, pad])
        self._fly_slot[n : n + add] = slots
        self._fly_link[n : n + add] = links
        self._fly_arr[n : n + add] = arrival
        self._fly_n = n + add

    def _take_arrivals(self, cycle: int):
        """Pop every in-flight flit whose arrival cycle is ``cycle``."""
        n = self._fly_n
        if n == 0:
            return _EMPTY, _EMPTY
        arr = self._fly_arr[:n]
        m = arr == cycle
        if not m.any():
            return _EMPTY, _EMPTY
        slots = self._fly_slot[:n][m]
        links = self._fly_link[:n][m]
        keep = ~m
        kn = int(keep.sum())
        self._fly_slot[:kn] = self._fly_slot[:n][keep]
        self._fly_link[:kn] = self._fly_link[:n][keep]
        self._fly_arr[:kn] = self._fly_arr[:n][keep]
        self._fly_n = kn
        return slots, links

    def _link_entries(self, index: int) -> list:
        """(slot, arrival) pairs in flight on one link, cached per cycle
        (views/auditor path; never consulted by the kernels)."""
        if self._linkmap_cycle != self.cycle:
            groups: Dict[int, list] = {}
            n = self._fly_n
            links = self._fly_link[:n].tolist()
            slots = self._fly_slot[:n].tolist()
            arrs = self._fly_arr[:n].tolist()
            for link, slot, arr in zip(links, slots, arrs):
                groups.setdefault(link, []).append((slot, arr))
            self._linkmap = groups
            self._linkmap_cycle = self.cycle
        return self._linkmap.get(index, [])

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the whole network by one clock cycle."""
        cycle = self.cycle
        self._flush_pending()
        self._step_kernel(cycle)
        self.cycle = cycle + 1

    # ------------------------------------------------------------------
    # introspection / invariants (same surface as Network)
    # ------------------------------------------------------------------
    @property
    def active_flits(self) -> int:
        return self._active_flits

    def quiescent(self) -> bool:
        return self._active_flits == 0

    def flits_in_links(self) -> int:
        return self._fly_n

    def flits_in_routers(self) -> int:
        queued = sum(len(q) for q in self._inj_q)
        return queued + self._buffered_occupancy()

    def _buffered_occupancy(self) -> int:
        return 0

    def router_counters(self) -> List[Dict[str, int]]:
        rows = self.counters.tolist()
        return [dict(zip(COUNTER_FIELDS, row)) for row in rows]

    def check_conservation(self) -> None:
        accounted = (
            self.stats.total_ejected_flits
            + self.flits_in_links()
            + self.flits_in_routers()
        )
        if accounted != self.stats.total_injected_flits:
            raise AssertionError(
                f"flit conservation violated: injected="
                f"{self.stats.total_injected_flits} accounted={accounted}"
            )

    # view delegation -- design-specific pieces overridden by subclasses
    def _router_telemetry(self, node: int) -> Dict[str, int]:
        return dict(zip(COUNTER_FIELDS, self.counters[node].tolist()))

    def _router_occupancy(self, node: int) -> int:
        return 0

    def _router_input_occupancy(self, node: int, in_port) -> int:
        return 0

    def _router_audit_snapshot(self, node: int) -> Dict[str, List[Flit]]:
        st = self.store
        return {"inj_queue": [st.materialize(s) for s in self._inj_q[node]]}

    def _router_audit_invariants(self, node: int, cycle: int):
        return ()

    # ------------------------------------------------------------------
    # checkpointing (exact object-backend format)
    # ------------------------------------------------------------------
    def _router_state(self, node: int) -> Dict[str, Any]:
        st = self.store
        return {
            "inj_queue": [st.materialize(s).to_dict() for s in self._inj_q[node]],
            "credits": self._credits_state(node),
            "counters": dict(zip(COUNTER_FIELDS, self.counters[node].tolist())),
        }

    def _credits_state(self, node: int) -> Dict[str, int]:
        return {}

    def _load_router_state(self, node: int, state: Dict[str, Any]) -> None:
        st = self.store
        q = self._inj_q[node]
        q.clear()
        for data in state["inj_queue"]:
            q.append(st.intern(data))
        if q:
            self._q_nonempty.add(node)
        counters = state.get("counters", {})
        for name, value in counters.items():
            self.counters[node, CI[name]] = value

    def state_dict(self) -> Dict[str, Any]:
        """Same schema (and same values) as ``Network.state_dict`` at the
        end-of-cycle boundary, so checkpoints cross backends freely."""
        links: List[Dict[str, Any]] = [
            {"regs": [None] * self.latency, "next": None}
            for _ in range(self.num_links)
        ]
        lat = self.latency
        st = self.store
        n = self._fly_n
        for i in range(n):
            link = int(self._fly_link[i])
            arrival = int(self._fly_arr[i])
            reg = self.cycle - arrival + lat - 1
            links[link]["regs"][reg] = st.materialize(int(self._fly_slot[i])).to_dict()
        return {
            "cycle": self.cycle,
            "active_flits": self._active_flits,
            "next_packet_id": self._next_packet_id,
            "next_flit_id": self._next_flit_id,
            "fault_signature": None,
            "routers": [self._router_state(node) for node in range(self.num_nodes)],
            "links": links,
            "credit_channels": [
                {"now": int(self.chan_now[i]), "next": 0}
                for i in range(len(self.credit_channels))
            ]
            if self.uses_credits
            else [],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        if (
            len(state["routers"]) != self.num_nodes
            or len(state["links"]) != self.num_links
        ):
            raise ValueError(
                "checkpoint topology does not match this network "
                f"(k={self.config.k}, design={self.config.design})"
            )
        if state.get("fault_signature") is not None:
            raise ValueError(
                "checkpoint carries a fault plan; the vector kernels run "
                "fault-free configs only"
            )
        self.cycle = state["cycle"]
        self._active_flits = state["active_flits"]
        self._next_packet_id = state["next_packet_id"]
        self._next_flit_id = state["next_flit_id"]
        self._reset_dynamic_state()
        for node, rstate in enumerate(state["routers"]):
            self._load_router_state(node, rstate)
        lat = self.latency
        st = self.store
        for index, lstate in enumerate(state["links"]):
            if lstate.get("next") is not None:
                raise ValueError(
                    "checkpoint link has a staged flit; snapshots are only "
                    "defined at end-of-cycle boundaries"
                )
            regs = lstate["regs"]
            if len(regs) != lat:
                raise ValueError(
                    f"checkpoint link latency {len(regs)} != configured {lat}"
                )
            for reg, data in enumerate(regs):
                if data is None:
                    continue
                slot = st.intern(data)
                arrival = self.cycle + lat - 1 - reg
                self._fly_push(
                    np.array([slot], dtype=np.int64),
                    np.array([index], dtype=np.int64),
                    arrival,
                )
        chans = state.get("credit_channels", [])
        if self.uses_credits:
            if len(chans) != self.num_links:
                raise ValueError("checkpoint credit channels do not match topology")
            for i, cstate in enumerate(chans):
                if cstate.get("next"):
                    raise ValueError(
                        "checkpoint credit channel holds staged credits; "
                        "snapshots are only defined at end-of-cycle boundaries"
                    )
                self.chan_now[i] = cstate["now"]
        elif chans:
            raise ValueError(
                f"checkpoint carries credit channels but design "
                f"{self.config.design!r} uses none"
            )
        self._linkmap_cycle = -1

    def _reset_dynamic_state(self) -> None:
        """Drop all live flits/queues before a checkpoint restore."""
        self.store = FlitStore()
        self._fly_n = 0
        for q in self._inj_q:
            q.clear()
        self._q_nonempty.clear()
        self._pend_rows.clear()
        self.counters.fill(0)
        self._linkmap_cycle = -1
