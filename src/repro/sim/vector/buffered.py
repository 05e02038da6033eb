"""Vectorized kernel for the ``buffered4`` input-buffered baseline.

One cycle of the object walk, re-expressed over the whole population:

1. **Credit latch** — returned credits become visible
   (``credits += chan_now``); the object equivalent is every router's
   ``latch`` collecting its credit channels before any router steps.
2. **Buffer write** — arrivals append to their input FIFO (one FIFO per
   incoming link: ``fifos_per_input == 1`` keys FIFOs 1:1 by link id) with
   ``ready_cycle = cycle + BASELINE_RC_DELAY`` and a buffer charge.
3. **Source-head stamping** — an unstamped source-queue head gets its RC
   delay and buffer charge; already-ready heads become LOCAL requesters.
4. **Requests** — every ready FIFO head plus the ready source heads route
   via DOR ``first`` (destination == node gives LOCAL) and are gated on
   pre-consumption credits (credits are per-sender, so global gating with
   the phase-1 arrays replays each router's private check exactly).
5. **Stage 1** — per-(node, output) round-robin over requesting inputs,
   via a (pointer, request-mask) lookup table; pointer advances past the
   winner.  Stage 2 is trivial for this design (each input requests one
   output) but still advances the per-input pointer — it is checkpointed
   state the object walk mutates on every grant.
6. **Winners** — FIFO pops return a credit upstream (visible next cycle),
   source pops mark network entry; the output credit is consumed; crossbar
   charge + ``primary_traversals``; LOCAL winners eject in node order
   (at most one per node — one LOCAL output arbiter each), the rest hop
   onto the fly arrays.
7. **Reply stamping** — a packet injected by an ``on_eject`` callback into
   the empty source queue of a node ``s`` greater than the ejector node is
   stamped exactly as step 3 would have, because in the object walk node
   ``s`` steps after the ejector and sees the new head this same cycle.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ...core.arbiters import round_robin_table
from ..flit import Flit
from ..ports import NUM_PORTS, Port
from ...routers.buffered import BASELINE_RC_DELAY
from .base import CI_PRIMARY, VectorNetwork

_LOCAL = int(Port.LOCAL)


class VectorBufferedNetwork(VectorNetwork):
    """SoA implementation of the ``buffered4`` design."""

    uses_credits = True

    def _design_init(self) -> None:
        n_nodes = self.num_nodes
        n_links = self.num_links
        self.depth = self.config.buffer_depth
        # Input FIFOs as circular arrays keyed by incoming link id.
        self.fifo_buf = np.full((n_links, self.depth), -1, dtype=np.int64)
        self.fifo_head = np.zeros(n_links, dtype=np.int64)
        self.fifo_len = np.zeros(n_links, dtype=np.int64)
        # Credits the upstream side of each link holds (downstream budget).
        self.credits = np.full(n_links, self.depth, dtype=np.int64)
        # Credits returned this cycle, visible to the upstream next cycle
        # (the object CreditChannel's post-step "now" register).
        self.chan_now = np.zeros(n_links, dtype=np.int64)
        # Separable allocator state, flattened as node * NUM_PORTS + port.
        self.out_ptr = np.zeros(n_nodes * NUM_PORTS, dtype=np.int64)
        self.in_ptr = np.zeros(n_nodes * NUM_PORTS, dtype=np.int64)
        # Round-robin LUT: winner index for (pointer, 5-bit request mask),
        # the object arbiters' shared table.
        self._rr_lut = np.array(round_robin_table(NUM_PORTS), dtype=np.int64)
        # DOR output port per (cur, dst); cur == dst routes LOCAL.
        dor = np.empty(n_nodes * n_nodes, dtype=np.int64)
        for cur in range(n_nodes):
            for dst in range(n_nodes):
                dor[cur * n_nodes + dst] = int(self.routing.first(cur, dst))
        self._dor_first = dor
        # Persistent zeroed/cleared scratch (reset after each use).
        self._req_mask = np.zeros(n_nodes * NUM_PORTS, dtype=np.int64)
        self._req_lut = np.full(n_nodes * NUM_PORTS, -1, dtype=np.int64)
        #: queue-head slots of mid-step replies that still need their RC
        #: stamp this cycle (source node steps after the ejector).
        self._post_stamp: List[int] = []

    def credit_budget(self) -> int:
        return self.depth  # buffer_depth * fifos_per_input (== 1)

    def _mid_step_injected(self, src: int, slots: List[int], was_empty: bool) -> None:
        if was_empty and src > self._eject_ctx:
            self._post_stamp.append(slots[0])

    # ------------------------------------------------------------------
    def _step_kernel(self, cycle: int) -> None:
        st = self.store
        n_nodes = self.num_nodes

        # (1) credit latch
        cn = self.chan_now
        if cn.any():
            self.credits += cn
            cn.fill(0)

        # (2) buffer write
        arr_slots, arr_links = self._take_arrivals(cycle)
        if len(arr_slots):
            pos = (self.fifo_head[arr_links] + self.fifo_len[arr_links]) % self.depth
            self.fifo_buf[arr_links, pos] = arr_slots
            self.fifo_len[arr_links] += 1
            st.ready_cycle[arr_slots] = cycle + BASELINE_RC_DELAY
            self._charge_buffer_many(arr_slots)

        # (3) source-head stamping / LOCAL requesters
        inj_nodes: List[int] = []
        inj_slots: List[int] = []
        if self._q_nonempty:
            stamped: List[int] = []
            ready = st.ready_cycle
            queues = self._inj_q
            for node in sorted(self._q_nonempty):
                slot = queues[node][0]
                r = ready[slot]
                if r == 0:
                    ready[slot] = cycle + BASELINE_RC_DELAY
                    stamped.append(slot)
                elif r <= cycle:
                    inj_nodes.append(node)
                    inj_slots.append(slot)
            if stamped:
                self._charge_buffer_many(np.array(stamped, dtype=np.int64))

        # (4) requests
        have = np.nonzero(self.fifo_len > 0)[0]
        if len(have):
            heads = self.fifo_buf[have, self.fifo_head[have]]
            ok = st.ready_cycle[heads] <= cycle
            have = have[ok]
            heads = heads[ok]
        else:
            heads = have
        ni = len(inj_slots)
        if not len(have) and not ni:
            return
        req_slot = np.concatenate([heads, np.array(inj_slots, dtype=np.int64)])
        req_node = np.concatenate(
            [self.link_dst[have], np.array(inj_nodes, dtype=np.int64)]
        )
        req_in = np.concatenate(
            [self.link_inport[have], np.full(ni, _LOCAL, dtype=np.int64)]
        )
        req_link = np.concatenate([have, np.full(ni, -1, dtype=np.int64)])
        out = self._dor_first[req_node * n_nodes + st.dst[req_slot]]
        out_link = self.out_index[req_node, out]
        gated = (out_link < 0) | (
            self.credits[np.where(out_link >= 0, out_link, 0)] > 0
        )
        if not gated.all():
            req_slot = req_slot[gated]
            req_node = req_node[gated]
            req_in = req_in[gated]
            req_link = req_link[gated]
            out = out[gated]
            if not len(req_slot):
                return

        # (5) stage 1 + stage 2
        key = req_node * NUM_PORTS + out
        mask = self._req_mask
        np.bitwise_or.at(mask, key, np.int64(1) << req_in)
        # Sorted-dedupe of key (np.unique's hash path costs ~4x more on
        # these small arrays).
        sk = np.sort(key)
        if len(sk) > 1:
            boundary = np.empty(len(sk), dtype=bool)
            boundary[0] = True
            np.not_equal(sk[1:], sk[:-1], out=boundary[1:])
            touched = sk[boundary]
        else:
            touched = sk
        win_in = self._rr_lut[self.out_ptr[touched], mask[touched]]
        self.out_ptr[touched] = (win_in + 1) % NUM_PORTS
        mask[touched] = 0
        win_node = touched // NUM_PORTS
        win_out = touched % NUM_PORTS
        lut = self._req_lut
        rkey = req_node * NUM_PORTS + req_in
        lut[rkey] = np.arange(len(req_slot))
        wi = lut[win_node * NUM_PORTS + win_in]
        lut[rkey] = -1
        self.in_ptr[win_node * NUM_PORTS + win_in] = (win_out + 1) % NUM_PORTS

        # (6) winners
        w_slot = req_slot[wi]
        w_link = req_link[wi]
        from_fifo = w_link >= 0
        if from_fifo.any():
            fl = w_link[from_fifo]
            self.fifo_buf[fl, self.fifo_head[fl]] = -1
            self.fifo_head[fl] = (self.fifo_head[fl] + 1) % self.depth
            self.fifo_len[fl] -= 1
            self.chan_now[fl] += 1  # return_credit
        from_inj = ~from_fifo
        if from_inj.any():
            pop_nodes = win_node[from_inj].tolist()
            for node in pop_nodes:
                q = self._inj_q[node]
                q.popleft()
                if not q:
                    self._q_nonempty.discard(node)
            self._mark_entries(w_slot[from_inj].tolist(), pop_nodes, cycle)
        nonlocal_out = win_out != _LOCAL
        if nonlocal_out.any():
            self.credits[
                self.out_index[win_node[nonlocal_out], win_out[nonlocal_out]]
            ] -= 1
        self._charge_xbar_many(w_slot)
        np.add.at(self.counters[:, CI_PRIMARY], win_node, 1)
        ejecting = ~nonlocal_out
        if ejecting.any():
            # touched is sorted, so win_node (and this subset) ascend: the
            # object walk's node-order ejection sequence.
            self._process_ejections(w_slot[ejecting], win_node[ejecting], cycle)
        if nonlocal_out.any():
            s_slots = w_slot[nonlocal_out]
            st.hops[s_slots] += 1
            self._charge_link_many(s_slots)
            self._fly_push(
                s_slots,
                self.out_index[win_node[nonlocal_out], win_out[nonlocal_out]],
                cycle + self.latency,
            )

        # (7) mid-step reply stamping
        if self._post_stamp:
            sl = np.array(self._post_stamp, dtype=np.int64)
            st.ready_cycle[sl] = cycle + BASELINE_RC_DELAY
            self._charge_buffer_many(sl)
            self._post_stamp.clear()

    # ------------------------------------------------------------------
    # introspection overrides
    # ------------------------------------------------------------------
    def _buffered_occupancy(self) -> int:
        return int(self.fifo_len.sum())

    def _in_link_ids(self, node: int) -> np.ndarray:
        ids = self.in_index[node]
        return ids[ids >= 0]

    def _router_occupancy(self, node: int) -> int:
        return int(self.fifo_len[self._in_link_ids(node)].sum())

    def _router_input_occupancy(self, node: int, in_port) -> int:
        link = int(self.in_index[node, int(in_port)])
        return int(self.fifo_len[link]) if link >= 0 else 0

    def _fifo_slots(self, link: int) -> List[int]:
        """FIFO contents head -> tail as store slot ids."""
        head = int(self.fifo_head[link])
        count = int(self.fifo_len[link])
        return [
            int(self.fifo_buf[link, (head + i) % self.depth]) for i in range(count)
        ]

    def _router_audit_snapshot(self, node: int) -> Dict[str, List[Flit]]:
        snap = super()._router_audit_snapshot(node)
        st = self.store
        for port in self.mesh.ports_of(node):
            link = int(self.in_index[node, int(port)])
            snap[f"fifo:{port.name}:0"] = [
                st.materialize(s) for s in self._fifo_slots(link)
            ]
        return snap

    def _router_audit_invariants(self, node: int, cycle: int):
        for port in self.mesh.ports_of(node):
            link = int(self.in_index[node, int(port)])
            count = int(self.fifo_len[link])
            if count > self.depth:
                yield (
                    "design",
                    f"input FIFO {port.name}:0 holds {count} flits "
                    f"(depth {self.depth}) — credit flow control overrun",
                )

    # ------------------------------------------------------------------
    # checkpointing overrides
    # ------------------------------------------------------------------
    def _credits_state(self, node: int) -> Dict[str, int]:
        return {
            port.name: int(self.credits[self.out_index[node, int(port)]])
            for port in self.mesh.ports_of(node)
        }

    def _router_state(self, node: int) -> Dict[str, Any]:
        state = super()._router_state(node)
        st = self.store
        state["fifos"] = {
            port.name: [
                {
                    "flits": [
                        st.materialize(s).to_dict()
                        for s in self._fifo_slots(
                            int(self.in_index[node, int(port)])
                        )
                    ]
                }
            ]
            for port in self.mesh.ports_of(node)
        }
        base = node * NUM_PORTS
        state["output_arbs"] = {
            p.name: {"ptr": int(self.out_ptr[base + int(p)])} for p in Port
        }
        state["input_arbs"] = {
            p.name: {"ptr": int(self.in_ptr[base + int(p)])} for p in Port
        }
        return state

    def _load_router_state(self, node: int, state: Dict[str, Any]) -> None:
        super()._load_router_state(node, state)
        st = self.store
        for name, bank_states in state["fifos"].items():
            if len(bank_states) != 1:
                raise ValueError("checkpoint FIFO bank count does not match design")
            link = int(self.in_index[node, int(Port[name])])
            if link < 0:
                raise ValueError(f"checkpoint FIFO on nonexistent port {name}")
            flits = bank_states[0]["flits"]
            if len(flits) > self.depth:
                raise ValueError("checkpoint FIFO deeper than configured depth")
            for i, data in enumerate(flits):
                self.fifo_buf[link, i] = st.intern(data)
            self.fifo_head[link] = 0
            self.fifo_len[link] = len(flits)
        for name, c in state["credits"].items():
            link = int(self.out_index[node, int(Port[name])])
            if link < 0:
                raise ValueError(f"checkpoint credits on nonexistent port {name}")
            self.credits[link] = c
        base = node * NUM_PORTS
        for name, s in state["output_arbs"].items():
            self.out_ptr[base + int(Port[name])] = s["ptr"]
        for name, s in state["input_arbs"].items():
            self.in_ptr[base + int(Port[name])] = s["ptr"]

    def _reset_dynamic_state(self) -> None:
        super()._reset_dynamic_state()
        self.fifo_buf.fill(-1)
        self.fifo_head.fill(0)
        self.fifo_len.fill(0)
        self.credits.fill(self.depth)
        self.chan_now.fill(0)
        self.out_ptr.fill(0)
        self.in_ptr.fill(0)
        self._post_stamp.clear()
