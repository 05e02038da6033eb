"""SCARAB: single-cycle adaptive routing and bufferless network (Hayenga,
Enright Jerger & Lipasti).

Like BLESS the router has no buffers, but instead of deflecting a losing
flit SCARAB *drops* it and sends a NACK to the source over a dedicated
narrow circuit-switched NACK network; the source then retransmits.  Flits
are minimally-adaptively routed (any productive port).

Modelling choices (documented in DESIGN.md):

* the NACK network is modelled as a dedicated path with one cycle per hop
  and a small per-hop energy (it is ~1 bit wide vs the 128-bit data
  network);
* the source keeps a copy of every in-flight flit conceptually; a NACKed
  flit re-enters a retransmission queue that has priority over new
  injections and keeps its original age (so old packets eventually win);
* injection (new or retransmitted) is opportunistic: a flit enters the
  network only when one of its productive ports is free this cycle —
  injecting into certain drop would only burn energy.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from ..core.arbiters import oldest_first
from ..obs.trace import EV_DROP, EV_RETRANSMIT
from ..sim.flit import Flit
from ..sim.ports import Port
from .base import BaseRouter

#: Fixed pipeline overhead of a NACK (generation + sink), on top of the
#: per-hop traversal of the NACK network.
NACK_OVERHEAD_CYCLES = 1


class ScarabRouter(BaseRouter):
    """SCARAB: drop + NACK + source retransmission."""

    uses_credits = False

    def __init__(self, node, mesh, routing, energy, config) -> None:
        super().__init__(node, mesh, routing, energy, config)
        self._link_ports = tuple(mesh.ports_of(node))
        # Min-heap of (ready_cycle, seq, flit) retransmissions at this source.
        self._retx: List[Tuple[int, int, Flit]] = []
        self._retx_seq = 0

    # ------------------------------------------------------------------
    def queue_retransmit(self, flit: Flit, ready_cycle: int) -> None:
        """Called (via the network) when a NACK for ``flit`` arrives home."""
        self._retx_seq += 1
        heapq.heappush(self._retx, (ready_cycle, self._retx_seq, flit))
        # The drop happens inside another router's step: a mid-step wake so
        # this source re-enters the walk exactly when the dense order would
        # reach it.
        if self.network is not None:
            self.network.wake_router(self.node)

    def _drop(self, flit: Flit, cycle: int) -> None:
        """Drop ``flit`` here and fire a NACK back to its source."""
        self.stats.record_drop(flit)
        self.counters.drops += 1
        hops_back = self.mesh.manhattan(self.node, flit.src)
        self.energy.charge_nack(flit, max(1, hops_back))
        flit.retransmits += 1
        ready = cycle + hops_back + NACK_OVERHEAD_CYCLES
        if self.trace is not None:
            self.trace.emit(cycle, EV_DROP, self.node, flit, nack_hops=hops_back)
        self.network.router_at(flit.src).queue_retransmit(flit, ready)

    # ------------------------------------------------------------------
    def step(self, cycle: int) -> None:
        # Fast path: nothing arrived and nothing is waiting to (re)inject.
        if not self.incoming and not self.inj_queue and not self._retx:
            return
        flits: List[Flit] = [f for _, f in self.incoming]
        ranked = oldest_first(flits)

        free = [p for p in self._link_ports if not self.out_links[p].busy_next]
        ejected = 0
        for flit in ranked:
            if flit.dst == self.node:
                if ejected < self.config.ejection_ports:
                    ejected += 1
                    self.traverse(flit, Port.LOCAL, cycle)
                else:
                    # Ejection port busy: SCARAB has nowhere to hold the
                    # flit, so it is dropped and retransmitted.
                    self._drop(flit, cycle)
                continue
            port = None
            for cand in self.routing.candidates(self.node, flit.dst):
                if cand != Port.LOCAL and cand in free:
                    port = cand
                    break
            if port is None:
                self._drop(flit, cycle)
            else:
                free.remove(port)
                self.traverse(flit, port, cycle)

        # Opportunistic injection: retransmissions first, then new flits.
        self._inject(free, cycle)

    def _inject(self, free: List[Port], cycle: int) -> None:
        candidate: Flit = None
        from_retx = False
        if self._retx and self._retx[0][0] <= cycle:
            candidate = self._retx[0][2]
            from_retx = True
        elif self.inj_queue:
            candidate = self.inj_queue[0]
        if candidate is None:
            return
        port = None
        for cand in self.routing.candidates(self.node, candidate.dst):
            if cand == Port.LOCAL:
                continue
            if cand in free:
                port = cand
                break
        if port is None:
            return
        if from_retx:
            heapq.heappop(self._retx)
            self.counters.retransmits += 1
            if self.trace is not None:
                self.trace.emit(cycle, EV_RETRANSMIT, self.node, candidate)
        else:
            self.inj_queue.popleft()
            self.mark_network_entry(candidate, cycle)
        free.remove(port)
        self.traverse(candidate, port, cycle)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        # The heap's list layout is a valid heap; serialise it verbatim.
        state["retx"] = [[ready, seq, flit.to_dict()] for ready, seq, flit in self._retx]
        state["retx_seq"] = self._retx_seq
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        # Entries must be tuples: heappush on a mix of lists and tuples
        # would compare them and raise.
        self._retx = [
            (ready, seq, Flit.from_dict(d)) for ready, seq, d in state["retx"]
        ]
        self._retx_seq = state["retx_seq"]

    # ------------------------------------------------------------------
    def pending_flits(self) -> int:
        return len(self._retx) + len(self.inj_queue)

    # ------------------------------------------------------------------
    # invariant auditing
    # ------------------------------------------------------------------
    def audit_snapshot(self) -> dict:
        snap = super().audit_snapshot()
        snap["retx"] = [flit for _, _, flit in self._retx]
        return snap

    def audit_invariants(self, cycle: int):
        # Bufferless postcondition: a SCARAB router never holds datapath
        # state across cycles — every dropped flit must have re-entered its
        # source's retransmission queue (the conservation walk proves the
        # drop/retransmit coupling; this catches local container leaks).
        if self.occupancy() != 0:
            yield (
                "design",
                f"bufferless SCARAB router holds {self.occupancy()} flits "
                "across the cycle boundary",
            )

    def is_idle(self) -> bool:
        """Idle while nothing waits to (re)inject.  A retransmission whose
        ``ready_cycle`` lies in the future still keeps the router active:
        the dense walk steps it every cycle (a no-op until the NACK round
        trip elapses), and staying active costs exactly those no-ops."""
        return not self.inj_queue and not self._retx
