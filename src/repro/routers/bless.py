"""Flit-BLESS bufferless deflection router (Moscibroda & Mutlu).

Every incoming flit *must* leave through some output port in the cycle it
arrives — there are no buffers.  Age-based (oldest-first) arbitration lets
the oldest flit take a productive port; younger flits may be deflected to
non-productive ports and take extra hops.  The pipeline is the same 2-stage
SA/ST + LT as DXbar (look-ahead routing).

Rules modelled here (standard FLIT-BLESS):

* one flit may be ejected per cycle (``config.ejection_ports`` widens it);
  at-destination flits that lose the ejection port are deflected and come
  back;
* a new flit may be injected only when fewer incoming flits than link
  ports arrived (an input slot is free), at most one per cycle;
* port assignment never fails: a mesh router has as many output links as
  input links, so oldest-first assignment always finds *some* free port —
  the definition of deflection routing.
"""

from __future__ import annotations

from typing import List

from ..core.arbiters import oldest_first
from ..obs.trace import EV_DEFLECT
from ..sim.flit import Flit
from ..sim.ports import Port
from .base import BaseRouter


class BlessRouter(BaseRouter):
    """Flit-BLESS: deflect, never buffer, never drop."""

    uses_credits = False

    def __init__(self, node, mesh, routing, energy, config) -> None:
        super().__init__(node, mesh, routing, energy, config)
        self._link_ports = tuple(mesh.ports_of(node))

    def is_idle(self) -> bool:
        """A bufferless deflection router holds no flits across cycles:
        only a pending injection keeps it active (arrivals wake it through
        the link heads)."""
        return not self.inj_queue

    def audit_invariants(self, cycle: int):
        # Bufferless postcondition: every arrival left the same cycle.
        if self.occupancy() != 0:
            yield (
                "design",
                f"bufferless BLESS router holds {self.occupancy()} flits "
                "across the cycle boundary",
            )

    def step(self, cycle: int) -> None:
        if not self.incoming and not self.inj_queue:
            return
        flits: List[Flit] = [f for _, f in self.incoming]

        # Injection: permitted when an input slot is free this cycle.
        if self.inj_queue and len(flits) < len(self._link_ports):
            flit = self.inj_queue.popleft()
            self.mark_network_entry(flit, cycle)
            flits.append(flit)

        if not flits:
            return

        ranked = oldest_first(flits)

        # Ejection: the oldest at-destination flits claim the ejection
        # port(s); the rest must deflect onward.
        ejected = 0
        survivors: List[Flit] = []
        for flit in ranked:
            if flit.dst == self.node and ejected < self.config.ejection_ports:
                ejected += 1
                self.traverse(flit, Port.LOCAL, cycle)
            else:
                survivors.append(flit)

        free = [p for p in self._link_ports if not self.out_links[p].busy_next]
        assert len(free) >= len(survivors), (
            "BLESS invariant broken: more flits than free output ports "
            f"at node {self.node} cycle {cycle}"
        )

        for flit in survivors:
            productive = self.routing.candidates(self.node, flit.dst)
            port = None
            for cand in productive:
                if cand != Port.LOCAL and cand in free:
                    port = cand
                    break
            if port is None:
                # Deflection: any free port (oldest-first guarantees the
                # truly oldest flit in the network always progresses).
                port = free[0]
                flit.deflections += 1
                self.counters.deflections += 1
                if self.trace is not None:
                    self.trace.emit(
                        cycle, EV_DEFLECT, self.node, flit, out_port=port.name
                    )
            free.remove(port)
            self.traverse(flit, port, cycle)
