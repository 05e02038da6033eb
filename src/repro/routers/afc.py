"""AFC-style adaptive flow control router (extension).

The paper positions Jafri et al.'s Adaptive Flow Control [9] as the
closest related work: a router that "dynamically switches between
bufferless to buffered mode based on traffic load", and argues DXbar gets
the same best-of-both behaviour in hardware, adding that "the adaptive
flow control techniques are complementary to our techniques".  This module
implements an AFC-like router so that comparison can actually be run:

* **bufferless mode** (low load): the router behaves exactly like
  Flit-BLESS — single-cycle switching, deflection on conflict, input
  buffers power-gated (no buffer energy);
* **buffered mode** (high load): arriving flits are written into the input
  FIFOs and switched oldest-first, eliminating deflections at the cost of
  buffer energy (overflowing flits still deflect, as in DXbar);
* **mode control** (per router, hysteretic): a sliding window counts
  deflections and incoming flits; too many deflections flip the router to
  buffered mode, and it returns to bufferless only after the window shows
  light traffic *and* its buffers have drained (AFC's drain protocol).

The per-router mode switching is precisely the "increased design
complexity" the paper criticises; the benches let you quantify what that
complexity buys relative to DXbar's always-on hybrid.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.arbiters import oldest_first
from ..core.buffers import FlitFIFO
from ..obs.trace import EV_BUFFER, EV_DEFLECT, EV_MODE_SWITCH
from ..sim.flit import Flit
from ..sim.ports import Port
from .base import BaseRouter

#: Sliding-window length in cycles for the congestion estimate.
MODE_WINDOW = 32

#: Deflections within a window (~0.25/cycle) that flip to buffered mode.
DEFLECT_HI = 8

#: Incoming flits per window below which bufferless mode resumes.  A
#: router forwarding at ~0.6 flits/cycle or less handles the traffic fine
#: without buffers (deflections stay rare below that utilisation).
TRAFFIC_LO = 20

BUFFERLESS_MODE = "bufferless"
BUFFERED_MODE = "buffered"


class AFCRouter(BaseRouter):
    """Per-router adaptive switching between BLESS-like and buffered modes."""

    uses_credits = False

    def __init__(self, node, mesh, routing, energy, config) -> None:
        super().__init__(node, mesh, routing, energy, config)
        self._link_ports = tuple(mesh.ports_of(node))
        self.fifos = {port: FlitFIFO(config.buffer_depth) for port in self._link_ports}
        self.mode = BUFFERLESS_MODE
        self.mode_switches = 0
        self._window_deflections = 0
        self._window_incoming = 0

    # ------------------------------------------------------------------
    # mode control
    # ------------------------------------------------------------------
    def _update_mode(self, cycle: int) -> None:
        if cycle == 0 or cycle % MODE_WINDOW:
            return
        if self.mode == BUFFERLESS_MODE:
            if self._window_deflections >= DEFLECT_HI:
                self.mode = BUFFERED_MODE
                self._note_mode_switch(cycle)
        else:
            # Return to bufferless only once traffic is light and the
            # buffers have drained (the AFC drain protocol).
            if self._window_incoming <= TRAFFIC_LO and self.occupancy() == 0:
                self.mode = BUFFERLESS_MODE
                self._note_mode_switch(cycle)
        self._window_deflections = 0
        self._window_incoming = 0

    def _note_mode_switch(self, cycle: int) -> None:
        self.mode_switches += 1
        self.counters.mode_switches += 1
        if self.trace is not None:
            self.trace.emit(cycle, EV_MODE_SWITCH, self.node, mode=self.mode)

    # ------------------------------------------------------------------
    def step(self, cycle: int) -> None:
        self._update_mode(cycle)
        if not self.incoming and not self.inj_queue and self.occupancy() == 0:
            return
        self._window_incoming += len(self.incoming)
        if self.mode == BUFFERLESS_MODE and self.occupancy() == 0:
            self._step_bufferless(cycle)
        else:
            self._step_buffered(cycle)

    # ------------------------------------------------------------------
    def _step_bufferless(self, cycle: int) -> None:
        """Flit-BLESS semantics: everything leaves this cycle."""
        flits: List[Flit] = [f for _, f in self.incoming]
        if self.inj_queue and len(flits) < len(self._link_ports):
            flit = self.inj_queue.popleft()
            self.mark_network_entry(flit, cycle)
            flits.append(flit)
        if not flits:
            return
        ejected = 0
        survivors: List[Flit] = []
        for flit in oldest_first(flits):
            if flit.dst == self.node and ejected < self.config.ejection_ports:
                ejected += 1
                self.traverse(flit, Port.LOCAL, cycle)
            else:
                survivors.append(flit)
        free = [p for p in self._link_ports if not self.out_links[p].busy_next]
        for flit in survivors:
            port = None
            for cand in self.routing.candidates(self.node, flit.dst):
                if cand != Port.LOCAL and cand in free:
                    port = cand
                    break
            if port is None:
                port = free[0]
                flit.deflections += 1
                self.counters.deflections += 1
                self._window_deflections += 1
                if self.trace is not None:
                    self.trace.emit(
                        cycle, EV_DEFLECT, self.node, flit, out_port=port.name
                    )
            free.remove(port)
            self.traverse(flit, port, cycle)

    # ------------------------------------------------------------------
    def _step_buffered(self, cycle: int) -> None:
        """Buffered semantics with the 2-stage pipeline: heads + injection
        arbitrate oldest-first; arrivals are written into the FIFOs
        (deflecting only on overflow)."""
        outputs_used: set = set()

        # Must-place pre-pass: full-FIFO inputs cannot absorb their arrival,
        # so those flits take a port (productive or deflection) before the
        # waiters can use every output.
        must: List[Tuple[Port, Flit]] = []
        rest: List[Tuple[Port, Flit]] = []
        for in_port, flit in self.incoming:
            (must if self.fifos[in_port].full else rest).append((in_port, flit))
        for in_port, flit in sorted(
            must, key=lambda pf: (pf[1].injected_cycle, pf[1].packet_id, pf[1].flit_index)
        ):
            out = None
            for cand in self.routing.candidates(self.node, flit.dst):
                if cand not in outputs_used:
                    out = cand
                    break
            if out is None:
                for cand in self._link_ports:
                    if cand not in outputs_used and cand != in_port:
                        out = cand
                        flit.deflections += 1
                        self.counters.deflections += 1
                        self._window_deflections += 1
                        if self.trace is not None:
                            self.trace.emit(
                                cycle, EV_DEFLECT, self.node, flit, out_port=out.name
                            )
                        break
            if out is None:
                # Last resort: any free link port (a u-turn). One always
                # exists because each must-place flit consumes one port and
                # there are at least as many link ports as arrivals.
                out = next(p for p in self._link_ports if p not in outputs_used)
                flit.deflections += 1
                self.counters.deflections += 1
                self._window_deflections += 1
                if self.trace is not None:
                    self.trace.emit(
                        cycle, EV_DEFLECT, self.node, flit, out_port=out.name, uturn=True
                    )
            outputs_used.add(out)
            self.traverse(flit, out, cycle)

        waiters: List[Tuple[Optional[Port], Flit]] = []
        for port, fifo in self.fifos.items():
            head = fifo.head()
            if head is not None:
                waiters.append((port, head))
        if self.inj_queue:
            waiters.append((None, self.inj_queue[0]))
        waiters.sort(key=lambda w: (w[1].injected_cycle, w[1].packet_id, w[1].flit_index))
        for port, flit in waiters:
            out = None
            for cand in self.routing.candidates(self.node, flit.dst):
                if cand not in outputs_used:
                    out = cand
                    break
            if out is None:
                continue
            outputs_used.add(out)
            if port is None:
                self.inj_queue.popleft()
                self.mark_network_entry(flit, cycle)
            else:
                popped = self.fifos[port].pop()
                assert popped is flit
            self.traverse(flit, out, cycle)

        for in_port, flit in rest:
            flit.buffered_events += 1
            self.counters.buffered_events += 1
            self.energy.charge_buffer(flit)
            self.fifos[in_port].push(flit)
            if self.trace is not None:
                self.trace.emit(
                    cycle,
                    EV_BUFFER,
                    self.node,
                    flit,
                    in_port=in_port.name,
                    occupancy=len(self.fifos[in_port]),
                )

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        return sum(len(f) for f in self.fifos.values())

    # ------------------------------------------------------------------
    # invariant auditing
    # ------------------------------------------------------------------
    def audit_snapshot(self) -> dict:
        snap = super().audit_snapshot()
        for port, fifo in self.fifos.items():
            snap[f"fifo:{port.name}"] = list(fifo)
        return snap

    def audit_invariants(self, cycle: int):
        # The drain protocol guarantees bufferless mode implies empty,
        # power-gated FIFOs — buffered occupancy in bufferless mode means
        # the mode controller skipped the drain.
        if self.mode == BUFFERLESS_MODE and self.occupancy() != 0:
            yield (
                "design",
                f"AFC router in bufferless mode holds {self.occupancy()} "
                "buffered flits (drain protocol violated)",
            )
        for port, fifo in self.fifos.items():
            if len(fifo) > fifo.depth:
                yield (
                    "design",
                    f"AFC input FIFO {port.name} holds {len(fifo)} flits "
                    f"(depth {fifo.depth})",
                )

    def is_idle(self) -> bool:
        """Idle only in bufferless mode with the congestion window at rest.

        A router left in buffered mode must keep stepping so
        :meth:`_update_mode` can switch it back (a mode switch mutates the
        ``mode_switches`` counter — observable state).  Non-zero window
        counters must likewise keep it active: the window reset at the next
        ``MODE_WINDOW`` boundary happens inside :meth:`step`, and a skipped
        reset would leak stale congestion into a later mode decision.
        """
        return (
            not self.inj_queue
            and self.mode == BUFFERLESS_MODE
            and self._window_deflections == 0
            and self._window_incoming == 0
            and self.occupancy() == 0
        )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["fifos"] = {port.name: fifo.state_dict() for port, fifo in self.fifos.items()}
        state["mode"] = self.mode
        state["mode_switches"] = self.mode_switches
        state["window_deflections"] = self._window_deflections
        state["window_incoming"] = self._window_incoming
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        for name, s in state["fifos"].items():
            self.fifos[Port[name]].load_state_dict(s)
        self.mode = state["mode"]
        self.mode_switches = state["mode_switches"]
        self._window_deflections = state["window_deflections"]
        self._window_incoming = state["window_incoming"]
