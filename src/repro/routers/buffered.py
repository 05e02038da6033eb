"""Generic input-buffered baseline routers (Buffered-4 and Buffered-8).

These model the paper's baseline: a VC-less router with serial FIFO input
buffers, look-ahead routing and speculative switch allocation giving a
3-stage pipeline (RC, SA/ST, LT).  A flit therefore becomes SA-eligible one
cycle after it arrives (``ready_cycle = arrival + 1``); DXbar-class routers
skip that cycle.

* **Buffered-4**: one 4-flit FIFO per input port.
* **Buffered-8**: two 4-flit FIFOs per input port ("two sets of 4 flit
  buffers").  The split "resembles DXbar only at the buffering and provides
  for a fair comparison by removing Head-of-Line blocking": the allocator
  may pick either FIFO head, though only one flit per input port can cross
  the single crossbar per cycle.

Switch allocation is the textbook single-iteration *separable output-first*
allocator of a generic router: one round-robin P:1 arbiter per output port
grants among requesting inputs, then one round-robin arbiter per input picks
among the outputs it was granted (Buffered-8 inputs present both FIFO heads
to stage 1 but only one flit per input can cross the single crossbar).  The
matching slack of separable allocation under load is a real property of the
baseline — DXbar's priority-demux arbitration is what the paper is selling.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.arbiters import RoundRobinArbiter
from ..core.buffers import FlitFIFO
from ..obs.trace import EV_ARB_WIN, EV_BUFFER, EV_TRAVERSE_PRIMARY
from ..sim.flit import Flit
from ..sim.ports import NUM_PORTS, Port
from .base import BaseRouter

#: Extra pipeline cycles before a newly arrived flit may arbitrate
#: (the RC stage of the 3-stage baseline pipeline).
BASELINE_RC_DELAY = 1


class BufferedRouter(BaseRouter):
    """Input-buffered router with ``fifos_per_input`` serial FIFOs."""

    uses_credits = True
    fifos_per_input = 1

    def __init__(self, node, mesh, routing, energy, config) -> None:
        super().__init__(node, mesh, routing, energy, config)
        depth = config.buffer_depth
        self.fifos = {
            port: [FlitFIFO(depth) for _ in range(self.fifos_per_input)]
            for port in mesh.ports_of(node)
        }
        # Separable allocator state: one arbiter per output over the five
        # input ports, one per input over the five output ports.
        self._output_arbs = {p: RoundRobinArbiter(NUM_PORTS) for p in Port}
        self._input_arbs = {p: RoundRobinArbiter(NUM_PORTS) for p in Port}

    def credit_budget(self) -> int:
        return self.config.buffer_depth * self.fifos_per_input

    # ------------------------------------------------------------------
    def _accept_incoming(self, cycle: int) -> None:
        """BW stage: write arriving flits into the input FIFOs."""
        for in_port, flit in self.incoming:
            banks = self.fifos[in_port]
            # Steer to the emptier bank (single-bank designs have one).
            bank = min(banks, key=len)
            flit.ready_cycle = cycle + BASELINE_RC_DELAY
            self.energy.charge_buffer(flit)
            bank.push(flit)
            if self.trace is not None:
                self.trace.emit(
                    cycle,
                    EV_BUFFER,
                    self.node,
                    flit,
                    in_port=in_port.name,
                    occupancy=len(bank),
                )

    def _requesters(self, cycle: int) -> List[Tuple[Flit, Port, Optional[FlitFIFO]]]:
        """Collect SA requesters: every eligible FIFO head plus the source
        queue head.  Returns (flit, input port, fifo-or-None)."""
        reqs: List[Tuple[Flit, Port, Optional[FlitFIFO]]] = []
        for in_port, banks in self.fifos.items():
            for bank in banks:
                head = bank.head()
                if head is not None and head.ready_cycle <= cycle:
                    reqs.append((head, in_port, bank))
        if self.inj_queue:
            head = self.inj_queue[0]
            # The local input is buffered too in the baseline: model the BW
            # energy at injection time and the RC delay relative to when the
            # flit reached the head of the source queue.
            if head.ready_cycle == 0:
                head.ready_cycle = cycle + BASELINE_RC_DELAY
                self.energy.charge_buffer(head)
            if head.ready_cycle <= cycle:
                reqs.append((head, Port.LOCAL, None))
        return reqs

    def step(self, cycle: int) -> None:
        # Fast path: nothing arrived, nothing queued anywhere.
        if not self.incoming and not self.inj_queue and not self._any_occupancy():
            return
        self._accept_incoming(cycle)

        reqs = self._requesters(cycle)
        if not reqs:
            return

        # --- stage 1: per-output P:1 round-robin arbitration -------------
        # request[(in_port, out_port)] -> (flit, bank); Buffered-8 presents
        # both FIFO heads so different banks of one input may request
        # different outputs (HoL relief), but never the same output twice
        # per input (the older head wins the nomination).
        request: Dict[Tuple[Port, Port], Tuple[Flit, Optional[FlitFIFO]]] = {}
        out_masks = [0] * NUM_PORTS  # per output: mask of requesting inputs
        out_order: List[Port] = []  # outputs in first-request order
        reqs.sort(key=lambda r: (r[0].injected_cycle, r[0].packet_id, r[0].flit_index))
        for flit, in_port, bank in reqs:
            out = self.routing.first(self.node, flit.dst)
            if not self.has_credit(out):
                continue
            key = (in_port, out)
            if key in request:
                continue  # the other bank already requests this output
            request[key] = (flit, bank)
            if not out_masks[out]:
                out_order.append(out)
            out_masks[out] |= 1 << in_port

        in_masks = [0] * NUM_PORTS  # per input: mask of outputs it won
        in_order: List[Port] = []  # inputs in first-grant order
        for out in out_order:
            winner = self._output_arbs[out].grant(out_masks[out])
            if not in_masks[winner]:
                in_order.append(Port(winner))
            in_masks[winner] |= 1 << out

        # --- stage 2: per-input V:1 round-robin selection ----------------
        for in_port in in_order:
            out = Port(self._input_arbs[in_port].grant(in_masks[in_port]))
            flit, bank = request[(in_port, out)]
            if bank is not None:
                popped = bank.pop()
                assert popped is flit, "granted flit is no longer the head"
                self.return_credit(in_port)
            else:
                self.inj_queue.popleft()
                self.mark_network_entry(flit, cycle)
            self.consume_credit(out)
            self.energy.charge_xbar(flit)
            self.counters.primary_traversals += 1
            if self.trace is not None:
                self.trace.emit(
                    cycle, EV_ARB_WIN, self.node, flit, in_port=in_port.name
                )
                self.trace.emit(
                    cycle,
                    EV_TRAVERSE_PRIMARY,
                    self.node,
                    flit,
                    in_port=in_port.name,
                    out_port=out.name,
                )
            self.send(flit, out, cycle)

    def _any_occupancy(self) -> bool:
        for banks in self.fifos.values():
            for bank in banks:
                if len(bank):
                    return True
        return False

    def is_idle(self) -> bool:
        """Idle when every FIFO bank and the source queue are empty.  The
        round-robin arbiters mutate only on grants, and outstanding credit
        returns wake this router through the credit channels, so neither
        gates idleness."""
        return not self.inj_queue and not self._any_occupancy()

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        return sum(len(b) for banks in self.fifos.values() for b in banks)

    # ------------------------------------------------------------------
    # invariant auditing
    # ------------------------------------------------------------------
    def audit_snapshot(self) -> dict:
        snap = super().audit_snapshot()
        for port, banks in self.fifos.items():
            for i, bank in enumerate(banks):
                snap[f"fifo:{port.name}:{i}"] = list(bank)
        return snap

    def audit_input_occupancy(self, in_port: Port) -> int:
        banks = self.fifos.get(in_port)
        if banks is None:
            return 0
        return sum(len(bank) for bank in banks)

    def audit_invariants(self, cycle: int):
        for port, banks in self.fifos.items():
            for i, bank in enumerate(banks):
                if len(bank) > bank.depth:
                    yield (
                        "design",
                        f"input FIFO {port.name}:{i} holds {len(bank)} flits "
                        f"(depth {bank.depth}) — credit flow control overrun",
                    )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["fifos"] = {
            port.name: [bank.state_dict() for bank in banks]
            for port, banks in self.fifos.items()
        }
        state["output_arbs"] = {p.name: a.state_dict() for p, a in self._output_arbs.items()}
        state["input_arbs"] = {p.name: a.state_dict() for p, a in self._input_arbs.items()}
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        for name, bank_states in state["fifos"].items():
            banks = self.fifos[Port[name]]
            if len(bank_states) != len(banks):
                raise ValueError("checkpoint FIFO bank count does not match design")
            for bank, s in zip(banks, bank_states):
                bank.load_state_dict(s)
        for name, s in state["output_arbs"].items():
            self._output_arbs[Port[name]].load_state_dict(s)
        for name, s in state["input_arbs"].items():
            self._input_arbs[Port[name]].load_state_dict(s)


class Buffered4Router(BufferedRouter):
    """The paper's "Buffered 4": one 4-flit FIFO per input."""

    fifos_per_input = 1


class Buffered8Router(BufferedRouter):
    """The paper's "Buffered 8": two 4-flit FIFOs per input, relieving HoL
    blocking at double the buffer power/area."""

    fifos_per_input = 2
