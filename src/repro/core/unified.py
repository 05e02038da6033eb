"""The unified dual-input single-crossbar router (Section II.B).

Functionally equivalent to :class:`~repro.core.dxbar.DXbarRouter` — an
incoming (bufferless) flit and a buffered flit from the *same* input port
can traverse to different outputs in the same cycle — but realised with a
single transmission-gate-segmented crossbar instead of two crossbars:

* ~25% area over Flit-BLESS instead of DXbar's 33% (see
  :mod:`repro.energy.area`);
* crossbar traversal costs 15 pJ/flit instead of 13 (transmission gates);
* switch allocation uses the paper's separable output-first allocator with
  two serial V:1 arbiters per input and the conflict-free detect/swap logic
  (:mod:`repro.core.allocator`), rather than DXbar's age-ordered two-phase
  arbitration.  The round-robin output arbiters trade a little matching
  quality for hardware simplicity — visible as slightly earlier saturation
  in the benches.

Flow control and the overflow-deflection fallback are identical to DXbar
(see that module's docstring).  The paper limits the fault study to the
dual-crossbar design; as an extension we let the unified router degrade
too: a detected fault collapses it to single-lane buffered operation.
"""

from __future__ import annotations

from typing import List, Tuple

from ..obs.trace import (
    EV_ARB_LOSE,
    EV_ARB_WIN,
    EV_BUFFER,
    EV_DEFLECT,
    EV_TRAVERSE_PRIMARY,
    EV_TRAVERSE_SECONDARY,
)
from ..sim.flit import Flit
from ..sim.ports import Port
from .allocator import BUFFERED, BUFFERLESS, Request, SeparableDualAllocator
from .dxbar import DXbarRouter

_PORTS = tuple(Port)  # request input index -> Port


class UnifiedRouter(DXbarRouter):
    """Dual-input single crossbar with conflict-free separable allocation."""

    def __init__(self, node, mesh, routing, energy, config) -> None:
        super().__init__(node, mesh, routing, energy, config)
        self.allocator = SeparableDualAllocator()

    # Activity scheduling: ``is_idle`` is inherited from DXbarRouter.  The
    # only extra state here — the separable allocator's round-robin
    # pointers — mutates exclusively inside ``allocate``, which the idle
    # fast path of ``_step_normal`` never reaches.

    # ------------------------------------------------------------------
    def _step_normal(self, cycle: int, primary_ok: bool, secondary_ok: bool) -> None:
        # A fault anywhere in the single crossbar freezes traversal until
        # the BIST detects it (then step() routes us to degraded mode).
        if not (primary_ok and secondary_ok):
            for in_port, flit in self.incoming:
                flit.buffered_events += 1
                self.counters.buffered_events += 1
                self.energy.charge_buffer(flit)
                self.fifos[in_port].force_push(flit)
                if self.trace is not None:
                    self.trace.emit(
                        cycle,
                        EV_BUFFER,
                        self.node,
                        flit,
                        in_port=in_port.name,
                        occupancy=len(self.fifos[in_port]),
                        overfill=True,
                    )
            return

        inj = self.inj_queue
        buffered = self._any_buffered
        if not self.incoming and not inj and not buffered:
            self.fairness.count = 0  # no waiters: the counter rests
            return

        outputs_used: set = set()
        incoming = self._ordered_incoming()

        # Must-place pre-pass: a full-FIFO input cannot absorb a loser, so
        # its flit is switched (or deflected) before the allocator can hand
        # every output to somebody else.  No FIFO is full when nothing is
        # buffered, and then no waiter exists either unless one is queued.
        if buffered:
            must, rest = self._split_must_place(incoming)
            incoming_won = self._serve_incoming(must, outputs_used, cycle, True)
        else:
            rest, incoming_won = incoming, False
        waiters = self._collect_waiters() if inj or buffered else []
        flip = bool(waiters) and self.fairness.should_flip()

        # With no crosspoint fault to mask, every output still free and no
        # escalation to adaptive candidates, a flit's wants are its routing
        # table row.
        fault = self.fault
        direct = (
            (fault is None or not fault.is_crosspoint)
            and not outputs_used
            and not self._escalate_on_deflections
        )
        routes = self._routes
        requests: List[Request] = []
        for in_port, flit in rest:
            wants = (
                routes[flit.dst] if direct else self._wants(flit, outputs_used, in_port)
            )
            if wants:
                requests.append(Request(int(in_port), BUFFERLESS, flit, wants))
        # A waiter's request index is its input port: FIFOs sit on the
        # direction inputs and the injection queue on LOCAL.
        for _kind, in_port, flit in waiters:
            if direct:
                wants = routes[flit.dst]
            else:
                wants = self._wants(flit, outputs_used, in_port)
                if not wants and self._crosspoint_blocked_all(flit, in_port):
                    # The single crossbar cannot connect this input to any
                    # productive output (dead crosspoint + deterministic
                    # routing): request a misroute through any live
                    # direction port — the flit re-routes from the next
                    # router.
                    wants = self._misroute_wants(outputs_used, in_port)
            if wants:
                requests.append(Request(int(in_port), BUFFERED, flit, wants))

        grants, swaps = self.allocator.allocate(requests, waiters_first=flip)
        if self.audit is not None:
            self.audit.observe_grants(self.node, cycle, grants)
        self.stats.allocator_swaps += swaps
        if flip:
            self.fairness.note_flip()
            self.counters.fairness_flips += 1
            self.stats.fairness_flips += 1

        won_inputs = 0  # mask of inputs whose incoming flit was granted
        waiter_won = False
        trace = self.trace
        for grant in grants:
            req, out = grant.request, grant.output
            flit = req.flit
            if not direct and out not in routes[flit.dst]:
                flit.deflections += 1  # crosspoint-forced misroute
                self.counters.deflections += 1
                if trace is not None:
                    trace.emit(cycle, EV_DEFLECT, self.node, flit, out_port=out.name)
            if req.lane == BUFFERLESS:
                won_inputs |= 1 << req.input_index
                self.counters.primary_traversals += 1
                if trace is not None:
                    trace.emit(
                        cycle, EV_ARB_WIN, self.node, flit, in_port=_PORTS[req.input_index].name
                    )
                    trace.emit(
                        cycle,
                        EV_TRAVERSE_PRIMARY,
                        self.node,
                        flit,
                        in_port=_PORTS[req.input_index].name,
                        out_port=out.name,
                    )
            else:
                in_port = _PORTS[req.input_index]
                if in_port is Port.LOCAL:
                    kind = "inj"
                    inj.popleft()
                    self.mark_network_entry(flit, cycle)
                else:
                    kind = "fifo"
                    popped = self.fifos[in_port].pop()
                    assert popped is flit, "waiter snapshot desynchronised"
                waiter_won = True
                self.counters.secondary_traversals += 1
                if trace is not None:
                    trace.emit(
                        cycle,
                        EV_TRAVERSE_SECONDARY,
                        self.node,
                        flit,
                        in_port=in_port.name,
                        out_port=out.name,
                        kind=kind,
                    )
            self.energy.charge_xbar(flit)
            self.send(flit, out, cycle)

        # Incoming losers are demuxed into their FIFO, exactly as in DXbar
        # (their FIFO has space — full inputs went through the pre-pass).
        for in_port, flit in rest:
            if not (won_inputs >> in_port) & 1:
                flit.buffered_events += 1
                self.counters.buffered_events += 1
                self.energy.charge_buffer(flit)
                self.fifos[in_port].push(flit)
                if trace is not None:
                    trace.emit(
                        cycle, EV_ARB_LOSE, self.node, flit, in_port=in_port.name
                    )
                    trace.emit(
                        cycle,
                        EV_BUFFER,
                        self.node,
                        flit,
                        in_port=in_port.name,
                        occupancy=len(self.fifos[in_port]),
                    )

        self.fairness.update(
            waiters_present=bool(waiters),
            waiter_won=waiter_won,
            incoming_won=incoming_won or bool(won_inputs),
        )

    def _wants(
        self, flit: Flit, outputs_used: set, in_port: Port = Port.LOCAL
    ) -> Tuple[Port, ...]:
        """Preference-ordered candidate outputs still free this cycle.

        A manifested crosspoint fault removes its (input row, output
        column) from the request vector: the single segmented crossbar has
        one row per input, so both lanes lose that crosspoint (the fault's
        nominal primary/secondary attribute does not matter here).
        """
        fault = self.fault
        wants = []
        for cand in self._candidates(flit):
            if cand in outputs_used:
                continue
            if (
                fault is not None
                and fault.is_crosspoint
                and self._current_cycle >= fault.manifest_cycle
                and fault.input_port == in_port
                and fault.output_port == cand
            ):
                continue
            wants.append(cand)
        return tuple(wants)

    def _crosspoint_blocked_all(self, flit: Flit, in_port: Port) -> bool:
        """True when every productive output of ``flit`` from ``in_port``
        sits behind a manifested crosspoint fault."""
        fault = self.fault
        if fault is None or not fault.is_crosspoint:
            return False
        if self._current_cycle < fault.manifest_cycle or fault.input_port != in_port:
            return False
        cands = self._candidates(flit)
        return all(c == fault.output_port for c in cands)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["allocator"] = self.allocator.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.allocator.load_state_dict(state["allocator"])

    def _misroute_wants(self, outputs_used: set, in_port: Port) -> Tuple[Port, ...]:
        """Live direction ports usable for a crosspoint-forced misroute.

        The scan origin rotates with the clock and the arrival port goes
        last, so a blocked flit re-approaches its destination from varying
        inputs instead of settling into a stable orbit.
        """
        fault = self.fault
        ports = list(self.fifos)
        start = (self._current_cycle + self.node) % len(ports)
        out = []
        uturn = None
        for i in range(len(ports)):
            cand = ports[(start + i) % len(ports)]
            if cand in outputs_used:
                continue
            if fault is not None and fault.is_crosspoint and (
                fault.input_port == in_port and fault.output_port == cand
            ):
                continue
            if cand == in_port:
                uturn = cand
                continue
            out.append(cand)
        if uturn is not None:
            out.append(uturn)
        return tuple(out)
