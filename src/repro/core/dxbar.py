"""The DXbar dual-crossbar router (Section II).

Microarchitecture (Fig 1):

* a **primary** bufferless crossbar switches incoming flits in the cycle
  they arrive (SA/ST; look-ahead routing makes RC free);
* a **secondary** 5x5 crossbar fed by one 4-flit serial FIFO per direction
  input plus the unbuffered PE injection port;
* input de-multiplexers steer an arbitration *loser* into its FIFO instead
  of deflecting or dropping it; output multiplexers merge both crossbars
  onto the five output ports;
* incoming flits have priority over buffered/injection flits, oldest-first
  within each class; the fairness counter (threshold 4) flips the classes
  when waiters starve;
* because the buffered flit uses the *secondary* crossbar, a newly arriving
  flit on the same input can be switched simultaneously (Fig 3(c)/(d)) —
  the property that distinguishes DXbar from buffer-bypass designs.

Flow control: the inter-router links are bufferless, exactly as in
Flit-BLESS — a router must sink every arriving flit in the cycle it
arrives.  The sink order is: productive output via the primary crossbar,
else the input's FIFO, else (FIFO full — rare, the paper's fairness
counter bounds buffer residency) the flit is *deflected* through the
primary crossbar like a BLESS flit.  The overflow-deflection fallback is a
documented substitution (DESIGN.md): the paper's prose says losers are
always buffered but specifies no buffer-full interlock, and
credit-reserving the 4-deep FIFO across the 3-cycle round trip would
throttle the bufferless fast path the design is built around (this is the
same escape valve the later minimally-buffered deflection literature,
e.g. MinBD, adopts).  A "must-place" pre-pass guarantees a free output
always exists for a full-FIFO input (#incoming <= #direction outputs).

Fault tolerance (Section II.C): when either crossbar fails and the 5-cycle
BIST detection elapses, the router reconfigures through its 2x2 steering
switches into a degraded buffered mode that uses only the surviving
crossbar.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..obs.trace import (
    EV_ARB_LOSE,
    EV_ARB_WIN,
    EV_BUFFER,
    EV_DEFLECT,
    EV_FAIRNESS_FLIP,
    EV_FAULT_RECONFIG,
    EV_TRAVERSE_PRIMARY,
    EV_TRAVERSE_SECONDARY,
)
from ..routers.base import BaseRouter
from ..sim.flit import Flit
from ..sim.ports import Port
from .buffers import FlitFIFO
from .fairness import FairnessCounter
from .faults import RouterFault


class DXbarRouter(BaseRouter):
    """Dual-crossbar router: bufferless primary + buffered secondary."""

    uses_credits = False

    def __init__(self, node, mesh, routing, energy, config) -> None:
        super().__init__(node, mesh, routing, energy, config)
        depth = config.buffer_depth
        self.fifos = {port: FlitFIFO(depth) for port in mesh.ports_of(node)}
        self._fifo_list = list(self.fifos.values())
        self.fairness = FairnessCounter(config.fairness_threshold)
        self._routes = routing.row(node)  # candidates per destination
        # Fault state, assigned by the network from the FaultPlan.
        self.fault: Optional[RouterFault] = None
        self.reconfigured = False
        self._current_cycle = 0
        # With crosspoint-granularity faults, strict deterministic routing
        # can render a destination unreachable from one approach direction;
        # a flit that keeps bouncing escalates to minimal-adaptive
        # candidates (the paper: packets "try to adapt to the topology").
        self._escalate_on_deflections = config.faults.granularity == "crosspoint"

    def enable_trace(self, tracer) -> None:
        """Wire the tracer, including the fairness counter's flip hook
        (the flip record is emitted from :mod:`repro.core.fairness` at the
        moment the flip is applied)."""
        super().enable_trace(tracer)

        def _on_flip(flips: int) -> None:
            tracer.emit(self._current_cycle, EV_FAIRNESS_FLIP, self.node, flips=flips)

        self.fairness.on_flip = _on_flip

    # ------------------------------------------------------------------
    def step(self, cycle: int) -> None:
        self._current_cycle = cycle
        if self.reconfigured:
            self._step_degraded(cycle)
            return
        fault = self.fault
        if fault is None:
            self._step_normal(cycle, True, True)
            return
        # Crosspoint faults are masked, not degraded.
        if not fault.is_crosspoint and fault.detected(cycle):
            self.reconfigured = True
            self.counters.fault_reconfigs += 1
            self.stats.fault_reconfigurations += 1
            if self.trace is not None:
                self.trace.emit(
                    cycle, EV_FAULT_RECONFIG, self.node, **fault.as_event()
                )
            self._step_degraded(cycle)
            return
        self._step_normal(cycle, fault.primary_ok(cycle), fault.secondary_ok(cycle))

    # ------------------------------------------------------------------
    # building blocks
    # ------------------------------------------------------------------
    def _pick_output(
        self,
        flit: Flit,
        outputs_used: set,
        in_port: Port = Port.LOCAL,
        crossbar: str = "primary",
    ) -> Optional[Port]:
        """First free candidate port for ``flit`` (adaptive routing
        functions expose several candidates, which is how a buffered flit
        "re-directs to another progressive direction").

        Detected crosspoint faults are masked by the switch allocator
        (skipped); an *undetected* broken crosspoint is attempted blindly
        and the traversal fails — modelled by returning None so the flit is
        buffered/stalls for the cycle (the paper's BIST detects exactly
        these failed connections).
        """
        fault = self.fault
        for cand in self._candidates(flit):
            if cand in outputs_used:
                continue
            if fault is not None and fault.is_crosspoint:
                cycle = self._current_cycle
                if fault.masks(crossbar, in_port, cand, cycle):
                    continue  # allocator routes around the known fault
                if fault.blocks(crossbar, in_port, cand, cycle):
                    return None  # blind attempt fails this cycle
            return cand
        return None

    def _candidates(self, flit: Flit):
        """Routing candidates, escalating to minimal-adaptive for flits a
        crosspoint fault has repeatedly deflected."""
        if self._escalate_on_deflections and flit.deflections >= 4:
            return self.network.adaptive_routing.candidates(self.node, flit.dst)
        return self._routes[flit.dst]

    def _deflect(
        self, flit: Flit, outputs_used: set, cycle: int, in_port: Optional[Port] = None
    ) -> None:
        """Overflow fallback: push the flit out of a free direction port
        through the primary crossbar (BLESS-style).

        An immediate u-turn (back out of the arrival port) is taken only as
        a last resort: with crosspoint faults, u-turn deflections can lock
        a flit into a two-router ping-pong that starves everyone else.
        """
        fallback = None
        ports = list(self.fifos)  # the direction ports present at this node
        # Rotate the scan origin with the clock: a fixed scan order can trap
        # a crosspoint-blocked flit in a stable multi-router orbit.
        start = (cycle + self.node) % len(ports)
        for i in range(len(ports)):
            cand = ports[(start + i) % len(ports)]
            if cand in outputs_used:
                continue
            if cand == in_port:
                fallback = cand
                continue
            outputs_used.add(cand)
            flit.deflections += 1
            self.counters.deflections += 1
            self.energy.charge_xbar(flit)
            if self.trace is not None:
                self.trace.emit(cycle, EV_DEFLECT, self.node, flit, out_port=cand.name)
            self.send(flit, cand, cycle)
            return
        if fallback is not None:
            outputs_used.add(fallback)
            flit.deflections += 1
            self.counters.deflections += 1
            self.energy.charge_xbar(flit)
            if self.trace is not None:
                self.trace.emit(
                    cycle, EV_DEFLECT, self.node, flit, out_port=fallback.name, uturn=True
                )
            self.send(flit, fallback, cycle)
            return
        raise AssertionError(
            f"router {self.node}: no deflection port free for an "
            "unbufferable flit (must-place ordering violated)"
        )

    def _ordered_incoming(self) -> List[Tuple[Port, Flit]]:
        if len(self.incoming) <= 1:
            return self.incoming
        return sorted(
            self.incoming,
            key=lambda pf: (pf[1].injected_cycle, pf[1].packet_id, pf[1].flit_index),
        )

    def _collect_waiters(self) -> List[Tuple[str, Port, Flit]]:
        """Snapshot the secondary-crossbar requesters: FIFO heads and the
        injection-port flit.  Flits buffered *this* cycle are deliberately
        absent — they become eligible next cycle."""
        waiters: List[Tuple[str, Port, Flit]] = []
        for port, fifo in self.fifos.items():
            q = fifo._q
            if q:
                waiters.append(("fifo", port, q[0]))
        if self.inj_queue:
            waiters.append(("inj", Port.LOCAL, self.inj_queue[0]))
        if len(waiters) > 1:
            waiters.sort(
                key=lambda w: (w[2].injected_cycle, w[2].packet_id, w[2].flit_index)
            )
        return waiters

    def _serve_waiters(
        self,
        waiters: List[Tuple[str, Port, Flit]],
        outputs_used: set,
        cycle: int,
        xbar_charge: bool = True,
    ) -> bool:
        """Secondary-crossbar phase: move eligible buffered/injection flits."""
        won = False
        fault = self.fault
        for kind, in_port, flit in waiters:
            out = self._pick_output(flit, outputs_used, in_port, "secondary")
            if (
                out is None
                and fault is not None
                and fault.is_crosspoint
                and fault.crossbar == "secondary"
                and fault.input_port == in_port
                and fault.detected(cycle)
            ):
                # The 2x2 steering switches between the buffers and the
                # crossbars (Section II.C) let a buffered flit reach the
                # *primary* crossbar when its secondary crosspoint is known
                # dead — without this, a DOR flit whose only productive
                # output sits behind the broken crosspoint would starve.
                out = self._pick_output(flit, outputs_used, in_port, "primary")
            if out is None:
                continue
            outputs_used.add(out)
            if kind == "fifo":
                popped = self.fifos[in_port].pop()
                assert popped is flit, "waiter snapshot desynchronised"
            else:
                self.inj_queue.popleft()
                self.mark_network_entry(flit, cycle)
            if xbar_charge:
                self.energy.charge_xbar(flit)
            self.counters.secondary_traversals += 1
            if self.trace is not None:
                self.trace.emit(
                    cycle,
                    EV_TRAVERSE_SECONDARY,
                    self.node,
                    flit,
                    in_port=in_port.name,
                    out_port=out.name,
                    kind=kind,
                )
            self.send(flit, out, cycle)
            won = True
        return won

    def _serve_incoming(
        self,
        incoming: List[Tuple[Port, Flit]],
        outputs_used: set,
        cycle: int,
        primary_ok: bool,
    ) -> bool:
        """Primary-crossbar phase: switch incoming flits; losers are demuxed
        into their input FIFO (or deflected if the FIFO is full)."""
        won = False
        for in_port, flit in incoming:
            out = (
                self._pick_output(flit, outputs_used, in_port, "primary")
                if primary_ok
                else None
            )
            if out is not None:
                outputs_used.add(out)
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
                won = True
            elif not self.fifos[in_port].full:
                flit.buffered_events += 1
                self.counters.buffered_events += 1
                self.energy.charge_buffer(flit)
                self.fifos[in_port].push(flit)
                if self.trace is not None:
                    self.trace.emit(
                        cycle, EV_ARB_LOSE, self.node, flit, in_port=in_port.name
                    )
                    self.trace.emit(
                        cycle,
                        EV_BUFFER,
                        self.node,
                        flit,
                        in_port=in_port.name,
                        occupancy=len(self.fifos[in_port]),
                    )
            elif primary_ok:
                if self.trace is not None:
                    self.trace.emit(
                        cycle,
                        EV_ARB_LOSE,
                        self.node,
                        flit,
                        in_port=in_port.name,
                        fifo_full=True,
                    )
                self._deflect(flit, outputs_used, cycle, in_port)
                won = True
            else:
                # Undetected primary fault with a full FIFO: the flit is
                # forced into the buffer anyway — physically this is the
                # input latch holding; modelled as a one-slot overfill that
                # the degraded mode drains after detection.
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
        return won

    def _split_must_place(
        self, incoming: List[Tuple[Port, Flit]]
    ) -> Tuple[List[Tuple[Port, Flit]], List[Tuple[Port, Flit]]]:
        """Partition incoming flits into (full-FIFO inputs, bufferable)."""
        must, rest = [], []
        for in_port, flit in incoming:
            (must if self.fifos[in_port].full else rest).append((in_port, flit))
        return must, rest

    # ------------------------------------------------------------------
    def _step_normal(self, cycle: int, primary_ok: bool, secondary_ok: bool) -> None:
        # Fast path: an idle router (no arrivals, empty buffers, nothing to
        # inject) has no work this cycle — a large share of routers at low
        # and moderate loads.
        inj = self.inj_queue
        buffered = self._any_buffered
        if not self.incoming and not inj and not buffered:
            self.fairness.count = 0  # no waiters: the counter rests
            return
        # _collect_waiters scans and sorts every FIFO head; when nothing is
        # buffered or queued (the common switch-through case) it provably
        # returns [], so skip the scan and the whole waiter machinery.
        waiters = (
            self._collect_waiters() if secondary_ok and (inj or buffered) else []
        )
        outputs_used: set = set()
        incoming = self._ordered_incoming()

        if not waiters:
            self._serve_incoming(incoming, outputs_used, cycle, primary_ok)
            self.fairness.count = 0  # update(waiters_present=False): rest
            return

        if self.fairness.should_flip():
            # Waiters are served first — but incoming flits whose FIFO is
            # full must be placed before waiters can consume every output.
            must, rest = self._split_must_place(incoming)
            incoming_won = self._serve_incoming(must, outputs_used, cycle, primary_ok)
            waiter_won = self._serve_waiters(waiters, outputs_used, cycle)
            incoming_won |= self._serve_incoming(rest, outputs_used, cycle, primary_ok)
            self.fairness.note_flip()
            self.counters.fairness_flips += 1
            self.stats.fairness_flips += 1
        else:
            incoming_won = self._serve_incoming(incoming, outputs_used, cycle, primary_ok)
            waiter_won = self._serve_waiters(waiters, outputs_used, cycle)

        self.fairness.update(
            waiters_present=True,
            waiter_won=waiter_won,
            incoming_won=incoming_won,
        )

    # ------------------------------------------------------------------
    def _step_degraded(self, cycle: int) -> None:
        """Single surviving crossbar: behave as a buffered router (with the
        2-stage look-ahead pipeline DXbar retains).  Incoming flits whose
        FIFO is full deflect through the surviving crossbar."""
        waiters = self._collect_waiters()
        outputs_used: set = set()
        must, rest = self._split_must_place(self._ordered_incoming())
        for in_port, flit in must:
            out = self._pick_output(flit, outputs_used, in_port, "secondary")
            if out is None:
                self._deflect(flit, outputs_used, cycle, in_port)
            else:
                outputs_used.add(out)
                self.energy.charge_xbar(flit)
                self.counters.secondary_traversals += 1
                if self.trace is not None:
                    self.trace.emit(
                        cycle,
                        EV_TRAVERSE_SECONDARY,
                        self.node,
                        flit,
                        in_port=in_port.name,
                        out_port=out.name,
                        kind="degraded",
                    )
                self.send(flit, out, cycle)
        self._serve_waiters(waiters, outputs_used, cycle)
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

    @property
    def _any_buffered(self) -> bool:
        for fifo in self._fifo_list:
            if fifo._q:
                return True
        return False

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
        # The paper's starvation bound: a fairness streak never survives
        # past its threshold — the flip (or the idle rest) clears it.
        if self.fairness.count > self.fairness.threshold:
            yield (
                "fairness",
                f"fairness counter at {self.fairness.count} exceeds "
                f"threshold {self.fairness.threshold} without flipping",
            )
        # FIFO overfill is legal only as the undetected-non-crosspoint-fault
        # input-latch hold (drained by the degraded mode after detection).
        overfill_ok = self.fault is not None and not self.fault.is_crosspoint
        for port, fifo in self.fifos.items():
            if len(fifo) > fifo.depth and not overfill_ok:
                yield (
                    "design",
                    f"secondary FIFO {port.name} holds {len(fifo)} flits "
                    f"(depth {fifo.depth}) with no fault to excuse the "
                    "overfill",
                )

    def is_idle(self) -> bool:
        """Idle only once the secondary buffers, the injection queue, the
        fairness counter and the fault-detection latch are all at rest.

        * a mid-streak fairness counter must keep the router active: the
          idle fast path of :meth:`_step_normal` rests it to zero, and
          skipping that reset would diverge from the dense walk;
        * an undetected non-crosspoint fault flips ``reconfigured`` inside
          :meth:`step` even when the datapath is empty, so the router stays
          active until the BIST latch has fired (after reconfiguration the
          degraded step never touches the fairness counter, so its value —
          whatever it froze at — no longer gates idleness).
        """
        if self.inj_queue or self._any_buffered:
            return False
        fault = self.fault
        if fault is not None and not fault.is_crosspoint and not self.reconfigured:
            return False
        return self.reconfigured or self.fairness.count == 0

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["fifos"] = {port.name: fifo.state_dict() for port, fifo in self.fifos.items()}
        state["fairness"] = self.fairness.state_dict()
        # ``fault`` is reattached from the deterministically rebuilt
        # FaultPlan; only the reconfiguration latch is genuine state.
        state["reconfigured"] = self.reconfigured
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        # FIFOs are loaded in place: _fifo_list aliases fifos.values().
        for name, s in state["fifos"].items():
            self.fifos[Port[name]].load_state_dict(s)
        self.fairness.load_state_dict(state["fairness"])
        self.reconfigured = state["reconfigured"]
