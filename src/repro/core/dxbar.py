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

# Module constant: an IntEnum class-attribute lookup costs several times a
# global read on the per-cycle path.
_LOCAL = Port.LOCAL


def _flit_age(item: tuple) -> Tuple[int, int, int, int]:
    """Age key of an ``(in_port, flit)`` arrival or ``(kind, in_port,
    flit)`` waiter: the flit comes last in both."""
    return item[-1].age


class DXbarRouter(BaseRouter):
    """Dual-crossbar router: bufferless primary + buffered secondary."""

    uses_credits = False

    def __init__(self, node, mesh, routing, energy, config) -> None:
        super().__init__(node, mesh, routing, energy, config)
        depth = config.buffer_depth
        self.fifos = {port: FlitFIFO(depth) for port in mesh.ports_of(node)}
        # (port, queue) per FIFO for the hot scans; FlitFIFO keeps its deque
        # for life (a checkpoint load refills it in place).
        self._fifo_queues = tuple((port, fifo._q) for port, fifo in self.fifos.items())
        # The queue a served waiter pops, by input port.
        self._queues = {**dict(self._fifo_queues), _LOCAL: self.inj_queue}
        self.fairness = FairnessCounter(config.fairness_threshold)
        self._routes = routing.row(node)  # candidates per destination
        # With crosspoint-granularity faults, strict deterministic routing
        # can render a destination unreachable from one approach direction;
        # a flit that keeps bouncing escalates to minimal-adaptive
        # candidates (the paper: packets "try to adapt to the topology").
        self._escalate_on_deflections = config.faults.granularity == "crosspoint"
        # Fault state, assigned by the network from the FaultPlan.
        self.fault = None
        self.reconfigured = False
        self._current_cycle = 0

    def enable_trace(self, tracer) -> None:
        """Wire the tracer, including the fairness counter's flip hook
        (the flip record is emitted from :mod:`repro.core.fairness` at the
        moment the flip is applied)."""
        super().enable_trace(tracer)

        def _on_flip(flips: int) -> None:
            tracer.emit(self._current_cycle, EV_FAIRNESS_FLIP, self.node, flips=flips)

        self.fairness.on_flip = _on_flip

    @property
    def fault(self) -> Optional[RouterFault]:
        """The router's fault (None when healthy); the per-cycle paths read
        ``_fault``."""
        return self._fault

    @fault.setter
    def fault(self, fault: Optional[RouterFault]) -> None:
        self._fault = fault
        # ``_plain``: every output pick is the first free entry of the
        # routing row ``self._routes[flit.dst]``, taken inline, unless a
        # crosspoint fault must be masked or attempted (:meth:`_pick_output`)
        # or flits may escalate to adaptive candidates.  A reconfigured
        # router always qualifies: escalation exists only under crosspoint
        # granularity, where no fault is whole-crossbar.
        self._plain = not self._escalate_on_deflections and (
            fault is None or not fault.is_crosspoint
        )

    # ------------------------------------------------------------------
    def step(self, cycle: int) -> None:
        self._current_cycle = cycle
        if self.reconfigured:
            self._step_degraded(cycle)
            return
        fault = self._fault
        if fault is None:
            self._step_normal(cycle, True, True)
            return
        # Crosspoint faults are masked, not degraded.
        if not fault.is_crosspoint and fault.detected(cycle):
            self.reconfigured = True
            self.counters.fault_reconfigs += 1
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
        in_port: Port = _LOCAL,
        crossbar: str = "primary",
    ) -> Optional[Port]:
        """First free candidate port for ``flit`` under crosspoint faults or
        escalation (adaptive routing functions expose several candidates,
        which is how a buffered flit "re-directs to another progressive
        direction").

        Detected crosspoint faults are masked by the switch allocator
        (skipped); an *undetected* broken crosspoint is attempted blindly
        and the traversal fails — modelled by returning None so the flit is
        buffered/stalls for the cycle (the paper's BIST detects exactly
        these failed connections).
        """
        fault = self._fault
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
            if self.trace is not None:
                self.trace.emit(cycle, EV_DEFLECT, self.node, flit, out_port=cand.name)
            self.traverse(flit, cand, cycle)
            return
        if fallback is not None:
            outputs_used.add(fallback)
            flit.deflections += 1
            self.counters.deflections += 1
            if self.trace is not None:
                self.trace.emit(
                    cycle, EV_DEFLECT, self.node, flit, out_port=fallback.name, uturn=True
                )
            self.traverse(flit, fallback, cycle)
            return
        raise AssertionError(
            f"router {self.node}: no deflection port free for an "
            "unbufferable flit (must-place ordering violated)"
        )

    def _ordered_incoming(self) -> List[Tuple[Port, Flit]]:
        incoming = self.incoming
        n = len(incoming)
        if n <= 1:
            return incoming
        if n == 2:  # the common pair: one comparison, no sort machinery
            a, b = incoming
            return [b, a] if b[1].age < a[1].age else incoming
        return sorted(incoming, key=_flit_age)

    def _collect_waiters(self) -> List[Tuple[str, Port, Flit]]:
        """Snapshot the secondary-crossbar requesters: FIFO heads and the
        injection-port flit.  Flits buffered *this* cycle are deliberately
        absent — they become eligible next cycle."""
        waiters: List[Tuple[str, Port, Flit]] = []
        for port, q in self._fifo_queues:
            if q:
                waiters.append(("fifo", port, q[0]))
        inj = self.inj_queue
        if inj:
            waiters.append(("inj", _LOCAL, inj[0]))
        n = len(waiters)
        if n == 2:  # the common pair: one comparison, no sort machinery
            if waiters[1][2].age < waiters[0][2].age:
                waiters.reverse()
        elif n > 2:
            waiters.sort(key=_flit_age)
        return waiters

    def _serve_waiters(
        self,
        waiters: List[Tuple[str, Port, Flit]],
        outputs_used: set,
        cycle: int,
    ) -> bool:
        """Secondary-crossbar phase: move eligible buffered/injection flits."""
        won = False
        fault = self._fault
        plain = self._plain
        routes = self._routes
        queues = self._queues
        counters = self.counters
        trace = self.trace
        for kind, in_port, flit in waiters:
            if plain:
                for out in routes[flit.dst]:
                    if out not in outputs_used:
                        break
                else:
                    continue
            else:
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
                    # *primary* crossbar when its secondary crosspoint is
                    # known dead — without this, a DOR flit whose only
                    # productive output sits behind the broken crosspoint
                    # would starve.
                    out = self._pick_output(flit, outputs_used, in_port, "primary")
                if out is None:
                    continue
            outputs_used.add(out)
            popped = queues[in_port].popleft()
            assert popped is flit, "waiter snapshot desynchronised"
            if kind == "inj":
                self.mark_network_entry(flit, cycle)
            counters.secondary_traversals += 1
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
            self.traverse(flit, out, cycle)
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
        plain = primary_ok and self._plain
        routes = self._routes
        fifos = self.fifos
        counters = self.counters
        trace = self.trace
        for in_port, flit in incoming:
            if plain:
                for out in routes[flit.dst]:
                    if out not in outputs_used:
                        break
                else:
                    out = None
            elif primary_ok:
                out = self._pick_output(flit, outputs_used, in_port, "primary")
            else:
                out = None
            if out is not None:
                outputs_used.add(out)
                counters.primary_traversals += 1
                if trace is not None:
                    trace.emit(
                        cycle, EV_ARB_WIN, self.node, flit, in_port=in_port.name
                    )
                    trace.emit(
                        cycle,
                        EV_TRAVERSE_PRIMARY,
                        self.node,
                        flit,
                        in_port=in_port.name,
                        out_port=out.name,
                    )
                self.traverse(flit, out, cycle)
                won = True
                continue
            fifo = fifos[in_port]
            if len(fifo._q) < fifo.depth:  # not full
                self._buffer(flit, in_port, cycle, lost=True)
            elif primary_ok:
                if trace is not None:
                    trace.emit(
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
                # held in the buffer anyway, and so is every later arrival
                # until BIST detection — nothing is lost, and the FIFO
                # grows by at most one flit per cycle of the detection
                # delay; the degraded mode drains it after detection.
                self._buffer(flit, in_port, cycle, overfill=True)
        return won

    def _buffer(
        self, flit: Flit, in_port: Port, cycle: int, lost: bool = False,
        overfill: bool = False,
    ) -> None:
        """Demux ``flit`` into its input FIFO: the buffer charge, the append
        (with :meth:`FlitFIFO.push`'s overflow check unless ``overfill``:
        an undetected fault's latch hold may fill past ``depth``) and the
        trace records, led by an arbitration loss when ``lost``."""
        fifo = self.fifos[in_port]
        q = fifo._q
        if not overfill and len(q) >= fifo.depth:
            raise RuntimeError("FIFO overflow: flow-control protocol violated")
        flit.buffered_events += 1
        self.counters.buffered_events += 1
        self.energy.charge_buffer(flit)
        q.append(flit)
        trace = self.trace
        if trace is not None:
            if lost:
                trace.emit(cycle, EV_ARB_LOSE, self.node, flit, in_port=in_port.name)
            extra = {"overfill": True} if overfill else {}
            trace.emit(
                cycle, EV_BUFFER, self.node, flit, in_port=in_port.name,
                occupancy=len(q), **extra,
            )

    def _split_must_place(
        self, incoming: List[Tuple[Port, Flit]]
    ) -> Tuple[List[Tuple[Port, Flit]], List[Tuple[Port, Flit]]]:
        """Partition incoming flits into (full-FIFO inputs, bufferable)."""
        must, rest = [], []
        fifos = self.fifos
        for pair in incoming:
            fifo = fifos[pair[0]]
            (must if len(fifo._q) >= fifo.depth else rest).append(pair)
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
        2-stage look-ahead pipeline DXbar retains).  One cycle, in order:

        1. must-place — an incoming flit whose FIFO is full cannot be
           buffered, so it crosses the surviving crossbar now, oldest
           first, or deflects when all its productive outputs are taken;
        2. waiters — the FIFO heads and injection flit snapshotted at the
           start of the cycle take the outputs still free;
        3. every other incoming flit is buffered in its input FIFO.

        Picks are inline first-free entries of the routing row (a
        reconfigured router always has ``_plain`` picks).
        """
        waiters = self._collect_waiters()
        incoming = self._ordered_incoming()
        outputs_used: set = set()
        routes = self._routes
        fifos = self.fifos
        counters = self.counters
        trace = self.trace
        placed = 0  # mask of the must-place inputs
        for in_port, flit in incoming:
            fifo = fifos[in_port]
            if len(fifo._q) < fifo.depth:
                continue  # room to buffer: step 3
            placed |= 1 << in_port
            for out in routes[flit.dst]:
                if out not in outputs_used:
                    break
            else:
                self._deflect(flit, outputs_used, cycle, in_port)
                continue
            outputs_used.add(out)
            counters.secondary_traversals += 1
            if trace is not None:
                trace.emit(
                    cycle,
                    EV_TRAVERSE_SECONDARY,
                    self.node,
                    flit,
                    in_port=in_port.name,
                    out_port=out.name,
                    kind="degraded",
                )
            self.traverse(flit, out, cycle)
        if waiters:
            self._serve_waiters(waiters, outputs_used, cycle)
        for in_port, flit in incoming:
            if not (placed >> in_port) & 1:
                self._buffer(flit, in_port, cycle)

    @property
    def _any_buffered(self) -> bool:
        for _port, q in self._fifo_queues:
            if q:
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
        # An undetected whole-crossbar fault holds every arrival in its
        # input FIFO until BIST detection: at most one flit per cycle of the
        # detection delay beyond the depth (drained by the degraded mode).
        fault = self._fault
        window = 0
        if fault is not None and not fault.is_crosspoint:
            window = fault.detected_cycle - fault.manifest_cycle
        for port, fifo in self.fifos.items():
            if len(fifo) > fifo.depth + window:
                yield (
                    "design",
                    f"secondary FIFO {port.name} holds {len(fifo)} flits, over "
                    f"its depth {fifo.depth} plus the {window}-cycle "
                    "undetected-fault window",
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
        fault = self._fault
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
        # FIFOs are loaded in place: _fifo_queues aliases their deques.
        for name, s in state["fifos"].items():
            self.fifos[Port[name]].load_state_dict(s)
        self.fairness.load_state_dict(state["fairness"])
        self.reconfigured = state["reconfigured"]
