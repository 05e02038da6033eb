"""The per-cycle invariant auditor.

An :class:`Auditor` wraps a running :class:`~repro.sim.network.Network`
and re-derives, after every cycle, the invariants the whole reproduction
rests on:

a. **flit conservation** — every injected flit is ejected or enumerable in
   exactly one container (router buffers, source/retransmission queues,
   link pipelines);
b. **no duplication / no teleport** — a live flit id appears in exactly
   one container and moves at most one hop per cycle, along an incident
   link;
c. **credit conservation** — per credit-controlled link, credits held
   upstream + credits in flight + flits in flight + downstream buffer
   occupancy equals the advertised buffer budget;
d. **progress watchdogs** — a configurable in-network age bound (livelock
   report naming the flit and where it is stuck) and threshold compliance
   of the DXbar/unified fairness counters;
e. **design postconditions** — via each router's
   :meth:`~repro.routers.base.BaseRouter.audit_invariants` hook and the
   unified allocator's grant feed (:meth:`Auditor.observe_grants`).

The auditor is pure observer: it never mutates simulation state, so an
audited run is bit-exact with an unaudited one.  All of its own state is
derived — :meth:`reset` (called on checkpoint load) simply drops the
movement history and re-baselines, mirroring how the network rebuilds its
active sets.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..sim.ports import OPPOSITE
from .violation import AuditViolation

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.network import Network

#: Movement-trail entries kept per live flit.
_TRAIL_DEPTH = 16


@dataclass(frozen=True)
class AuditConfig:
    """Auditor knobs.

    ``max_age`` bounds the cycles a flit may spend in the network (from
    its ``network_entry_cycle``); 0 disables the watchdog.  The default is
    generous for the shipped configurations — raise it for closed-loop
    runs at saturation, where SCARAB retransmission storms legitimately
    age flits.  ``report_dir`` makes a raised violation also land as a
    JSON report file (the CI artifact).
    """

    max_age: int = 1000
    report_dir: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"max_age": self.max_age, "report_dir": self.report_dir}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AuditConfig":
        return cls(
            max_age=data.get("max_age", 1000),
            report_dir=data.get("report_dir"),
        )


def _as_audit_config(audit) -> Optional[AuditConfig]:
    """Coerce the ``audit=`` argument accepted across the stack: False/None
    disable, True means defaults, an :class:`AuditConfig` passes through,
    a dict (the process-boundary form) is parsed."""
    if not audit:
        return None
    if isinstance(audit, AuditConfig):
        return audit
    if isinstance(audit, dict):
        return AuditConfig.from_dict(audit)
    return AuditConfig()


class Auditor:
    """Per-cycle invariant checker over one network.

    Construction attaches the auditor to every router (``router.audit``),
    which arms the designs' cheap mid-step feeds (e.g. the unified
    allocator's grant check) behind the same ``is not None`` branch the
    tracer uses.  Call :meth:`after_step` once per cycle, right after
    ``network.step()``.
    """

    def __init__(self, network: "Network", config: Optional[AuditConfig] = None) -> None:
        self.network = network
        self.config = config or AuditConfig()
        self.checks_run = 0
        self.violations = 0
        # fid -> (kind, where, container, flit) at the last audited
        # boundary; None right after construction/reset (the next
        # after_step only baselines the movement checks).
        self._prev: Optional[Dict[int, tuple]] = None
        self._prev_ejected = 0
        self._prev_next_fid = 0
        self._trail: Dict[int, List[Tuple[int, str]]] = {}
        for router in network.routers:
            router.audit = self
        # Credit-conservation wiring, precomputed once: (upstream router,
        # out port, link, channel, downstream router, in port, budget).
        self._credit_edges: List[tuple] = []
        if network.routers and network.routers[0].uses_credits:
            for up in network.routers:
                for out_port, link in up.out_links.items():
                    down = network.routers[link.dst]
                    self._credit_edges.append(
                        (
                            up,
                            out_port,
                            link,
                            up.credit_in[out_port],
                            down,
                            OPPOSITE[out_port],
                            down.credit_budget(),
                        )
                    )

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all derived history (checkpoint load, walk toggle).

        The next :meth:`after_step` re-baselines the movement checks from
        the restored state; the stateless checks (conservation counts,
        credits, ages, design postconditions) run immediately.
        """
        self._prev = None
        self._trail.clear()

    def detach(self) -> None:
        """Unhook the mid-step feeds (used by tests)."""
        for router in self.network.routers:
            if router.audit is self:
                router.audit = None

    # ------------------------------------------------------------------
    # mid-step feeds
    # ------------------------------------------------------------------
    def observe_grants(self, node: int, cycle: int, grants) -> None:
        """Design postcondition (e): the unified conflict-free allocator
        never grants one output twice, and in particular never to the two
        lanes of one input."""
        used_outputs: Dict[int, tuple] = {}
        # Grants are ((input_index, lane, flit, wants), output) tuples.
        for (i, lane, flit, _wants), out in grants:
            prior = used_outputs.get(int(out))
            if prior is not None:
                pin, plane = prior
                kind = (
                    "two lanes of input "
                    f"{pin}" if pin == i else f"inputs {pin} and {i}"
                )
                self._fail(
                    "allocation",
                    cycle,
                    node,
                    f"allocator granted output {out.name} twice ({kind}; "
                    f"lanes {plane}/{lane})",
                    flit=flit,
                    details={"output": out.name},
                )
            used_outputs[int(out)] = (i, lane)

    # ------------------------------------------------------------------
    # the per-cycle walk
    # ------------------------------------------------------------------
    def after_step(self) -> None:
        """Audit the end-of-cycle boundary the network just produced.

        Raises :class:`AuditViolation` on the first broken invariant.
        """
        net = self.network
        cycle = net.cycle - 1  # the cycle the routers just executed
        stats = net.stats
        self.checks_run += 1

        # ---- enumerate every live flit exactly once (checks a+b) -------
        positions: Dict[int, tuple] = {}
        for router in net.routers:
            node = router.node
            for label, flits in router.audit_snapshot().items():
                for flit in flits:
                    other = positions.get(flit.fid)
                    if other is not None:
                        self._fail(
                            "duplication",
                            cycle,
                            node,
                            f"flit {flit.fid} present in {self._describe(other)} "
                            f"and in node {node} [{label}]",
                            flit=flit,
                        )
                    positions[flit.fid] = ("r", node, label, flit)
        for link in net.links:
            for flit in link._regs + [link._next]:
                if flit is None:
                    continue
                other = positions.get(flit.fid)
                if other is not None:
                    self._fail(
                        "duplication",
                        cycle,
                        link.dst,
                        f"flit {flit.fid} present in {self._describe(other)} "
                        f"and on link {link.src}->{link.dst}",
                        flit=flit,
                    )
                positions[flit.fid] = ("l", link.index, "link", flit)

        # ---- movement legality against the previous boundary (b) -------
        prev = self._prev
        if prev is not None:
            for fid, cur in positions.items():
                old = prev.get(fid)
                flit = cur[3]
                if old is None:
                    if fid < self._prev_next_fid:
                        self._fail(
                            "teleport",
                            cycle,
                            self._node_of(cur),
                            f"flit {fid} reappeared in {self._describe(cur)} "
                            "after leaving the network",
                            flit=flit,
                        )
                    if not self._legal_spawn(cur, flit):
                        self._fail(
                            "teleport",
                            cycle,
                            self._node_of(cur),
                            f"new flit {fid} materialised in {self._describe(cur)} "
                            f"instead of at its source {flit.src}",
                            flit=flit,
                        )
                elif not self._legal_move(old, cur, flit):
                    self._fail(
                        "teleport",
                        cycle,
                        self._node_of(cur),
                        f"flit {fid} jumped from {self._describe(old)} to "
                        f"{self._describe(cur)} in one cycle",
                        flit=flit,
                    )
            ejected_delta = stats.total_ejected_flits - self._prev_ejected
            disappeared = [fid for fid in prev if fid not in positions]
            for fid in disappeared:
                old = prev[fid]
                flit = old[3]
                if not self._at_destination(old, flit):
                    self._fail(
                        "conservation",
                        cycle,
                        self._node_of(old),
                        f"flit {fid} vanished from {self._describe(old)} "
                        "without reaching its destination "
                        f"(dst {flit.dst}); dropped flits must re-enter a "
                        "retransmission queue",
                        flit=flit,
                    )
            if len(disappeared) != ejected_delta:
                self._fail(
                    "conservation",
                    cycle,
                    -1,
                    f"{len(disappeared)} flits left the network this cycle "
                    f"but only {ejected_delta} ejections were recorded",
                    details={"disappeared_fids": sorted(disappeared)},
                )

        # ---- global conservation count (a) -----------------------------
        expected = stats.total_injected_flits - stats.total_ejected_flits
        if len(positions) != expected:
            self._fail(
                "conservation",
                cycle,
                -1,
                f"enumerated {len(positions)} live flits but "
                f"injected-ejected = {expected} "
                f"(injected={stats.total_injected_flits}, "
                f"ejected={stats.total_ejected_flits})",
            )
        if len(positions) != net._active_flits:
            self._fail(
                "conservation",
                cycle,
                -1,
                f"enumerated {len(positions)} live flits but the network's "
                f"active-flit counter says {net._active_flits}",
            )

        # ---- progress watchdog: per-flit in-network age bound (d) ------
        max_age = self.config.max_age
        if max_age > 0:
            worst = None
            worst_age = max_age
            for entry in positions.values():
                flit = entry[3]
                if flit.network_entry_cycle < 0:
                    continue  # still queueing at the source PE
                age = cycle - flit.network_entry_cycle
                if age > worst_age:
                    worst_age = age
                    worst = entry
            if worst is not None:
                flit = worst[3]
                self._fail(
                    "starvation",
                    cycle,
                    self._node_of(worst),
                    f"flit {flit.fid} has been in the network for "
                    f"{worst_age} cycles (bound {max_age}), stuck in "
                    f"{self._describe(worst)} en route {flit.src}->{flit.dst}",
                    flit=flit,
                    details={"age": worst_age, "max_age": max_age},
                )

        # ---- design-specific postconditions (d fairness + e) -----------
        for router in net.routers:
            for check, message in router.audit_invariants(cycle):
                self._fail(check, cycle, router.node, message)

        # ---- per-link credit conservation (c) --------------------------
        for up, out_port, link, chan, down, in_port, budget in self._credit_edges:
            held = up.credits[out_port]
            total = (
                held
                + chan.in_flight()
                + link.in_flight()
                + down.audit_input_occupancy(in_port)
            )
            if total != budget:
                self._fail(
                    "credit",
                    cycle,
                    up.node,
                    f"credit conservation broken on {out_port.name} link "
                    f"{up.node}->{down.node}: held={held} "
                    f"in_flight={chan.in_flight()} link={link.in_flight()} "
                    f"buffered={down.audit_input_occupancy(in_port)} "
                    f"!= budget {budget}",
                    details={"budget": budget, "total": total},
                )

        # ---- roll the movement history forward -------------------------
        trail = self._trail
        for fid, cur in positions.items():
            old = prev.get(fid) if prev is not None else None
            if old is None or old[:2] != cur[:2]:
                entries = trail.setdefault(fid, [])
                entries.append((cycle, self._describe(cur)))
                if len(entries) > _TRAIL_DEPTH:
                    del entries[0]
        if prev is not None:
            for fid in prev:
                if fid not in positions:
                    trail.pop(fid, None)
        self._prev = positions
        self._prev_ejected = stats.total_ejected_flits
        self._prev_next_fid = net._next_flit_id

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _describe(self, entry: tuple) -> str:
        kind, where, label = entry[0], entry[1], entry[2]
        if kind == "r":
            return f"node {where} [{label}]"
        link = self.network.links[where]
        return f"link {link.src}->{link.dst}"

    def _node_of(self, entry: tuple) -> int:
        if entry[0] == "r":
            return entry[1]
        return self.network.links[entry[1]].dst

    def _legal_spawn(self, cur: tuple, flit) -> bool:
        """A first-sighted flit must be at its source: in the source queue,
        or already pushed onto an outgoing link (designs that inject and
        switch in the same cycle)."""
        kind, where, label = cur[0], cur[1], cur[2]
        if kind == "r":
            return where == flit.src and label == "inj_queue"
        return self.network.links[where].src == flit.src

    def _legal_move(self, old: tuple, cur: tuple, flit) -> bool:
        """At most one hop per cycle, along incident links only.

        Legal transitions: stay put; router -> outgoing link; advance
        within a link pipeline; link -> its destination router; link ->
        switched straight through onto a link leaving that destination;
        and the SCARAB drop: link -> the *source* router's retransmission
        queue (the NACK round trip is modelled at the source).
        """
        okind, owhere = old[0], old[1]
        ckind, cwhere, clabel = cur[0], cur[1], cur[2]
        links = self.network.links
        if okind == "r":
            if ckind == "r":
                return owhere == cwhere  # intra-router container move
            return links[cwhere].src == owhere
        arrival = links[owhere].dst
        if ckind == "l":
            return cwhere == owhere or links[cwhere].src == arrival
        if cwhere == arrival:
            return True
        return clabel == "retx" and cwhere == flit.src

    def _at_destination(self, entry: tuple, flit) -> bool:
        """Could a flit in ``entry`` have been ejected this cycle?"""
        kind, where = entry[0], entry[1]
        if kind == "r":
            return where == flit.dst
        return self.network.links[where].dst == flit.dst

    def _trace_records_for(self, fid: int) -> List[dict]:
        """The flit's telemetry lifecycle, from whichever sink is wired:
        ring buffers hand their tail back directly; file sinks are flushed
        and read back."""
        tracer = self.network.telemetry.trace
        if tracer is None:
            return []
        sink = tracer.sink
        records = getattr(sink, "records", None)
        if records is not None:
            return [r for r in records() if r.get("fid") == fid]
        path = getattr(sink, "path", None)
        if path is not None:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()
            try:
                from ..obs.trace import read_trace

                return [r for r in read_trace(path) if r.get("fid") == fid]
            except OSError:  # pragma: no cover - torn file, report without
                return []
        return []

    # ------------------------------------------------------------------
    def _fail(
        self,
        check: str,
        cycle: int,
        node: int,
        message: str,
        flit=None,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.violations += 1
        fid = flit.fid if flit is not None else None
        trace_records = self._trace_records_for(fid) if fid is not None else []
        violation = AuditViolation(
            check,
            cycle,
            node,
            message,
            flit=flit.to_dict() if flit is not None else None,
            trail=[list(t) for t in self._trail.get(fid, [])] if fid is not None else [],
            trace_records=trace_records,
            details=details,
        )
        self._write_report(violation)
        raise violation

    def _write_report(self, violation: AuditViolation) -> None:
        report_dir = self.config.report_dir
        if not report_dir:
            return
        os.makedirs(report_dir, exist_ok=True)
        design = self.network.config.design
        name = (
            f"audit-violation-{design}-c{violation.cycle}-n{violation.node}.json"
        )
        path = os.path.join(report_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(violation.to_dict(), fh, indent=2)
