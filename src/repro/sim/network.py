"""Network construction and the synchronous cycle update.

The :class:`Network` owns the routers, links, credit channels and the fault
plan, and exposes the flit injection/ejection endpoints used by workloads.
One :meth:`step` is one clock cycle of the whole mesh.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Any, Dict, List, Optional, Set, TYPE_CHECKING

from ..core.faults import FaultPlan
from ..energy.model import EnergyModel
from ..obs.facade import Telemetry
from .config import SimConfig
from .flit import make_packet
from .link import CreditChannel, Link, latch_inputs, shift_channels, shift_links
from .ports import OPPOSITE
from .stats import StatsCollector
from .topology import Mesh

if TYPE_CHECKING:  # pragma: no cover
    from ..routers.base import BaseRouter

#: Flits in flight per router at or above which :meth:`Network.step`
#: takes the node-ordered full walk: with most routers busy, the active
#: walk's per-cycle set upkeep costs more than the idle steps it skips.
#: Swept over 2.0-4.0 on every ``benchmarks/bench_perf.py`` row (see
#: docs/architecture.md): 3.0 is the lowest entry that slows no row by
#: more than 1% against the active walk alone (at 2.0, ``buffered4`` UR
#: k=8 at 0.1 spends 86% of its cycles in the full walk and can lose 3%).
BUSY_ENTER_PER_ROUTER = 3.0

#: Flits in flight per router below which a full-walk phase hands back
#: to the active walk.  Lower than the entry threshold (hysteresis), so a
#: load hovering at the boundary does not rebuild the sets every cycle.
BUSY_EXIT_PER_ROUTER = 1.5


class Network:
    """An ``k x k`` mesh of routers of one design."""

    def __init__(
        self,
        config: SimConfig,
        stats: StatsCollector,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        # Imported here to avoid a designs <-> network import cycle.
        from ..designs import build_router, build_routing

        self.config = config
        self.stats = stats
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.mesh = Mesh(config.k)
        self.routing = build_routing(config, self.mesh)
        self.energy = EnergyModel.for_design(config.design, stats)

        self.routers: List["BaseRouter"] = [
            build_router(config, node, self.mesh, self.routing, self.energy)
            for node in self.mesh.nodes()
        ]
        self.links: List[Link] = []
        self.credit_channels: List[CreditChannel] = []
        # None on fault-free runs; _apply_faults installs the plan.
        self.fault_plan: Optional[FaultPlan] = None

        # Activity scheduling (see docs/architecture.md).  The busy switch:
        # True while step() takes the full walk because the mesh is busy
        # (see BUSY_ENTER_PER_ROUTER).  The thresholds are read here, and
        # every walk is a pair of them: (0, 0) the dense reference, (inf,
        # inf) the active walk alone.  They are not SimConfig fields:
        # walks are bit-exact, so the choice must not perturb config_hash
        # (result-cache and checkpoint identity).
        self._busy_walk = False
        # Cycles the busy switch ran the full walk (a diagnostic for
        # benchmarks/bench_perf.py; derived, never serialised).
        self.busy_cycles = 0
        n = config.k * config.k
        self._busy_enter = BUSY_ENTER_PER_ROUTER * n
        self._busy_exit = BUSY_EXIT_PER_ROUTER * n
        # Router membership is a flag per node, so the step phase is one
        # ascending scan (see _step_active).
        self._active_routers = bytearray(n)
        self._active_links: Set[int] = set()
        self._active_channels: Set[int] = set()
        self._latch_pending: Set[int] = set()

        self._wire()
        self._apply_faults()
        self._rebuild_active_sets()
        self._profiler = self.telemetry.profiler  # times step's parts

        self.workload = None  # set by the Simulator
        self.cycle = 0
        self._active_flits = 0
        self._next_packet_id = 0
        self._next_flit_id = 0
        self._adaptive_routing = None

    @property
    def adaptive_routing(self):
        """Shared minimal-adaptive routing table, built on first use.

        Crosspoint-fault runs use it as the escalation table: a flit that
        keeps getting deflected off a dead crosspoint switches to adaptive
        minimal port selection to reach its destination from a live input.
        """
        if self._adaptive_routing is None:
            from ..routing.adaptive import MinimalAdaptiveRouting

            self._adaptive_routing = MinimalAdaptiveRouting(self.mesh)
        return self._adaptive_routing

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _wire(self) -> None:
        uses_credits = self.routers[0].uses_credits
        active_links = self._active_links
        active_channels = self._active_channels
        for src, out_port, dst in self.mesh.edges():
            link = Link(src, dst, latency=self.config.link_latency)
            link.index = len(self.links)
            link.on_activate = partial(active_links.add, link.index)
            self.links.append(link)
            up, down = self.routers[src], self.routers[dst]
            in_port = OPPOSITE[out_port]
            up.out_links[out_port] = link
            down.in_links[in_port] = link
            if uses_credits:
                chan = CreditChannel()
                chan.index = len(self.credit_channels)
                chan.upstream = src
                chan.on_activate = partial(active_channels.add, chan.index)
                self.credit_channels.append(chan)
                up.credit_in[out_port] = chan
                up.credits[out_port] = down.credit_budget()
                down.credit_out[in_port] = chan
        for router in self.routers:
            router.latch_ports = tuple(router.in_links.items())
            router.credit_ports = tuple(router.credit_in.items())
            router.attach_network(self)
            router.finalize_wiring()
        if self.telemetry.trace is not None:
            for router in self.routers:
                router.enable_trace(self.telemetry.trace)

    def _apply_faults(self) -> None:
        if not self.config.faults.active:
            return
        plan = FaultPlan(self.config.faults, self.mesh.num_nodes)
        self.fault_plan = plan
        for node in plan.faulty_nodes:
            router = self.routers[node]
            if not hasattr(router, "fault"):
                raise TypeError(
                    f"design {self.config.design!r} does not support crossbar faults"
                )
            router.fault = plan.fault_for(node)

    # ------------------------------------------------------------------
    # flit endpoints
    # ------------------------------------------------------------------
    def router_at(self, node: int) -> "BaseRouter":
        return self.routers[node]

    def inject_packet(
        self,
        src: int,
        dst: int,
        cycle: int,
        num_flits: Optional[int] = None,
        measured: Optional[bool] = None,
        reply_tag=None,
    ) -> int:
        """Enqueue one packet at the PE source queue of ``src``.

        Returns the packet id.  ``measured`` defaults to "injected inside
        the measurement window" for open-loop runs.  Closed-loop runs
        (``max_cycles`` set) measure every packet unconditionally: their
        window is recounted to ``[0, final_cycle)`` after the run, and the
        pre-run window still holds the open-loop default — consulting it
        here would silently drop late trace/SPLASH-2 packets from the
        latency and energy averages.
        """
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
        flits = make_packet(
            self._next_flit_id, pid, src, dst, cycle, n, m, reply_tag=reply_tag
        )
        self._next_flit_id += n
        self.stats.record_packet_injection(pid, cycle, n, m)
        self.routers[src].enqueue_packet(flits)
        self._active_flits += n
        return pid

    @property
    def workload(self):
        """The workload driving this network (set by the Simulator)."""
        return self._workload

    @workload.setter
    def workload(self, workload) -> None:
        from ..traffic.generator import Workload

        self._workload = workload
        # Most workloads keep the base class's no-op: then nothing is called.
        hook = getattr(type(workload), "on_eject", Workload.on_eject)
        self._on_eject = None if hook is Workload.on_eject else workload.on_eject

    def eject(self, flit, cycle: int) -> None:
        """A flit reached its destination PE (called by routers)."""
        self.stats.record_ejection(flit, cycle)
        self._active_flits -= 1
        if self._on_eject is not None:
            self._on_eject(flit, cycle, self)

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the whole network by one clock cycle.

        The walk is activity-scheduled while the mesh is sparse and
        switches to the full walk (every router, link and channel) once at
        least ``BUSY_ENTER_PER_ROUTER`` flits per router are in flight,
        until they fall below ``BUSY_EXIT_PER_ROUTER``.  Thresholds of
        (0, 0) give the dense reference walk, the full walk on every
        cycle; (inf, inf) the active walk alone.  Every threshold pair is
        bit-exact (enforced by tests/test_equivalence.py).  The full walk
        does not maintain the active sets, so every hand-back to the
        active walk goes through :meth:`_rebuild_active_sets`.

        Either walk is three parts, in order: latch (phase 1 of every
        router that has inputs or credits to take), routers (phase 2,
        :meth:`BaseRouter.step`) and links (shift every link and credit
        channel).  A profiled run times each part into the profiler's
        ``network.step`` parts.
        """
        if self._busy_walk:
            if self._active_flits < self._busy_exit:
                self._rebuild_active_sets()
                walk = _ACTIVE_WALK
            else:
                self.busy_cycles += 1
                walk = _FULL_WALK
        elif self._active_flits >= self._busy_enter:
            self._busy_walk = True
            self.busy_cycles += 1
            walk = _FULL_WALK
        else:
            walk = _ACTIVE_WALK
        prof = self._profiler
        if prof is None:
            for part in walk:
                part(self)
        else:
            for name, part in zip(("latch", "routers", "links"), walk):
                t0 = perf_counter()
                part(self)
                prof.add_part("network.step", name, perf_counter() - t0)
        self.cycle += 1

    # The full walk (the dense reference): every router, link and channel.
    def _latch_all(self) -> None:
        latch_inputs(self.routers)

    def _step_all(self) -> None:
        cycle = self.cycle
        for router in self.routers:
            router.step(cycle)

    def _shift_all(self) -> None:
        scratch: list = []
        shift_links(self.links, scratch, scratch)
        shift_channels(self.credit_channels, scratch, scratch)

    # The activity-scheduled walk: only components with work.
    def _latch_active(self) -> None:
        """Only routers with an occupied incident link head or a pending
        credit channel have anything to latch; for the rest the latch is a
        provable no-op (``incoming`` is already clear, every channel
        collect returns zero), so it is skipped.  Latches touch disjoint
        per-router state, making their order irrelevant."""
        latch_pending = self._latch_pending
        if latch_pending:
            latch_inputs(map(self.routers.__getitem__, latch_pending))
            latch_pending.clear()

    def _step_active(self) -> None:
        """Step the active routers: one ascending scan of the flags.

        Bit-exactness with the dense walk rests on three invariants:

        * active routers are stepped in ascending node order — the dense
          iteration order — so order-dependent float accumulation and any
          cross-router interaction (SCARAB NACKs, closed-loop injection
          from ``on_eject``) see identical sequences;
        * a router is skipped only when stepping it would be an observable
          no-op: it reported :meth:`~repro.routers.base.BaseRouter.is_idle`
          at the end of the previous cycle, no link head or pending credit
          points at it, and nothing woke it since;
        * a wake that lands *during* the scan sets its node's flag: the
          scan finds it this cycle if it has not passed that node yet —
          exactly when the dense walk would step it — and next cycle
          otherwise.
        """
        cycle = self.cycle
        routers = self.routers
        active = self._active_routers
        find = active.find
        node = find(1)
        while node >= 0:
            active[node] = 0
            router = routers[node]
            router.step(cycle)
            # A mid-step-woken router never latched this cycle; clearing
            # after every step keeps the stale arrivals of its last active
            # cycle from being served twice.
            router.incoming.clear()
            # A later router can only affect this one through wake_router,
            # which sets the flag again, so idleness can be judged
            # immediately after the step.
            if not router.is_idle():
                active[node] = 1
            node = find(1, node + 1)

    def _shift_active(self) -> None:
        """Shift the active links and channels (they touch no shared state,
        so set order is irrelevant); an empty one leaves its set.  The
        router at an occupied link head or above a channel holding credits
        latches next cycle."""
        woken: List[int] = []
        drained: List[int] = []
        active_links = self._active_links
        if active_links:
            shift_links(map(self.links.__getitem__, active_links), woken, drained)
            if drained:
                active_links.difference_update(drained)
                drained.clear()
        active_channels = self._active_channels
        if active_channels:
            shift_channels(
                map(self.credit_channels.__getitem__, active_channels), woken, drained
            )
            if drained:
                active_channels.difference_update(drained)
        if woken:
            self._latch_pending.update(woken)
            active = self._active_routers
            for node in woken:
                active[node] = 1

    def wake_router(self, node: int) -> None:
        """Mark ``node`` as having work (new injection, queued retransmit).

        During the step phase the ascending scan steps a node it has not
        reached yet in this cycle, and any other next cycle.
        """
        self._active_routers[node] = 1

    def _rebuild_active_sets(self) -> None:
        """Derive the active sets from component state.

        Called at construction (after fault injection, so routers with a
        pending detection latch start active), from :meth:`load_state_dict`
        and when the busy switch hands back to the active walk, which it
        re-arms.  The sets are pure functions of state a
        checkpoint already carries, so they are never serialised; skipping
        an extra router would break bit-exactness while waking an extra
        idle one cannot (its step is a no-op), hence the conservative
        direction of every rule below.
        """
        self._busy_walk = False
        # The link/channel callbacks capture these set objects: mutate in
        # place, never rebind.
        self._active_links.clear()
        self._active_links.update(
            link.index for link in self.links if link.in_flight()
        )
        self._active_channels.clear()
        self._active_channels.update(
            chan.index for chan in self.credit_channels if chan.in_flight()
        )
        active = self._active_routers
        for r in self.routers:
            # ``incoming`` is transient within a cycle and semantically dead
            # at every rebuild point (construction, checkpoint load,
            # hand-back); clearing it here makes the skip-latch rule safe even
            # when the previous walk left stale arrivals behind.
            r.incoming.clear()
            active[r.node] = not r.is_idle()
        self._latch_pending.clear()
        for link in self.links:
            if link.peek() is not None:
                active[link.dst] = 1
                self._latch_pending.add(link.dst)
        for chan in self.credit_channels:
            if chan.pending():
                active[chan.upstream] = 1
                self._latch_pending.add(chan.upstream)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Snapshot at the end-of-cycle boundary (right after
        :meth:`step`): links have just shifted (nothing staged), credit
        channels have just stepped, and every router's ``incoming`` list is
        stale — the next ``latch`` clears it before reading."""
        plan = self.fault_plan
        return {
            "cycle": self.cycle,
            "active_flits": self._active_flits,
            "next_packet_id": self._next_packet_id,
            "next_flit_id": self._next_flit_id,
            "fault_signature": plan.signature() if plan is not None else None,
            "routers": [r.state_dict() for r in self.routers],
            "links": [link.state_dict() for link in self.links],
            "credit_channels": [c.state_dict() for c in self.credit_channels],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        if len(state["routers"]) != len(self.routers) or len(state["links"]) != len(
            self.links
        ) or len(state["credit_channels"]) != len(self.credit_channels):
            raise ValueError(
                "checkpoint topology does not match this network "
                f"(k={self.config.k}, design={self.config.design})"
            )
        plan = self.fault_plan
        want = plan.signature() if plan is not None else None
        if state.get("fault_signature") != want:
            raise ValueError(
                "checkpoint fault plan does not match the deterministically "
                "rebuilt plan — refusing to resume into diverged fault state"
            )
        self.cycle = state["cycle"]
        self._active_flits = state["active_flits"]
        self._next_packet_id = state["next_packet_id"]
        self._next_flit_id = state["next_flit_id"]
        for router, s in zip(self.routers, state["routers"]):
            router.load_state_dict(s)
        for link, s in zip(self.links, state["links"]):
            link.load_state_dict(s)
        for chan, s in zip(self.credit_channels, state["credit_channels"]):
            chan.load_state_dict(s)
        # Active sets are derived state: recompute rather than restore, so
        # checkpoints written by dense and activity-scheduled runs stay
        # interchangeable.
        self._rebuild_active_sets()

    # ------------------------------------------------------------------
    # introspection / invariants
    # ------------------------------------------------------------------
    @property
    def active_flits(self) -> int:
        """Flits injected but not yet ejected (includes source queues,
        buffers, links and SCARAB retransmission queues)."""
        return self._active_flits

    def quiescent(self) -> bool:
        return self._active_flits == 0

    def flits_in_links(self) -> int:
        return sum(link.in_flight() for link in self.links)

    def flits_in_routers(self) -> int:
        return sum(r.pending_flits() for r in self.routers)

    def router_counters(self) -> List[Dict[str, int]]:
        """One uniform telemetry-counter dict per router, indexed by node."""
        return [r.telemetry_counters() for r in self.routers]

    def check_conservation(self) -> None:
        """Every injected flit is either ejected or somewhere accountable.

        SCARAB flits travelling as NACK state are held in the source
        retransmission queues, which ``pending_flits`` includes.  Incoming
        latch buffers are transient within a cycle and always empty here.
        """
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


#: Each walk's (latch, routers, links) parts, in the order :meth:`Network.step` runs them.
_FULL_WALK = (Network._latch_all, Network._step_all, Network._shift_all)
_ACTIVE_WALK = (Network._latch_active, Network._step_active, Network._shift_active)
