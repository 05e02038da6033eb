"""Abstract router.

The network drives every router through two phases per cycle:

1. latch — collect returned credits and take the flits that finished
   traversing the incident links (the downstream end of the LT stage).
   The network runs this itself, in one loop over the routers' ``(port,
   link)`` pairs (:func:`repro.sim.link.latch_inputs`);
   :meth:`BaseRouter.latch` is the same rule for one router;
2. :meth:`BaseRouter.step` — the design-specific SA/ST logic, which sends
   each switched flit through :meth:`BaseRouter.traverse` (ejection, or a
   new LT on an output link) and returns credits.

Routers never touch each other's state directly; links and credit channels
are the only communication, which makes the synchronous update independent
of router iteration order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..energy.model import EnergyModel
from ..obs.counters import RouterCounters
from ..obs.trace import EV_EJECT, EV_INJECT, EV_ROUTE
from ..routing.base import RoutingFunction
from ..sim.config import SimConfig
from ..sim.flit import Flit
from ..sim.link import CreditChannel, Link, latch_inputs
from ..sim.ports import Port
from ..sim.topology import Mesh

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.network import Network

# Module constant: an IntEnum class-attribute lookup costs several times a
# global read, and ``traverse`` runs once per flit hop.
_LOCAL = Port.LOCAL


class BaseRouter(ABC):
    """Common state and plumbing for all router designs."""

    #: whether the design uses credit-based flow control toward its input
    #: buffers (bufferless designs override to False).
    uses_credits: bool = True

    def __init__(
        self,
        node: int,
        mesh: Mesh,
        routing: RoutingFunction,
        energy: EnergyModel,
        config: SimConfig,
    ) -> None:
        self.node = node
        self.mesh = mesh
        self.routing = routing
        self.energy = energy
        self.stats = energy.stats
        self.config = config
        self.network: Optional["Network"] = None  # set by Network wiring

        # Link endpoints, filled in by the network builder.  Keys are the
        # ports that physically exist at this node.
        self.in_links: Dict[Port, Link] = {}
        self.out_links: Dict[Port, Link] = {}
        # Credits we hold for each downstream input buffer (per out port).
        self.credits: Dict[Port, int] = {}
        self.credit_in: Dict[Port, CreditChannel] = {}  # returns to us
        self.credit_out: Dict[Port, CreditChannel] = {}  # we return upstream
        # The (port, link) and (port, channel) pairs the latch loop walks,
        # in port order; the network builds them once wiring is done.
        self.latch_ports: Tuple[Tuple[Port, Link], ...] = ()
        self.credit_ports: Tuple[Tuple[Port, CreditChannel], ...] = ()

        # Source queue (infinite, inside the PE).
        self.inj_queue: deque = deque()

        # Flits latched from the links this cycle: (arrival port, flit).
        self.incoming: List[Tuple[Port, Flit]] = []

        # Observability: lifecycle tracer (None unless tracing is enabled,
        # so the hot path pays one branch) and the always-on per-router
        # event counters the engine and interval metrics aggregate.
        self.trace = None
        self.counters = RouterCounters()
        # Invariant auditor (None unless auditing is enabled; same one-branch
        # hot-path discipline as the tracer).
        self.audit = None

    # ------------------------------------------------------------------
    # wiring hooks (called by Network)
    # ------------------------------------------------------------------
    def attach_network(self, network: "Network") -> None:
        self.network = network

    def credit_budget(self) -> int:
        """Downstream buffer slots an upstream router may assume.

        Subclasses with different buffer organisations override this; the
        value seeds the *upstream* router's ``credits`` counter for the link
        pointing at us.
        """
        return self.config.buffer_depth

    def finalize_wiring(self) -> None:
        """Called once after all links/credits are attached."""

    def enable_trace(self, tracer) -> None:
        """Attach a lifecycle tracer (subclasses hook sub-components)."""
        self.trace = tracer

    # ------------------------------------------------------------------
    # per-cycle protocol
    # ------------------------------------------------------------------
    def latch(self, cycle: int) -> None:
        """Phase 1: absorb credits and arriving flits (the network's latch
        loop, :func:`~repro.sim.link.latch_inputs`, on this router)."""
        latch_inputs((self,))

    @abstractmethod
    def step(self, cycle: int) -> None:
        """Phase 2: allocate and traverse (design-specific)."""

    # ------------------------------------------------------------------
    # injection interface (used by traffic generators via Network)
    # ------------------------------------------------------------------
    def enqueue_flit(self, flit: Flit) -> None:
        """Append a flit to the PE source queue."""
        self.enqueue_packet((flit,))

    def enqueue_packet(self, flits: Sequence[Flit]) -> None:
        """Append one packet's flits to the PE source queue, in order, with
        the counter, stat, wake and trace effects of :meth:`enqueue_flit`
        on each."""
        self.inj_queue.extend(flits)
        self.counters.injected += len(flits)
        record = self.stats.record_flit_injection
        for flit in flits:
            record(flit)
        if self.network is not None:
            self.network.wake_router(self.node)
        if self.trace is not None:
            for flit in flits:
                self.trace.emit(flit.injected_cycle, EV_INJECT, self.node, flit)

    @property
    def source_queue_len(self) -> int:
        return len(self.inj_queue)

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    def traverse(self, flit: Flit, port: Port, cycle: int) -> None:
        """Switch ``flit`` through the crossbar to output ``port``: charge the
        crossbar, then eject (LOCAL) or hop onto the port's link, charging
        it.  ``EnergyModel.charge_xbar``/``charge_link`` and
        :meth:`Link.push` are inlined: this runs once per flit hop."""
        c = self.energy.constants
        stats = self.stats
        stats.xbar_traversals += 1
        flit.energy_pj += c.xbar_pj
        if flit.measured:
            stats.energy_xbar_pj += c.xbar_pj
        if port == _LOCAL:
            assert flit.dst == self.node, "ejecting a flit at a foreign node"
            self.counters.ejected += 1
            if self.trace is not None:
                self.trace.emit(cycle, EV_EJECT, self.node, flit, hops=flit.hops)
            self.network.eject(flit, cycle)
            return
        flit.hops += 1
        stats.link_traversals += 1
        flit.energy_pj += c.link_pj
        if flit.measured:
            stats.energy_link_pj += c.link_pj
        link = self.out_links[port]
        if link._next is not None:
            raise RuntimeError(
                f"link {link.src}->{link.dst} double-driven in one cycle"
            )
        link._next = flit
        link._count += 1
        if link._count == 1 and link.on_activate is not None:
            link.on_activate()

    def has_credit(self, port: Port) -> bool:
        """True when a flit may be sent toward ``port`` (LOCAL always may;
        bufferless downstream designs never block)."""
        if port == _LOCAL or not self.uses_credits:
            return True
        return self.credits[port] > 0

    def consume_credit(self, port: Port) -> None:
        if port != _LOCAL and self.uses_credits:
            if self.credits[port] <= 0:
                raise RuntimeError(
                    f"router {self.node} sent to {port.name} without credit"
                )
            self.credits[port] -= 1

    def return_credit(self, in_port: Port) -> None:
        """Give one buffer slot back to the upstream router on ``in_port``."""
        if in_port != _LOCAL and self.uses_credits:
            self.credit_out[in_port].send(1)

    def mark_network_entry(self, flit: Flit, cycle: int) -> None:
        if flit.network_entry_cycle < 0:
            flit.network_entry_cycle = cycle
            self.counters.entries += 1
            self.stats.per_node_entries[self.node] += 1
            if self.trace is not None:
                self.trace.emit(cycle, EV_ROUTE, self.node, flit)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Snapshot the design-independent mutable state.  Subclasses
        extend the dict; derived wiring (links, routing, energy) and the
        transient ``incoming`` list (dead at the end-of-cycle snapshot
        point — the next ``latch`` clears it) are not serialised."""
        return {
            "inj_queue": [f.to_dict() for f in self.inj_queue],
            "credits": {port.name: c for port, c in self.credits.items()},
            "counters": self.counters.snapshot(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.inj_queue.clear()
        self.inj_queue.extend(Flit.from_dict(d) for d in state["inj_queue"])
        for name, c in state["credits"].items():
            self.credits[Port[name]] = c
        self.counters.load(state["counters"])
        self.incoming.clear()

    # ------------------------------------------------------------------
    # introspection (tests / draining)
    # ------------------------------------------------------------------
    def telemetry_counters(self) -> Dict[str, int]:
        """Uniform per-router counter dict.

        Every design returns the same keys (unused counters stay zero), so
        the engine merges them without per-design ``getattr`` probing and
        the interval-metrics collector can take columnar deltas.
        """
        return self.counters.snapshot()

    def occupancy(self) -> int:
        """Number of flits held inside the router (excluding source queue).

        Subclasses with buffers override.
        """
        return 0

    def is_idle(self) -> bool:
        """True when a :meth:`step` this cycle would be an observable no-op,
        so the activity-scheduled network may skip this router.

        The contract (see docs/architecture.md): a router reporting idle
        must mutate *no* state — counters, energy, fairness, mode windows,
        retransmission heaps — if stepped with an empty ``incoming`` list.
        Arrivals and credits never need checking here: the network wakes
        the destination of every occupied link head and the upstream side
        of every pending credit channel independently.  Designs with
        carry state that advances while the datapath is empty (fairness
        counters mid-streak, AFC mode windows, SCARAB retransmission
        queues, pending fault-detection latches) must override and return
        False until that state has come to rest.
        """
        return not self.inj_queue and self.occupancy() == 0

    def pending_flits(self) -> int:
        """Total flits this router still owes the network."""
        return self.occupancy() + len(self.inj_queue)

    # ------------------------------------------------------------------
    # invariant auditing (see src/repro/audit/)
    # ------------------------------------------------------------------
    def audit_snapshot(self) -> Dict[str, List[Flit]]:
        """Every flit this router holds at the end-of-cycle boundary,
        grouped by named container.

        The contract (mirroring :meth:`is_idle`): the union over containers
        must enumerate each held flit exactly once and cover everything
        :meth:`pending_flits` counts — source queue, input FIFOs,
        retransmission queues.  The transient ``incoming`` list is *not* a
        container (it is dead at the boundary).  Subclasses with buffers
        extend the base dict.
        """
        return {"inj_queue": list(self.inj_queue)}

    def audit_invariants(self, cycle: int):
        """Yield ``(check, message)`` pairs for broken design-specific
        postconditions at the end of ``cycle`` (e.g. a bufferless primary
        holding state, a fairness counter past its threshold).  The base
        design has none.
        """
        return ()

    def audit_input_occupancy(self, in_port: Port) -> int:
        """Flits buffered against the credits of the upstream router on
        ``in_port`` (used for per-link credit conservation).  Bufferless
        designs hold none."""
        return 0
