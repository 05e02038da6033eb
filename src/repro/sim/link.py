"""Pipelined links and credit return channels.

Both classes implement shift-register semantics so the network update is
order-independent: a value pushed during cycle ``t`` becomes visible to the
consumer only after :meth:`step` shifts the pipeline.

The default link ``latency`` is 2 cycles, which realises the paper's router
pipelines exactly: a flit switched (SA/ST) at cycle ``t`` spends cycle
``t+1`` in link traversal (LT) and is available for switch allocation at the
downstream router at cycle ``t+2`` — i.e. 2 cycles per hop for DXbar /
Flit-BLESS / SCARAB, plus one extra RC cycle for the 3-stage buffered
baseline (modelled via ``Flit.ready_cycle``).  Throughput is one flit per
cycle regardless of latency (the LT stage is pipelined).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from .flit import Flit


class Link:
    """One directed inter-router link with configurable pipeline latency."""

    __slots__ = (
        "src", "dst", "latency", "_regs", "_next", "_count", "index", "on_activate"
    )

    def __init__(self, src: int, dst: int, latency: int = 2) -> None:
        if latency < 1:
            raise ValueError("link latency must be >= 1")
        self.src = src
        self.dst = dst
        self.latency = latency
        # _regs[-1] is the downstream-visible register; _regs[0] receives
        # the staged flit at the next step().
        self._regs: List[Optional[Flit]] = [None] * latency
        self._next: Optional[Flit] = None
        # Flits inside the pipeline (regs + staged), maintained on
        # push/take so the active-set bookkeeping pays O(1) per link cycle.
        self._count = 0
        # Activity scheduling: the owning Network assigns a stable index and
        # a zero-arg callback that (re)registers this link in the active set
        # when a flit enters an otherwise-empty pipeline.  Both
        # stay None for standalone links (unit tests).
        self.index: int = -1
        self.on_activate = None

    def push(self, flit: Flit) -> None:
        """Stage ``flit`` onto the link (the ST->LT register write)."""
        if self._next is not None:
            raise RuntimeError(
                f"link {self.src}->{self.dst} double-driven in one cycle"
            )
        self._next = flit
        self._count += 1
        # Only the empty -> busy transition registers: a busy link is
        # already in the active set (it leaves only once drained).
        if self._count == 1 and self.on_activate is not None:
            self.on_activate()

    def take(self) -> Optional[Flit]:
        """Consume the flit that finished traversing the link, if any."""
        flit = self._regs[-1]
        if flit is not None:
            self._regs[-1] = None
            self._count -= 1
        return flit

    def peek(self) -> Optional[Flit]:
        """Non-destructively inspect the arriving flit."""
        return self._regs[-1]

    @property
    def busy_next(self) -> bool:
        """True when a flit has already been staged this cycle."""
        return self._next is not None

    def in_flight(self) -> int:
        """Number of flits currently inside the link pipeline."""
        return self._count

    def step(self) -> None:
        """Shift the pipeline by one cycle."""
        shift_links((self,), [], [])

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot the pipeline registers (the staged ``_next`` slot is
        always empty at the engine's end-of-cycle snapshot point, but is
        serialised anyway for generality)."""
        return {
            "regs": [None if f is None else f.to_dict() for f in self._regs],
            "next": None if self._next is None else self._next.to_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        regs = state["regs"]
        if len(regs) != self.latency:
            raise ValueError(
                f"link {self.src}->{self.dst}: checkpoint has {len(regs)} "
                f"pipeline registers, this link has {self.latency}"
            )
        self._regs = [None if f is None else Flit.from_dict(f) for f in regs]
        self._next = None if state["next"] is None else Flit.from_dict(state["next"])
        self._count = sum(1 for r in self._regs if r is not None) + (
            1 if self._next is not None else 0
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"Link({self.src}->{self.dst}, regs={self._regs}, next={self._next})"


class CreditChannel:
    """Credit-return wire from a downstream input buffer to its upstream
    router, with a 1-cycle propagation delay.

    The downstream router calls :meth:`send` each time a buffer slot frees
    (or a flit bypassed the buffer entirely); the upstream router calls
    :meth:`collect` at the start of its cycle to top up its credit counter.
    """

    __slots__ = ("_now", "_next", "index", "upstream", "on_activate")

    def __init__(self) -> None:
        self._now = 0
        self._next = 0
        # Activity scheduling: stable index in the network's channel list,
        # the node id of the upstream router that collects from this channel
        # (it must latch while credits are pending), and the zero-arg
        # active-set registration callback.  Unset for standalone channels.
        self.index: int = -1
        self.upstream: int = -1
        self.on_activate = None

    def send(self, count: int = 1) -> None:
        """Return ``count`` credits upstream (visible next cycle)."""
        if count < 0:
            raise ValueError("credit count must be non-negative")
        # Only the idle -> busy transition registers: a channel holding
        # credits is already in the active set (it leaves only once empty).
        if not (self._now or self._next) and self.on_activate is not None:
            self.on_activate()
        self._next += count

    def collect(self) -> int:
        """Upstream side: take all credits that arrived this cycle."""
        got = self._now
        self._now = 0
        return got

    def in_flight(self) -> int:
        return self._now + self._next

    def pending(self) -> int:
        """Credits already visible to the upstream ``collect`` side."""
        return self._now

    def step(self) -> None:
        """Shift the credit pipeline by one cycle."""
        shift_channels((self,), [], [])

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {"now": self._now, "next": self._next}

    def load_state_dict(self, state: dict) -> None:
        self._now = state["now"]
        self._next = state["next"]

    def __repr__(self) -> str:  # pragma: no cover
        return f"CreditChannel(now={self._now}, next={self._next})"


# The network's per-cycle loops, the one copy of each rule: the network
# runs them over all or over its active routers, links and channels, and
# ``BaseRouter.latch``, ``Link.step`` and ``CreditChannel.step`` over one.
def latch_inputs(routers: Iterable) -> None:
    """Phase 1 of a cycle for each router: collect the credits visible on
    its ``credit_ports``, then take the flit at the head of each of its
    ``latch_ports`` links into ``incoming``, in port order (both are
    ``(port, link or channel)`` pairs, built by the network's wiring)."""
    for router in routers:
        if router.credit_ports:
            credits = router.credits
            for port, chan in router.credit_ports:
                got = chan._now
                if got:
                    chan._now = 0
                    credits[port] += got
        incoming = router.incoming
        incoming.clear()
        for port, link in router.latch_ports:
            regs = link._regs
            flit = regs[-1]
            if flit is not None:
                regs[-1] = None
                link._count -= 1
                incoming.append((port, flit))


def shift_links(links: Iterable[Link], heads: list, drained: list) -> None:
    """Shift each link's pipeline one cycle.  An empty link's ``index``
    goes to ``drained`` instead; the destination of each link whose head
    is occupied after the shift goes to ``heads`` (it latches next cycle)."""
    for link in links:
        if not link._count:
            drained.append(link.index)
            continue
        regs = link._regs
        if regs[-1] is not None:
            # Consumers must drain their inputs every cycle; both the
            # bufferless contract and the credit protocol guarantee it.
            raise RuntimeError(
                f"flit stranded on link {link.src}->{link.dst}: "
                "downstream failed to latch its input"
            )
        # Drop the drained downstream register and shift the staged flit in
        # at the upstream end (two list operations instead of a Python
        # loop over the registers).
        regs.pop()
        regs.insert(0, link._next)
        link._next = None
        if regs[-1] is not None:
            heads.append(link.dst)


def shift_channels(channels: Iterable[CreditChannel], ups: list, drained: list) -> None:
    """Shift each credit channel one cycle: an empty channel's ``index``
    goes to ``drained``, and every other channel's upstream router, which
    now has credits to collect, to ``ups``."""
    for chan in channels:
        now = chan._now + chan._next
        if not now:
            drained.append(chan.index)
            continue
        chan._now = now
        chan._next = 0
        ups.append(chan.upstream)
