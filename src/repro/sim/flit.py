"""Flit model.

DXbar requires every flit of a packet to be a *head flit* (the paper routes
each flit independently and reassembles packets in a cache-controller MSHR).
We therefore carry full routing state on every flit, for every design, which
also makes the Flit-BLESS / SCARAB baselines straightforward: a flit is the
unit of switching, dropping and retransmission.

``Flit`` is a plain mutable object with ``__slots__`` — it is created and
touched millions of times per simulation, so attribute layout matters (see
the profiling guidance in the HPC Python guides: keep the hot path
allocation-light and attribute access cheap).
"""

from __future__ import annotations

from typing import Optional


class Flit:
    """A single 128-bit flit travelling through the network.

    Parameters
    ----------
    fid:
        Globally unique flit id.
    packet_id:
        Id of the packet this flit belongs to (packets are ``num_flits``
        independent head flits sharing src/dst).
    src, dst:
        Source and destination node ids.
    injected_cycle:
        Cycle at which the *packet* entered the source queue.  This leads
        the age-priority key :attr:`age`: older (smaller) wins arbitration.
    flit_index, num_flits:
        Position within the packet and total packet length, used by the
        destination-side reassembly bookkeeping.
    measured:
        True when the flit was injected inside the measurement window and
        should contribute to reported statistics.
    """

    __slots__ = (
        "fid",
        "packet_id",
        "src",
        "dst",
        "injected_cycle",
        "network_entry_cycle",
        "flit_index",
        "num_flits",
        "measured",
        "hops",
        "deflections",
        "buffered_events",
        "retransmits",
        "ready_cycle",
        "reply_tag",
        "energy_pj",
        # Derived, last and never serialised: see _STATE_SLOTS.
        "age",
    )

    def __init__(
        self,
        fid: int,
        packet_id: int,
        src: int,
        dst: int,
        injected_cycle: int,
        flit_index: int = 0,
        num_flits: int = 1,
        measured: bool = True,
        reply_tag: Optional[tuple] = None,
    ) -> None:
        self.fid = fid
        self.packet_id = packet_id
        self.src = src
        self.dst = dst
        self.injected_cycle = injected_cycle
        # Cycle the flit first left the source queue into the router; -1
        # until it happens.  Used for network (vs queueing) latency splits.
        self.network_entry_cycle = -1
        self.flit_index = flit_index
        self.num_flits = num_flits
        self.measured = measured
        self.hops = 0
        self.deflections = 0
        self.buffered_events = 0
        self.retransmits = 0
        # Earliest cycle at which the flit may participate in switch
        # allocation at its current router (models the extra RC stage of the
        # 3-stage baseline pipeline; DXbar-class routers leave it equal to
        # the arrival cycle thanks to look-ahead routing).
        self.ready_cycle = 0
        # Opaque tag threaded through closed-loop (SPLASH-2) workloads so the
        # ejection callback can match responses to requests.
        self.reply_tag = reply_tag
        # Energy this flit has consumed so far (pJ); summed into per-packet
        # energies at delivery so the "average energy per packet" metric is
        # exact even when other packets are still in flight.
        self.energy_pj = 0.0
        # Arbitration key, built once: lexicographically smaller wins --
        # oldest packet first, then lower packet id, then lower flit index.
        # In a simulation ``(packet_id, flit_index)`` names one flit, so the
        # trailing flit id never decides; it keeps the order total for
        # hand-built flits too.  None of these four fields changes after
        # construction.
        self.age = (injected_cycle, packet_id, flit_index, fid)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Every slot, JSON-ready (checkpoint serialisation).  Ints and
        floats round-trip exactly through JSON; the reply_tag tuple becomes
        a list and is re-tupled by :meth:`from_dict`."""
        d = {name: getattr(self, name) for name in _STATE_SLOTS}
        if d["reply_tag"] is not None:
            d["reply_tag"] = list(d["reply_tag"])
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "Flit":
        """Rebuild a flit from :meth:`to_dict` output."""
        flit = cls.__new__(cls)
        for name in _STATE_SLOTS:
            setattr(flit, name, data[name])
        if flit.reply_tag is not None:
            flit.reply_tag = tuple(flit.reply_tag)
        flit.age = (flit.injected_cycle, flit.packet_id, flit.flit_index, flit.fid)
        return flit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flit(fid={self.fid}, pkt={self.packet_id}, {self.src}->{self.dst}, "
            f"t0={self.injected_cycle}, hops={self.hops})"
        )


#: The serialised slots: everything but the derived ``age`` key, so
#: checkpoint and cache bytes do not depend on it.
_STATE_SLOTS = Flit.__slots__[:-1]


def make_packet(
    first_fid: int,
    packet_id: int,
    src: int,
    dst: int,
    cycle: int,
    num_flits: int,
    measured: bool,
    reply_tag: Optional[tuple] = None,
) -> list:
    """Create the ``num_flits`` independent head flits of one packet."""
    return [
        Flit(first_fid + i, packet_id, src, dst, cycle, i, num_flits, measured, reply_tag)
        for i in range(num_flits)
    ]
