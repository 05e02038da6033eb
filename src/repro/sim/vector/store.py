"""Struct-of-arrays flit storage for the vector backend.

A :class:`FlitStore` holds every live flit of one simulation as parallel
NumPy arrays indexed by *slot*.  Slots are recycled through a free list so
array capacity tracks the peak live-flit population, not the cumulative
injection count.  The field set mirrors :class:`repro.sim.flit.Flit`
slot-for-slot, so a slot can be materialised into a real ``Flit`` (for the
auditor, checkpoints and closed-loop ejection callbacks) and a ``Flit``
can be interned back (checkpoint restore) without loss.

Freeing a slot resets the fields whose injection-time values are
constants (``network_entry_cycle = -1``, zero counters, zero energy), so
the injection path only has to write the per-packet fields.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..flit import Flit

#: int64 per-flit fields (name order matches ``Flit.__slots__`` minus the
#: bool/float/object fields below).
INT_FIELDS = (
    "fid",
    "packet_id",
    "src",
    "dst",
    "injected_cycle",
    "network_entry_cycle",
    "flit_index",
    "num_flits",
    "hops",
    "deflections",
    "buffered_events",
    "retransmits",
    "ready_cycle",
)

#: Fields reset to a default when a slot is freed (everything the
#: injection fast path does not write).
_RESET_ZERO = (
    "hops",
    "deflections",
    "buffered_events",
    "retransmits",
    "ready_cycle",
)


class FlitStore:
    """Slot-addressed SoA storage of live flits."""

    __slots__ = tuple(INT_FIELDS) + (
        "age",
        "measured",
        "energy_pj",
        "reply_tag",
        "capacity",
        "_free",
        "_top",
    )

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = capacity
        for name in INT_FIELDS:
            setattr(self, name, np.zeros(capacity, dtype=np.int64))
        # Fresh slots must look like freed slots: entry cycle starts at -1.
        self.network_entry_cycle.fill(-1)
        # Derived total-order sort key ``(injected_cycle << 32) | fid``.
        # Flit ids are allocated in (packet_id, flit_index) order, so this
        # single key sorts identically to the object walk's age tuple
        # ``(injected_cycle, packet_id, flit_index, fid)``.
        self.age = np.zeros(capacity, dtype=np.int64)
        self.measured = np.zeros(capacity, dtype=bool)
        self.energy_pj = np.zeros(capacity, dtype=np.float64)
        self.reply_tag: List[Optional[tuple]] = [None] * capacity
        self._free: List[int] = []
        self._top = 0

    # ------------------------------------------------------------------
    def _grow(self, need: int) -> None:
        new_cap = self.capacity
        while new_cap < need:
            new_cap *= 2
        extra = new_cap - self.capacity
        for name in INT_FIELDS:
            old = getattr(self, name)
            pad = np.zeros(extra, dtype=np.int64)
            if name == "network_entry_cycle":
                pad.fill(-1)
            setattr(self, name, np.concatenate([old, pad]))
        self.age = np.concatenate([self.age, np.zeros(extra, dtype=np.int64)])
        self.measured = np.concatenate([self.measured, np.zeros(extra, dtype=bool)])
        self.energy_pj = np.concatenate(
            [self.energy_pj, np.zeros(extra, dtype=np.float64)]
        )
        self.reply_tag.extend([None] * extra)
        self.capacity = new_cap

    def alloc_many(self, n: int) -> List[int]:
        """Reserve ``n`` slots (recycled first, then fresh)."""
        free = self._free
        out: List[int] = []
        take = min(n, len(free))
        for _ in range(take):
            out.append(free.pop())
        fresh = n - take
        if fresh:
            if self._top + fresh > self.capacity:
                self._grow(self._top + fresh)
            out.extend(range(self._top, self._top + fresh))
            self._top += fresh
        return out

    def free_many(self, slots: np.ndarray) -> None:
        """Release slots, restoring injection-time defaults."""
        if len(slots) == 0:
            return
        for name in _RESET_ZERO:
            getattr(self, name)[slots] = 0
        self.network_entry_cycle[slots] = -1
        self.energy_pj[slots] = 0.0
        tags = self.reply_tag
        lst = slots.tolist()
        for s in lst:
            tags[s] = None
        self._free.extend(lst)

    # ------------------------------------------------------------------
    # object-model bridging
    # ------------------------------------------------------------------
    def materialize(self, slot: int) -> Flit:
        """Build a real :class:`Flit` from one slot (auditor/checkpoint/
        closed-loop callbacks)."""
        f = Flit.__new__(Flit)
        f.fid = int(self.fid[slot])
        f.packet_id = int(self.packet_id[slot])
        f.src = int(self.src[slot])
        f.dst = int(self.dst[slot])
        f.injected_cycle = int(self.injected_cycle[slot])
        f.network_entry_cycle = int(self.network_entry_cycle[slot])
        f.flit_index = int(self.flit_index[slot])
        f.num_flits = int(self.num_flits[slot])
        f.measured = bool(self.measured[slot])
        f.hops = int(self.hops[slot])
        f.deflections = int(self.deflections[slot])
        f.buffered_events = int(self.buffered_events[slot])
        f.retransmits = int(self.retransmits[slot])
        f.ready_cycle = int(self.ready_cycle[slot])
        f.reply_tag = self.reply_tag[slot]
        f.energy_pj = float(self.energy_pj[slot])
        return f

    def intern(self, data: dict) -> int:
        """Allocate a slot for one ``Flit.to_dict()`` record (checkpoint
        restore path; scalar writes, not hot)."""
        (slot,) = self.alloc_many(1)
        for name in INT_FIELDS:
            getattr(self, name)[slot] = data[name]
        self.age[slot] = (int(data["injected_cycle"]) << 32) | int(data["fid"])
        self.measured[slot] = data["measured"]
        self.energy_pj[slot] = data["energy_pj"]
        tag = data["reply_tag"]
        self.reply_tag[slot] = tuple(tag) if tag is not None else None
        return slot
