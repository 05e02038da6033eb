"""Hardware-style arbiters.

Two flavours are provided:

* :class:`RoundRobinArbiter` — the rotating-priority P:1 arbiter used per
  output port in the unified design's separable output-first allocator and
  per port in the buffered baselines' allocator.  Requests are a P-bit
  mask and the grant is one lookup in :func:`round_robin_table`, the single
  ``(pointer, request mask) -> winner`` table every round-robin arbiter in
  the repository shares (the vectorized buffered kernel indexes the same
  table as a numpy array);
* :func:`oldest_first` — the age-based priority rule used throughout DXbar
  and the bufferless baselines.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from ..sim.flit import Flit


@lru_cache(maxsize=None)
def round_robin_table(size: int) -> Tuple[Tuple[int, ...], ...]:
    """``table[ptr][mask]``: the first requesting index at or after
    ``ptr`` (wrapping) among the set bits of ``mask``; ``-1`` for the
    empty mask.  Built once per arbiter size (``size`` x ``2**size``
    entries — meant for router port counts)."""
    table = []
    for ptr in range(size):
        row = [-1]
        for mask in range(1, 1 << size):
            for off in range(size):
                idx = (ptr + off) % size
                if (mask >> idx) & 1:
                    row.append(idx)
                    break
        table.append(tuple(row))
    return tuple(table)


class RoundRobinArbiter:
    """P:1 arbiter with rotating priority.

    :meth:`grant` picks the first requesting index at or after the pointer;
    the pointer then moves one past the winner so every requester is served
    within P cycles of continuous requesting (strong fairness).
    """

    __slots__ = ("size", "_ptr", "_table")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("arbiter size must be >= 1")
        self.size = size
        self._ptr = 0
        self._table = round_robin_table(size)

    def grant(self, mask: int) -> Optional[int]:
        """Grant one of the requesters set in ``mask`` (bit ``i`` requests
        index ``i``, ``i < size``); None when no bit is set."""
        if not mask:
            return None
        winner = self._table[self._ptr][mask]
        self._ptr = (winner + 1) % self.size
        return winner

    def state_dict(self) -> dict:
        return {"ptr": self._ptr}

    def load_state_dict(self, state: dict) -> None:
        self._ptr = state["ptr"]


def oldest_first(flits: Sequence[Flit]) -> List[Flit]:
    """Sort flits by age priority: oldest packet first, then packet id,
    then flit index, with the globally unique flit id as a final tiebreak —
    a total, deterministic order."""
    return sorted(
        flits, key=lambda f: (f.injected_cycle, f.packet_id, f.flit_index, f.fid)
    )
