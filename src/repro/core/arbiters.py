"""Hardware-style arbiters.

Three flavours are provided:

* :class:`RoundRobinArbiter` — the rotating-priority P:1 arbiter used per
  output port in the unified design's separable output-first allocator;
* :class:`MatrixArbiter` — least-recently-served arbiter, provided for the
  allocator ablation (it is the classic alternative in Becker & Dally's
  allocator study that the paper cites);
* :func:`oldest_first` — the age-based priority rule used throughout DXbar
  and the bufferless baselines.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..sim.flit import Flit


class RoundRobinArbiter:
    """P:1 arbiter with rotating priority.

    :meth:`grant` picks the first requesting index at or after the pointer;
    the pointer then moves one past the winner so every requester is served
    within P cycles of continuous requesting (strong fairness).
    """

    __slots__ = ("size", "_ptr")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("arbiter size must be >= 1")
        self.size = size
        self._ptr = 0

    def grant(self, requests: Iterable[int]) -> Optional[int]:
        """Grant one of ``requests`` (indices in ``[0, size)``); None when
        no requests."""
        req = set(requests)
        if not req:
            return None
        for off in range(self.size):
            idx = (self._ptr + off) % self.size
            if idx in req:
                self._ptr = (idx + 1) % self.size
                return idx
        return None  # pragma: no cover - unreachable with valid indices

    def state_dict(self) -> dict:
        return {"ptr": self._ptr}

    def load_state_dict(self, state: dict) -> None:
        self._ptr = state["ptr"]


class MatrixArbiter:
    """Least-recently-served arbiter.

    Keeps a priority matrix ``w[i][j] == True`` meaning ``i`` beats ``j``;
    the winner's row is cleared and column set, demoting it below everyone.
    """

    __slots__ = ("size", "_w")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("arbiter size must be >= 1")
        self.size = size
        # Upper-triangular start: lower index initially beats higher.
        self._w: List[List[bool]] = [
            [i < j for j in range(size)] for i in range(size)
        ]

    def grant(self, requests: Iterable[int]) -> Optional[int]:
        req = sorted(set(requests))
        if not req:
            return None
        for i in req:
            if all(self._w[i][j] for j in req if j != i):
                # Demote the winner.
                for j in range(self.size):
                    if j != i:
                        self._w[i][j] = False
                        self._w[j][i] = True
                return i
        # A well-formed matrix always has a unique maximum.
        raise AssertionError("matrix arbiter found no winner")  # pragma: no cover

    def state_dict(self) -> dict:
        return {"w": [list(row) for row in self._w]}

    def load_state_dict(self, state: dict) -> None:
        self._w = [list(row) for row in state["w"]]


def oldest_first(flits: Sequence[Flit]) -> List[Flit]:
    """Sort flits by age priority: oldest packet first, then packet id,
    then flit index, with the globally unique flit id as a final tiebreak —
    a total, deterministic order."""
    return sorted(
        flits, key=lambda f: (f.injected_cycle, f.packet_id, f.flit_index, f.fid)
    )
