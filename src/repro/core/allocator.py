"""Separable output-first switch allocator for the unified dual-input
crossbar (Section II.B.1-2).

Every input port can present *two* packets per cycle — the bufferless
(incoming) flit ``I`` and the buffered/injection flit ``I'`` — so the
standard separable allocator is augmented:

* **stage 1** — the requests of both lanes at each input are OR-ed into one
  P-bit vector per input; one P:1 arbiter per output port picks a winning
  input (we use rotating round-robin arbiters, the common implementation in
  Becker & Dally's study the paper cites);
* **stage 2** — each input may hold several output grants.  A first V:1
  arbiter assigns one granted output to one lane; a *second V:1 arbiter in
  series* (masked by the first's selection so it cannot pick the same lane)
  assigns another granted output to the other lane;
* **conflict-free allocator** — when the two selected outputs land in the
  wrong physical order for the segmented crossbar rows, the detection logic
  fires and the packets swap lanes (Fig 4(c)); both still traverse.  The
  allocator reports the swap count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.flit import Flit
from ..sim.ports import NUM_PORTS, Port
from .arbiters import RoundRobinArbiter

#: Lanes of the dual-input rows.
BUFFERLESS = "bufferless"
BUFFERED = "buffered"


def requires_swap(out_bufferless: int, out_buffered: int) -> bool:
    """Fig 4(c) conflict rule.

    The bufferless source drives the row from the low-index end and the
    buffered source from the high-index end; the single off transmission
    gate between their outputs separates the segments only when
    ``out_bufferless < out_buffered``.  Otherwise the detection logic fires
    and the switch logic exchanges which physical lane each flit uses.
    """
    return out_bufferless > out_buffered


@dataclass(slots=True)
class Request:
    """One lane of one input port asking for outputs this cycle.

    Allocated per requester per cycle in the hot loop — slotted so the
    thousands created per simulated second skip the instance ``__dict__``.
    """

    input_index: int
    lane: str  # BUFFERLESS or BUFFERED
    flit: Flit
    wants: Tuple[Port, ...]  # preference-ordered feasible outputs


@dataclass(slots=True)
class Grant:
    """A (request, output) pairing produced by the allocator."""

    request: Request
    output: Port


class SeparableDualAllocator:
    """Output-first separable allocator with dual serial V:1 input stage.

    Requests and grants are 5-bit port masks throughout: one request mask
    per output (bit ``i`` = input ``i`` wants it, OR-ed over both lanes)
    feeds that output's round-robin arbiter, and one granted-output mask
    per input feeds the two serial V:1 stages.
    """

    def __init__(self) -> None:
        self._output_arbs = [RoundRobinArbiter(NUM_PORTS) for _ in range(NUM_PORTS)]
        self.swaps_total = 0

    def allocate(
        self, requests: Sequence[Request], waiters_first: bool = False
    ) -> Tuple[List[Grant], int]:
        """Run both allocation stages.

        ``waiters_first`` implements the fairness flip: the buffered lane is
        served by the first V:1 arbiter instead of the bufferless lane.

        Returns the grant list (inputs in first-request order, then lanes in
        V:1 order) and the number of conflict-free swaps.
        """
        # ---- stage 1: per-output P:1 arbitration over OR-ed requests ----
        # lanes[i] = [bufferless request, buffered request] of input i.
        lanes: Dict[int, List[Optional[Request]]] = {}
        out_masks = [0] * NUM_PORTS
        for req in requests:
            i = req.input_index
            pair = lanes.get(i)
            if pair is None:
                pair = lanes[i] = [None, None]
            pair[0 if req.lane == BUFFERLESS else 1] = req
            bit = 1 << i
            for port in req.wants:
                out_masks[port] |= bit

        granted = [0] * NUM_PORTS  # per input: mask of outputs it won
        for o, arb in enumerate(self._output_arbs):
            mask = out_masks[o]
            if mask:
                granted[arb.grant(mask)] |= 1 << o

        # ---- stage 2: two serial V:1 arbiters per input ----
        grants: List[Grant] = []
        swaps = 0
        order = (1, 0) if waiters_first else (0, 1)
        for i, pair in lanes.items():
            available = granted[i]
            if not available:
                continue
            chosen: List[Optional[Port]] = [None, None]
            for lane in order:
                req = pair[lane]
                if req is None:
                    continue
                for port in req.wants:
                    bit = 1 << port
                    if available & bit:
                        available ^= bit
                        chosen[lane] = port
                        grants.append(Grant(req, port))
                        break
            bufferless, buffered = chosen
            if (
                bufferless is not None
                and buffered is not None
                and requires_swap(bufferless, buffered)
            ):
                swaps += 1
        self.swaps_total += swaps
        return grants, swaps

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "output_arbs": [a.state_dict() for a in self._output_arbs],
            "swaps_total": self.swaps_total,
        }

    def load_state_dict(self, state: dict) -> None:
        if len(state["output_arbs"]) != len(self._output_arbs):
            raise ValueError("allocator checkpoint has wrong arbiter count")
        for arb, s in zip(self._output_arbs, state["output_arbs"]):
            arb.load_state_dict(s)
        self.swaps_total = state["swaps_total"]
