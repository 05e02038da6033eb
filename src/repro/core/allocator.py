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

A request is a plain ``(input_index, lane, flit, wants)`` tuple (``lane``
is :data:`BUFFERLESS` or :data:`BUFFERED`, ``wants`` the preference-ordered
feasible output ports) and a grant is a ``(request, output)`` tuple: one
of each is built per requester per cycle, and a tuple costs a fraction of
a slotted dataclass instance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.ports import NUM_PORTS, Port
from .arbiters import RoundRobinArbiter, round_robin_table

#: ``_NEXT_PTR[winner]``: a round-robin pointer one past ``winner``.
_NEXT_PTR = tuple((i + 1) % NUM_PORTS for i in range(NUM_PORTS))

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


class SeparableDualAllocator:
    """Output-first separable allocator with dual serial V:1 input stage.

    Requests and grants are 5-bit port masks throughout: one request mask
    per requested output (bit ``i`` = input ``i`` wants it, OR-ed over both
    lanes) feeds that output's round-robin arbiter, and one granted-output
    mask per input feeds the two serial V:1 stages.  The arbiters keep
    their :class:`RoundRobinArbiter` objects (and ``state_dict``); the
    grant itself is the shared table lookup, inlined.
    """

    def __init__(self) -> None:
        self._output_arbs = [RoundRobinArbiter(NUM_PORTS) for _ in range(NUM_PORTS)]
        self._table = round_robin_table(NUM_PORTS)
        self.swaps_total = 0

    def allocate(
        self, requests: Sequence[tuple], waiters_first: bool = False
    ) -> Tuple[List[Tuple[tuple, Port]], int]:
        """Run both allocation stages.

        ``waiters_first`` implements the fairness flip: the buffered lane is
        served by the first V:1 arbiter instead of the bufferless lane.

        Returns the grant list (inputs in first-request order, then lanes in
        V:1 order) and the number of conflict-free swaps.
        """
        arbs = self._output_arbs
        if len(requests) == 1:
            # A lone request wins every output it wants (each of those
            # arbiters sees one requester) and its lane takes the first.
            req = requests[0]
            wants = req[3]
            nxt = _NEXT_PTR[req[0]]
            for port in wants:
                arbs[port]._ptr = nxt
            return ([(req, wants[0])] if wants else []), 0

        # ---- stage 1: per-output P:1 arbitration over OR-ed requests ----
        # lanes[i] = [bufferless request, buffered request] of input i;
        # out_masks[o] = mask of the inputs requesting output o, holding
        # only the outputs somebody wants.
        lanes: Dict[int, List[Optional[tuple]]] = {}
        out_masks: Dict[Port, int] = {}
        for req in requests:
            i, lane, _flit, wants = req
            pair = lanes.get(i)
            if pair is None:
                pair = lanes[i] = [None, None]
            pair[lane != BUFFERLESS] = req
            bit = 1 << i
            for port in wants:
                out_masks[port] = out_masks.get(port, 0) | bit

        # Each requested output's arbiter grants through the shared table
        # (RoundRobinArbiter.grant inlined: one lookup, pointer one past
        # the winner).
        granted = [0] * NUM_PORTS  # per input: mask of outputs it won
        table = self._table
        for o, mask in out_masks.items():
            arb = arbs[o]
            winner = table[arb._ptr][mask]
            arb._ptr = _NEXT_PTR[winner]
            granted[winner] |= 1 << o

        # ---- stage 2: two serial V:1 arbiters per input ----
        grants: List[Tuple[tuple, Port]] = []
        swaps = 0
        first, second = (1, 0) if waiters_first else (0, 1)
        for i, pair in lanes.items():
            available = granted[i]
            if not available:
                continue
            chosen = None  # the first V:1 arbiter's output
            req = pair[first]
            if req is not None:
                for port in req[3]:
                    if (available >> port) & 1:
                        available ^= 1 << port
                        chosen = port
                        grants.append((req, port))
                        break
            req = pair[second]
            if req is not None and available:
                for port in req[3]:
                    if (available >> port) & 1:
                        grants.append((req, port))
                        if chosen is not None and (
                            requires_swap(port, chosen)
                            if waiters_first
                            else requires_swap(chosen, port)
                        ):
                            swaps += 1
                        break
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
