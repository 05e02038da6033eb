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
from ..sim.ports import Port
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
    """Output-first separable allocator with dual serial V:1 input stage."""

    def __init__(self, num_ports: int = 5) -> None:
        self.num_ports = num_ports
        self._output_arbs = [RoundRobinArbiter(num_ports) for _ in range(num_ports)]
        self.swaps_total = 0

    def allocate(
        self, requests: Sequence[Request], waiters_first: bool = False
    ) -> Tuple[List[Grant], int]:
        """Run both allocation stages.

        ``waiters_first`` implements the fairness flip: the buffered lane is
        served by the first V:1 arbiter instead of the bufferless lane.

        Returns the grant list and the number of conflict-free swaps.
        """
        # ---- stage 1: per-output P:1 arbitration over OR-ed requests ----
        by_input: Dict[int, List[Request]] = {}
        for req in requests:
            by_input.setdefault(req.input_index, []).append(req)

        output_requests: Dict[int, set] = {o: set() for o in range(self.num_ports)}
        for req in requests:
            for port in req.wants:
                output_requests[int(port)].add(req.input_index)

        granted_outputs: Dict[int, List[int]] = {i: [] for i in by_input}
        for o in range(self.num_ports):
            winner = self._output_arbs[o].grant(output_requests[o])
            if winner is not None:
                granted_outputs[winner].append(o)

        # ---- stage 2: two serial V:1 arbiters per input ----
        grants: List[Grant] = []
        swaps = 0
        first_lane = BUFFERED if waiters_first else BUFFERLESS
        for i, outs in granted_outputs.items():
            if not outs:
                continue
            lanes = {r.lane: r for r in by_input[i]}
            ordered = [lane for lane in (first_lane, self._other(first_lane)) if lane in lanes]
            available = set(outs)
            chosen: Dict[str, Port] = {}
            for lane in ordered:
                req = lanes[lane]
                pick = self._first_match(req.wants, available)
                if pick is not None:
                    available.discard(int(pick))
                    chosen[lane] = pick
                    grants.append(Grant(req, pick))
            if BUFFERLESS in chosen and BUFFERED in chosen:
                if requires_swap(int(chosen[BUFFERLESS]), int(chosen[BUFFERED])):
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

    @staticmethod
    def _other(lane: str) -> str:
        return BUFFERED if lane == BUFFERLESS else BUFFERLESS

    @staticmethod
    def _first_match(wants: Tuple[Port, ...], available: set) -> Optional[Port]:
        for port in wants:
            if int(port) in available:
                return port
        return None
