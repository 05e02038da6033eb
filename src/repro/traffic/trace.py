"""Trace-driven workloads.

A trace is a sequence of ``TraceEvent(cycle, src, dst, num_flits)`` records.
:class:`TraceWorkload` replays one open-loop; the closed-loop SPLASH-2
substitute in :mod:`repro.traffic.splash2` generates its events online.

A tiny text format is supported for interchange::

    # cycle src dst num_flits
    12 0 63 4
    15 7 9 1
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, List, Union

from ..sim.network import Network
from .generator import Workload


@dataclass(frozen=True, order=True)
class TraceEvent:
    """One packet injection request."""

    cycle: int
    src: int
    dst: int
    num_flits: int = 1

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("trace event cycle must be non-negative")
        if self.src == self.dst:
            raise ValueError("trace event src == dst")
        if self.num_flits < 1:
            raise ValueError("trace event needs >= 1 flit")


#: Sort key giving the dataclass order (cycle, src, dst, num_flits) without
#: the generated ``__lt__``, which builds two tuples per comparison.
EVENT_ORDER = attrgetter("cycle", "src", "dst", "num_flits")


class TraceWorkload(Workload):
    """Open-loop replay of a trace; ``done`` when all events are injected
    (the simulator additionally waits for the network to drain)."""

    is_trace = True

    def __init__(self, events: Iterable[TraceEvent]) -> None:
        self.events: List[TraceEvent] = sorted(events, key=EVENT_ORDER)
        self._idx = 0

    def tick(self, cycle: int, network: Network) -> None:
        while self._idx < len(self.events) and self.events[self._idx].cycle <= cycle:
            ev = self.events[self._idx]
            network.inject_packet(
                ev.src, ev.dst, cycle, num_flits=ev.num_flits, measured=True
            )
            self._idx += 1

    def done(self) -> bool:
        return self._idx >= len(self.events)

    def flits_per_cycle(self) -> float:
        """The whole trace's flits over its issue span (first to last
        event cycle, inclusive); 0.0 for an empty trace.  Independent of
        the replay cursor, so a resumed replay resolves as the original."""
        if not self.events:
            return 0.0
        span = self.events[-1].cycle - self.events[0].cycle + 1
        return sum(ev.num_flits for ev in self.events) / span

    @property
    def remaining(self) -> int:
        return len(self.events) - self._idx

    def state_dict(self) -> dict:
        # The event list is rebuilt from the trace spec; only the replay
        # cursor is genuine state.
        return {"idx": self._idx}

    def load_state_dict(self, state: dict) -> None:
        self._idx = state["idx"]


def write_trace(events: Iterable[TraceEvent], path: Union[str, Path]) -> None:
    """Serialise events to the text interchange format."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write("# cycle src dst num_flits\n")
        for ev in sorted(events, key=EVENT_ORDER):
            fh.write(f"{ev.cycle} {ev.src} {ev.dst} {ev.num_flits}\n")


def read_trace(path: Union[str, Path]) -> List[TraceEvent]:
    """Parse the text interchange format back into events."""
    events: List[TraceEvent] = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            cycle, src, dst, nf = (int(p) for p in parts)
            events.append(TraceEvent(cycle, src, dst, nf))
    return events
