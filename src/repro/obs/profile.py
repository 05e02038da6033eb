"""Wall-clock phase profiling of a simulation run.

The engine brackets its three phases — ``workload.tick``, ``network.step``
and the end-of-run stats finalisation — with :func:`time.perf_counter`
when profiling is enabled, so perf work has a stable baseline to argue
against; the object network adds the parts of ``network.step``.  When
profiling is off the engine takes a branch-free loop and
this module is never touched.
"""

from __future__ import annotations

from typing import Dict


class PhaseProfiler:
    """Accumulates (seconds, calls) per named phase."""

    __slots__ = ("_seconds", "_calls", "_parts")

    def __init__(self) -> None:
        self._seconds: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}
        self._parts: Dict[str, "PhaseProfiler"] = {}  # phase -> its parts

    def add(self, phase: str, seconds: float) -> None:
        self._seconds[phase] = self._seconds.get(phase, 0.0) + seconds
        self._calls[phase] = self._calls.get(phase, 0) + 1

    def add_part(self, phase: str, part: str, seconds: float) -> None:
        """Time one part of ``phase`` (inside time already ``add``-ed to
        it, so parts never change the phases' totals or shares)."""
        parts = self._parts.get(phase)
        if parts is None:
            parts = self._parts[phase] = PhaseProfiler()
        parts.add(part, seconds)

    def seconds(self, phase: str) -> float:
        return self._seconds.get(phase, 0.0)

    def calls(self, phase: str) -> int:
        return self._calls.get(phase, 0)

    def report(self) -> Dict[str, dict]:
        """Per-phase totals plus each phase's share of the profiled time;
        a phase with parts also carries them under ``parts``, each part's
        share taken of the parts' total."""
        total = sum(self._seconds.values())
        out = {
            phase: {
                "seconds": secs,
                "calls": self._calls[phase],
                "share": secs / total if total > 0 else 0.0,
            }
            for phase, secs in sorted(
                self._seconds.items(), key=lambda kv: kv[1], reverse=True
            )
        }
        for phase, parts in self._parts.items():
            if phase in out:
                out[phase]["parts"] = parts.report()
        return out

    def to_dict(self) -> Dict[str, dict]:
        """JSON-serialisable snapshot — the ``profile`` section of
        ``SimResult.to_dict()`` / ``repro run --json``.  Same shape as
        :meth:`report`."""
        return self.report()
