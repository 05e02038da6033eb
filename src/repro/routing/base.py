"""Routing-function interface.

A routing function maps ``(current node, destination)`` to an *ordered*
tuple of candidate output ports.  Deterministic algorithms (DOR) return a
single port; adaptive algorithms return every legal productive port in
preference order and the router picks the first one that is free — this is
exactly how DXbar "re-directs the buffered flit to another progressive
direction" (Section II.B).

All functions precompute a dense ``(N x N)`` candidate table at
construction: the mesh is small (64 nodes) and the hot loop then costs a
single list index.  A table is a pure function of its class and the mesh
radix, so :func:`shared_routing` builds each one once per process and
every network of that radix shares it; a routing function must therefore
keep no per-network state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Tuple

from ..sim.ports import Port
from ..sim.topology import Mesh


class RoutingFunction(ABC):
    """Precomputed routing table over a mesh."""

    #: short name used in configs and reports
    name: str = "base"

    def __init__(self, mesh: Mesh) -> None:
        self.mesh = mesh
        n = mesh.num_nodes
        # _table[cur * n + dst] -> tuple of candidate ports.
        self._table: list = [None] * (n * n)
        for cur in range(n):
            base = cur * n
            for dst in range(n):
                if cur == dst:
                    self._table[base + dst] = (Port.LOCAL,)
                else:
                    cands = self._compute(cur, dst)
                    if not cands:
                        raise AssertionError(
                            f"{type(self).__name__} produced no candidate "
                            f"ports for {cur}->{dst}"
                        )
                    self._table[base + dst] = cands

    @abstractmethod
    def _compute(self, cur: int, dst: int) -> Tuple[Port, ...]:
        """Return the ordered candidate ports for ``cur != dst``."""

    def candidates(self, cur: int, dst: int) -> Tuple[Port, ...]:
        """Ordered productive output ports for a flit at ``cur`` going to
        ``dst``.  ``(Port.LOCAL,)`` when already at the destination."""
        return self._table[cur * self.mesh.num_nodes + dst]

    def row(self, cur: int) -> Tuple[Tuple[Port, ...], ...]:
        """``candidates(cur, dst)`` for every ``dst``, indexed by ``dst`` —
        a router's private slice of the table."""
        n = self.mesh.num_nodes
        return tuple(self._table[cur * n : (cur + 1) * n])

    def first(self, cur: int, dst: int) -> Port:
        """The most-preferred port (what a deterministic router would use)."""
        return self._table[cur * self.mesh.num_nodes + dst][0]


@lru_cache(maxsize=32)
def shared_routing(routing_cls: type, k: int) -> RoutingFunction:
    """The process-wide ``routing_cls`` table over a ``k x k`` mesh.

    Keyed by class rather than by registered name, so a plugin that
    re-registers a name gets its own table.  The instance holds only a
    mesh and an immutable table; treat it as read-only.
    """
    return routing_cls(Mesh(k))
