"""Analytic channel-load and capacity model.

Offered load in this package is normalised to injection bandwidth (1.0 ==
one flit per node per cycle).  This module computes the *channel-limited*
capacity of a (pattern, routing) pair — the injection rate at which the
most-loaded link saturates — which bounds any router's achievable accepted
load and is used by tests to sanity-check simulated saturation points.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from typing import Dict, Optional, Tuple

from ..sim.ports import Port
from ..sim.topology import Mesh
from ..traffic.patterns import make_pattern
from .base import RoutingFunction, shared_routing
from .dor import DORRouting

Channel = Tuple[int, Port]  # (source node, output port)


def channel_loads(
    pattern, mesh: Mesh, routing: Optional[RoutingFunction] = None
) -> Dict[Channel, float]:
    """Expected per-channel load (flits/cycle) at unit injection rate.

    Walks every (src, dst) pair of the pattern's destination distribution
    along the routing function's most-preferred path (adaptive functions are
    evaluated on their first choice, a standard approximation).
    """
    routing = routing or DORRouting(mesh)
    loads: Dict[Channel, float] = defaultdict(float)
    for src in mesh.nodes():
        for dst, w in pattern.weights(src).items():
            cur = src
            while cur != dst:
                port = routing.first(cur, dst)
                loads[(cur, port)] += w
                nxt = mesh.neighbor(cur, port)
                assert nxt is not None, "routing walked off the mesh"
                cur = nxt
    return dict(loads)


def max_channel_load(
    pattern, mesh: Mesh, routing: Optional[RoutingFunction] = None
) -> float:
    """Load on the most-congested channel at unit injection rate."""
    loads = channel_loads(pattern, mesh, routing)
    return max(loads.values()) if loads else 0.0


def channel_capacity(
    pattern, mesh: Mesh, routing: Optional[RoutingFunction] = None
) -> float:
    """Channel-limited capacity in flits/node/cycle.

    The value is per *injecting* node: sources whose permutation maps to
    themselves are excluded from the average injection but their links are
    still modelled.
    """
    lmax = max_channel_load(pattern, mesh, routing)
    if lmax == 0.0:
        return 1.0
    return min(1.0, 1.0 / lmax)


@lru_cache(maxsize=64)
def mesh_capacity(k: int, pattern: str, routing_cls: type) -> float:
    """:func:`channel_capacity` of the named pattern on a ``k x k`` mesh
    under ``routing_cls``, walked once per process.

    The walk visits every (src, dst) pair, so a saturation search that is
    re-opened, or that has several designs on one routing function, pays
    for it once.  The routing table is the shared one of
    :func:`~repro.routing.base.shared_routing`.
    """
    routing = shared_routing(routing_cls, k)
    return channel_capacity(make_pattern(pattern, routing.mesh), routing.mesh, routing)


def average_hops(pattern, mesh: Mesh) -> float:
    """Mean minimal hop count of the pattern (latency lower-bound input)."""
    total = 0.0
    mass = 0.0
    for src in mesh.nodes():
        for dst, w in pattern.weights(src).items():
            total += w * mesh.manhattan(src, dst)
            mass += w
    return total / mass if mass else 0.0
