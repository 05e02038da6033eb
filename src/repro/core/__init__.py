"""The paper's contribution: DXbar dual-crossbar and unified dual-input
single-crossbar routers, with their allocators, fairness and fault logic."""

from .allocator import (
    BUFFERED,
    BUFFERLESS,
    Grant,
    Request,
    SeparableDualAllocator,
    requires_swap,
)
from .arbiters import RoundRobinArbiter, oldest_first
from .buffers import FlitFIFO
from .dxbar import DXbarRouter
from .fairness import FairnessCounter
from .faults import PRIMARY, SECONDARY, FaultPlan, RouterFault
from .unified import UnifiedRouter

__all__ = [
    "Grant",
    "Request",
    "SeparableDualAllocator",
    "RoundRobinArbiter",
    "oldest_first",
    "FlitFIFO",
    "BUFFERED",
    "BUFFERLESS",
    "requires_swap",
    "DXbarRouter",
    "FairnessCounter",
    "PRIMARY",
    "SECONDARY",
    "FaultPlan",
    "RouterFault",
    "UnifiedRouter",
]
