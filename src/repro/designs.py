"""Built-in design registrations and construction helpers.

The six evaluated designs (Section III.A) and their routed variants:

========== =============================== =========================
config     router                          routing
========== =============================== =========================
flit_bless :class:`BlessRouter`            minimal adaptive (deflect)
scarab     :class:`ScarabRouter`           minimal adaptive (drop)
buffered4  :class:`Buffered4Router`        DOR
buffered8  :class:`Buffered8Router`        DOR
dxbar_dor  :class:`DXbarRouter`            DOR
dxbar_wf   :class:`DXbarRouter`            West-First adaptive
unified_dor :class:`UnifiedRouter`         DOR
unified_wf :class:`UnifiedRouter`          West-First adaptive
========== =============================== =========================

Each is registered into :data:`repro.registry.DESIGNS`; add your own
design from any module with :func:`repro.registry.register_design` — no
edit to this file or to ``sim/config.py`` is needed (see
docs/architecture.md).
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .core.dxbar import DXbarRouter
from .core.unified import UnifiedRouter
from .registry import DESIGNS, design_spec, register_design
from .routers.base import BaseRouter
from .routers.afc import AFCRouter
from .routers.bless import BlessRouter
from .routers.buffered import Buffered4Router, Buffered8Router
from .routers.scarab import ScarabRouter
from .routing.base import RoutingFunction, shared_routing
from .sim.config import SimConfig
from .sim.topology import Mesh

# Registration order is the CLI listing order; the paper's six designs
# first, then the routed unified variants and the AFC extension.
# vector_min_work thresholds come from benchmarks/bench_perf.py sweeps of
# the committed baseline and object-vs-vector pairs on the SPLASH-2
# traces: below the given injected flits per cycle (k**2 * offered_load
# for Bernoulli traffic, flits over issue span for a trace) the SoA
# kernel's fixed per-cycle cost loses to the active object walk, which
# skips idle routers entirely.  Buffered designs have no idle-skip
# advantage under Bernoulli traffic, so buffered4's kernel wins at any
# load (threshold None); SPLASH-2 traces converge on 16 memory-controller
# tiles and leave the rest of the mesh idle, where its object walk wins
# below about 2 flits/cycle (Radiosity, Water and LU at quick scale).
register_design(
    "flit_bless", BlessRouter, routing="adaptive", label="Flit-Bless",
    supports_vector=True, vector_min_work=10.0,
)
register_design("scarab", ScarabRouter, routing="adaptive", label="SCARAB")
register_design(
    "buffered4", Buffered4Router, routing="dor", label="Buffered 4",
    supports_vector=True, vector_min_trace_work=2.0,
)
register_design("buffered8", Buffered8Router, routing="dor", label="Buffered 8")
register_design(
    "dxbar_dor", DXbarRouter, routing="dor", label="DXbar DOR",
    base="dxbar", supports_faults=True,
)
register_design(
    "dxbar_wf", DXbarRouter, routing="wf", label="DXbar WF",
    base="dxbar", supports_faults=True,
)
register_design(
    "unified_dor", UnifiedRouter, routing="dor", label="Unified DOR",
    base="unified", supports_faults=True,
)
register_design(
    "unified_wf", UnifiedRouter, routing="wf", label="Unified WF",
    base="unified", supports_faults=True,
)
register_design("afc", AFCRouter, routing="adaptive", label="AFC")

#: The six designs of the paper's figures, in plotting order.
PAPER_DESIGNS = (
    "flit_bless",
    "scarab",
    "buffered4",
    "buffered8",
    "dxbar_dor",
    "dxbar_wf",
)


class _LabelView(Mapping):
    """Live read-only mapping: design name -> pretty label."""

    def __getitem__(self, name: str) -> str:
        return design_spec(name).label

    def __iter__(self) -> Iterator[str]:
        return iter(DESIGNS.names())

    def __len__(self) -> int:
        return len(DESIGNS.names())


#: Pretty names used by the report renderers (live view of the registry,
#: so out-of-tree designs appear automatically).
DESIGN_LABELS: Mapping[str, str] = _LabelView()


def build_routing(config: SimConfig, mesh: Mesh) -> RoutingFunction:
    """The routing function for ``config`` over ``mesh``: the shared
    per-process table of its class and radix (see
    :func:`~repro.routing.base.shared_routing`)."""
    from .registry import ROUTING

    return shared_routing(ROUTING.get(config.routing), mesh.k)


def build_router(config, node, mesh, routing, energy) -> BaseRouter:
    """Instantiate one router of the configured design."""
    cls = design_spec(config.design).router_cls
    return cls(node, mesh, routing, energy, config)
