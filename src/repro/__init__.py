"""repro — a from-scratch reproduction of "Energy-Efficient and
Fault-Tolerant Unified Buffer and Bufferless Crossbar Architecture for NoCs"
(Zhang, Morris, DiTomaso, Kodi; IPDPS Workshops 2012).

Quickstart::

    from repro import SimConfig, run_simulation

    result = run_simulation(SimConfig(design="dxbar_dor", pattern="UR",
                                      offered_load=0.3))
    print(result.summary())

Public surface:

* :class:`SimConfig` / :class:`FaultConfig` — everything a run needs;
* :func:`run_simulation` / :class:`Simulator` — drive one run;
* :mod:`repro.registry` — plugin registries: add designs, routing
  functions and traffic patterns from your own modules;
* :mod:`repro.runner` — parallel, cache-aware execution of job grids;
* :mod:`repro.analysis` — load sweeps, saturation metrics and the
  per-figure experiment harness;
* :mod:`repro.core` — the DXbar and unified routers themselves;
* :mod:`repro.energy` — the Table III area/energy models.
"""

from .designs import DESIGN_LABELS, PAPER_DESIGNS
from .obs import Telemetry
from .registry import (
    DesignSpec,
    design_names,
    register_design,
    register_pattern,
    register_routing,
    register_workload,
)
from .runner import ResultCache, RunOutcome, RunSpec, run_specs
from .sim.config import FaultConfig, SimConfig, TelemetryConfig
from .sim.engine import Simulator, run_simulation
from .sim.stats import SimResult
from .sim.topology import Mesh
from .traffic.patterns import make_pattern, pattern_names

__version__ = "1.2.0"

__all__ = [
    "DESIGN_LABELS",
    "PAPER_DESIGNS",
    "DesignSpec",
    "design_names",
    "register_design",
    "register_pattern",
    "register_routing",
    "register_workload",
    "ResultCache",
    "RunOutcome",
    "RunSpec",
    "run_specs",
    "FaultConfig",
    "SimConfig",
    "TelemetryConfig",
    "Telemetry",
    "Simulator",
    "run_simulation",
    "SimResult",
    "Mesh",
    "make_pattern",
    "pattern_names",
    "__version__",
]
