"""Experiment orchestration: job specs, executors and the result cache.

The paper's evaluation is an embarrassingly-parallel grid (designs x
patterns x loads x fault levels x traces); this package turns it into
:class:`RunSpec` jobs executed serially or across a process pool, with a
config-hash-keyed :class:`ResultCache` providing skip-completed/resume
semantics.  See docs/architecture.md for the layer map.
"""

from .cache import ResultCache
from .executor import RunOutcome, execute_spec, run_specs
from .saturation import SaturationError, SaturationRun, SaturationSpec, run_saturation
from .spec import RunSpec, derived_seed, materialize_workload

__all__ = [
    "ResultCache",
    "RunOutcome",
    "RunSpec",
    "SaturationError",
    "SaturationRun",
    "SaturationSpec",
    "derived_seed",
    "execute_spec",
    "materialize_workload",
    "run_saturation",
    "run_specs",
]
