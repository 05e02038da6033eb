"""Vectorized struct-of-arrays simulation backend.

Selected via ``SimConfig(backend="vector")`` (or ``"auto"``); the engine
dispatches here for piloted designs.  Every network built by this package
is bit-exact with the object walk: same :class:`SimResult`, same
checkpoint bytes (modulo the excepted ``backend`` field), same audited
invariants.
"""

from __future__ import annotations

from .base import VectorNetwork
from .bless import VectorBlessNetwork
from .buffered import VectorBufferedNetwork

#: Designs with a vector kernel (mirrors ``DesignSpec.supports_vector``).
VECTOR_NETWORKS = {
    "flit_bless": VectorBlessNetwork,
    "buffered4": VectorBufferedNetwork,
}


def build_vector_network(config, stats, telemetry=None) -> VectorNetwork:
    """Instantiate the vector network for ``config.design``."""
    try:
        cls = VECTOR_NETWORKS[config.design]
    except KeyError:
        raise ValueError(
            f"design {config.design!r} has no vector kernel"
        ) from None
    return cls(config, stats, telemetry=telemetry)


__all__ = [
    "VECTOR_NETWORKS",
    "VectorNetwork",
    "VectorBlessNetwork",
    "VectorBufferedNetwork",
    "build_vector_network",
]
