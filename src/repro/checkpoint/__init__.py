"""Deterministic simulation snapshots (checkpoint/restore).

The checkpoint subsystem captures the *complete* mutable state of a
simulation — every router's buffers and in-flight flits, fairness and
arbiter state, fault reconfiguration flags, link pipelines, the traffic
generator's RNG streams, interval-metrics columns and the accumulated
statistics — into a versioned JSON file, and restores it bit-exactly:

    a run interrupted at any cycle and resumed from its last checkpoint
    produces a ``SimResult`` identical to the uninterrupted run.

Layering:

* :mod:`repro.checkpoint.format` — on-disk format, atomic writes,
  discovery and identity validation (imports nothing from repro);
* :mod:`repro.checkpoint.policy` — when/where to snapshot periodically;
* ``state_dict()`` / ``load_state_dict()`` (torch-style) on every stateful
  component, composed by ``Network.state_dict`` and
  ``Simulator.state_dict``;
* :meth:`repro.sim.engine.Simulator.save_checkpoint` /
  :meth:`repro.sim.engine.Simulator.resume_from` — the user-facing API;
* :func:`repro.runner.run_specs` — per-job checkpoint directories and
  crash-retry-from-checkpoint for campaigns;
* the CLI's ``--checkpoint-every`` / ``--checkpoint-dir`` flags (plus the
  ``REPRO_CHECKPOINT_DIR`` variable); re-running a killed command with
  the same flags resumes it.

See the "Checkpoint & resume" section of docs/architecture.md.
"""

from .format import (
    SCHEMA_VERSION,
    CheckpointError,
    CheckpointMismatch,
    checkpoint_path,
    cycle_of,
    latest_checkpoint,
    list_checkpoints,
    prune_checkpoints,
    read_checkpoint,
    verify_identity,
    write_checkpoint,
)
from .policy import CheckpointPolicy

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointError",
    "CheckpointMismatch",
    "CheckpointPolicy",
    "checkpoint_path",
    "cycle_of",
    "latest_checkpoint",
    "list_checkpoints",
    "prune_checkpoints",
    "read_checkpoint",
    "verify_identity",
    "write_checkpoint",
]
