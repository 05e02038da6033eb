"""On-disk checkpoint format and file-layout helpers.

A checkpoint is one JSON file named ``ckpt_<cycle>.json`` holding the full
simulator state at an end-of-cycle boundary, alongside the identity needed
to validate a resume:

* ``schema_version`` — rejected when it does not match
  :data:`SCHEMA_VERSION`, so a format change can never be silently
  misinterpreted;
* ``config_hash`` / ``config`` — the :class:`~repro.sim.config.SimConfig`
  the state was produced under; resuming against a different config raises
  :class:`CheckpointMismatch` (bit-exact resume is only defined for the
  identical configuration);
* ``workload`` — the job's workload *spec* dict (or None for open-loop
  Bernoulli jobs), stored for provenance so a resume can report what
  the run was;
* ``cycle`` — the network cycle the snapshot was taken at;
* ``state`` — the nested ``state_dict()`` tree (network, stats, workload,
  telemetry).

Writes are atomic (:func:`atomic_write_text`: ``mkstemp`` + ``os.replace``,
also used by the result cache and the campaign and saturation manifests), so
a run killed mid-write leaves either the previous checkpoint or a complete
new one — never a torn file.

This module deliberately imports nothing from the rest of :mod:`repro`, so
low-level simulation modules may import its exceptions without cycles.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Bump whenever the state tree layout changes incompatibly.
SCHEMA_VERSION = 1

#: Required top-level keys of a checkpoint payload.
_REQUIRED_KEYS = ("schema_version", "config_hash", "config", "cycle", "state")

_CKPT_RE = re.compile(r"^ckpt_(\d+)\.json$")

PathLike = Union[str, Path]


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, unreadable, corrupt or malformed."""


class CheckpointMismatch(CheckpointError):
    """A checkpoint does not belong to the state it is being applied to
    (config drift, topology change, or a different fault plan)."""


def checkpoint_path(root: PathLike, cycle: int) -> Path:
    """The canonical file path of the checkpoint at ``cycle`` under
    ``root``.  Zero-padding keeps lexical and numeric order identical."""
    return Path(root) / f"ckpt_{cycle:012d}.json"


def cycle_of(path: PathLike) -> int:
    """Extract the cycle number from a checkpoint file name."""
    m = _CKPT_RE.match(Path(path).name)
    if m is None:
        raise CheckpointError(f"not a checkpoint file name: {path}")
    return int(m.group(1))


def _flat_checkpoints(root: Path) -> List[Path]:
    return sorted(
        (p for p in root.glob("ckpt_*.json") if _CKPT_RE.match(p.name)),
        key=cycle_of,
    )


def list_checkpoints(root: PathLike) -> List[Path]:
    """Checkpoint files under ``root`` sorted by cycle (oldest first).

    Looks at ``root`` itself first; when it holds none, descends one level
    into subdirectories — that makes a *runner* checkpoint root (which keys
    per-job directories by job id) resolvable by
    :meth:`~repro.sim.engine.Simulator.resume_from` without the caller
    knowing the job id.
    """
    root = Path(root)
    if not root.is_dir():
        return []
    found = _flat_checkpoints(root)
    if not found:
        found = sorted(
            (p for p in root.glob("*/ckpt_*.json") if _CKPT_RE.match(p.name)),
            key=cycle_of,
        )
    return found


def latest_checkpoint(root: PathLike) -> Optional[Path]:
    """The highest-cycle checkpoint under ``root``, or None."""
    found = list_checkpoints(root)
    return found[-1] if found else None


def prune_checkpoints(root: PathLike, keep: int) -> None:
    """Delete all but the newest ``keep`` checkpoints directly in ``root``
    (subdirectories belong to other jobs and are never touched).
    ``keep <= 0`` keeps everything."""
    if keep <= 0:
        return
    root = Path(root)
    if not root.is_dir():
        return
    for path in _flat_checkpoints(root)[:-keep]:
        try:
            path.unlink()
        except OSError:
            pass  # concurrent prune or manual cleanup: not our problem


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a sibling temp file and ``os.replace``,
    so readers see either the old file or the complete new one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_checkpoint(
    path: PathLike,
    *,
    config,
    state: Dict[str, Any],
    cycle: int,
    workload_spec: Optional[Dict[str, Any]] = None,
) -> Path:
    """Atomically write one checkpoint file and return its path.

    ``config`` is a :class:`~repro.sim.config.SimConfig` (duck-typed here:
    anything with ``to_dict()`` and ``config_hash()``).
    """
    path = Path(path)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": config.config_hash(),
        "config": config.to_dict(),
        "workload": workload_spec,
        "cycle": cycle,
        "state": state,
    }
    atomic_write_text(path, json.dumps(payload))
    return path


def read_checkpoint(path: PathLike) -> Dict[str, Any]:
    """Read and validate one checkpoint file.

    Raises :class:`CheckpointError` for unreadable/corrupt/foreign-schema
    files; identity against a config is checked separately by
    :func:`verify_identity` (callers may want the stored config first).
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"corrupt checkpoint {path}: not a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has schema version {version!r}; "
            f"this build reads version {SCHEMA_VERSION}"
        )
    missing = [k for k in _REQUIRED_KEYS if k not in payload]
    if missing:
        raise CheckpointError(f"checkpoint {path} is missing keys: {missing}")
    return payload


def _identity_hash(config_dict: Dict[str, Any]) -> str:
    """Content hash of a config dict with backend-selection keys removed.

    The ``backend`` field selects an execution strategy, not a simulation:
    both backends are bit-exact, checkpoint state trees share one format,
    and a snapshot taken under either must resume under the other.  Old
    checkpoints written before the field existed normalise identically
    (``pop`` of a missing key is a no-op).
    """
    data = dict(config_dict)
    data.pop("backend", None)
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def verify_identity(payload: Dict[str, Any], config, source: str = "checkpoint") -> None:
    """Raise :class:`CheckpointMismatch` unless ``payload`` was written for
    ``config`` up to backend selection (both backends are bit-exact, so a
    checkpoint saved under one may resume under the other)."""
    stored = payload.get("config")
    if not isinstance(stored, dict):
        raise CheckpointMismatch(f"{source} carries no stored config")
    have = _identity_hash(stored)
    want = _identity_hash(config.to_dict())
    if have != want:
        raise CheckpointMismatch(
            f"{source} was written for config_hash={payload.get('config_hash')} "
            f"but the resuming config hashes to {config.config_hash()}; "
            "bit-exact resume requires the identical configuration "
            "(backend selection excepted)"
        )
