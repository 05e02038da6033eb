"""Config-hash-keyed result store.

One JSON file per job under the cache root, named ``<job_id>.json`` and
holding the job's identity (config + workload spec) next to the result, so
a lookup verifies the stored identity before trusting the hash — a
collision or a stale schema reads as a miss, never as a wrong result.
The store is what gives every run directory (``<root>/cache``, see
:func:`repro.runner.rundir.run_paths`) its resume/skip-completed
semantics across interrupted runs.

An existing entry that still reads as a miss is never silent while a
journal is attached: a corrupt one is quarantined (``cache_quarantine``),
and an unreadable one or one whose stored identity does not match is
reported as ``cache_rejected``.  An entry that is simply absent is an
ordinary miss and leaves no record.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..checkpoint.format import atomic_write_text
from .spec import RunSpec


class ResultCache:
    """Maps :class:`~repro.runner.spec.RunSpec` job ids to result dicts."""

    def __init__(self, root: Union[str, Path], journal=None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._mem: Dict[str, Dict[str, Any]] = {}  # entries read or written
        self.hits = 0
        self.misses = 0
        self._warned_corrupt = False
        # Optional JournalWriter (the executor's driver shard): with one,
        # quarantines become ``cache_quarantine`` journal events instead
        # of the one-shot RuntimeWarning, and rejected entries
        # ``cache_rejected`` events.
        self.journal = journal
        self._rejected: set = set()  # job ids already journaled as rejected

    # ------------------------------------------------------------------
    def _path(self, job_id: str) -> Path:
        return self.root / f"{job_id}.json"

    def _load(self, spec: RunSpec) -> Optional[Dict[str, Any]]:
        job_id = spec.job_id()
        payload = self._mem.get(job_id)
        if payload is None:
            path = self._path(job_id)
            if not path.exists():
                return None
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError):
                # Corrupt/truncated entry (e.g. a crash mid-write on a
                # filesystem without atomic rename).  Left in place it
                # would be re-parsed — and silently re-missed — by every
                # fresh process; quarantine it instead.
                self._quarantine(path)
                return None
            except OSError as exc:
                self._reject(job_id, "unreadable", error=f"{type(exc).__name__}: {exc}")
                return None
            if not isinstance(payload, dict):
                self._quarantine(path)
                return None
            self._mem[job_id] = payload
        if payload.get("identity") != spec.identity():
            # Hash collision or stale schema: treat as a miss.
            self._reject(job_id, "identity_mismatch")
            return None
        return payload

    def _reject(self, job_id: str, reason: str, **fields: Any) -> None:
        """Journal why an existing entry reads as a miss, once per key per
        cache instance (a campaign probes each key several times)."""
        if self.journal is None or job_id in self._rejected:
            return
        from ..obs.journal import EV_CACHE_REJECTED

        self._rejected.add(job_id)
        self.journal.write(
            EV_CACHE_REJECTED, file=f"{job_id}.json", reason=reason, **fields
        )

    def _quarantine(self, path: Path) -> None:
        """Rename a corrupt entry to ``<job_id>.json.corrupt`` so it stops
        shadowing the key, and warn once per cache instance."""
        target = path.with_name(path.name + ".corrupt")
        try:
            path.replace(target)
        except OSError:
            return  # a concurrent process already moved/removed it
        if self.journal is not None:
            from ..obs.journal import EV_CACHE_QUARANTINE

            self.journal.write(
                EV_CACHE_QUARANTINE, file=path.name, quarantined=target.name
            )
            return
        if not self._warned_corrupt:
            self._warned_corrupt = True
            warnings.warn(
                f"result cache entry {path.name} was corrupt; quarantined "
                f"as {target.name} (the job will be re-run)",
                RuntimeWarning,
                stacklevel=4,
            )

    # ------------------------------------------------------------------
    def get(self, spec: RunSpec) -> Optional[Dict[str, Any]]:
        """The cached result dict for ``spec``, or None.  Counts hit/miss."""
        payload = self._load(spec)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload["result"]

    def contains(self, spec: RunSpec) -> bool:
        """True when a valid entry exists (does not count hit/miss)."""
        return self._load(spec) is not None

    def put(self, spec: RunSpec, result: Dict[str, Any]) -> None:
        """Store ``result`` (a ``SimResult.to_dict()``) for ``spec``."""
        job_id = spec.job_id()
        payload = {
            "job_id": job_id,
            "identity": spec.identity(),
            "result": result,
        }
        self._mem[job_id] = payload
        # Atomic write: concurrent executors may race on the same key.
        atomic_write_text(self._path(job_id), json.dumps(payload))

    def __len__(self) -> int:
        return len(list(self.root.glob("*.json")))
