"""Config-hash-keyed result store.

One JSON file per job under the cache root, named ``<job_id>.json`` and
holding the job's identity (config + workload spec) next to the result, so
a lookup verifies the stored identity before trusting the hash — a
collision or a stale schema reads as a miss, never as a wrong result.

``ResultCache(None)`` is a pure in-memory store with the same interface
(the experiment drivers use it as their default shared-run cache);
``ResultCache(path)`` persists to disk, which is what gives sweeps
resume/skip-completed semantics across interrupted campaigns.
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

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._mem: Dict[str, Dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self._warned_corrupt = False
        # Optional JournalWriter: when a campaign driver attaches one,
        # quarantines become ``cache_quarantine`` journal events instead
        # of (or in addition to) the one-shot RuntimeWarning.
        self.journal = None

    # ------------------------------------------------------------------
    def _path(self, job_id: str) -> Path:
        assert self.root is not None
        return self.root / f"{job_id}.json"

    @staticmethod
    def _identity(spec: RunSpec) -> Dict[str, Any]:
        ident = spec.describe()
        ident.pop("tag", None)  # tags are bookkeeping, not identity
        return ident

    def _load(self, spec: RunSpec) -> Optional[Dict[str, Any]]:
        job_id = spec.job_id()
        payload = self._mem.get(job_id)
        if payload is None and self.root is not None:
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
            except OSError:
                return None
            if not isinstance(payload, dict):
                self._quarantine(path)
                return None
            self._mem[job_id] = payload
        if payload is None:
            return None
        if payload.get("identity") != self._identity(spec):
            return None  # hash collision or stale schema: treat as a miss
        return payload

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
            "identity": self._identity(spec),
            "result": result,
        }
        self._mem[job_id] = payload
        if self.root is not None:
            # Atomic write: concurrent executors may race on the same key.
            atomic_write_text(self._path(job_id), json.dumps(payload))

    def clear(self) -> None:
        """Drop every entry (memory and disk)."""
        self._mem.clear()
        self.hits = 0
        self.misses = 0
        if self.root is not None:
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass

    def __len__(self) -> int:
        if self.root is not None:
            return len(list(self.root.glob("*.json")))
        return len(self._mem)
