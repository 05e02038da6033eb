"""Run directories: the layout and manifest lifecycle shared by services.

A fault campaign (:mod:`repro.campaign`) and a saturation search
(:mod:`repro.runner.saturation`) each live in one directory::

    <root>/manifest.json     what the run *is* (spec + content hash)
    <root>/cache/            ResultCache, one JSON per completed job
    <root>/journal/          run journal shards (``repro status``/``tail``)
    <root>/<report>.json     the service's deterministic report

The manifest is written once, atomically and without timestamps, before
the first job runs; it is the run's identity.  Re-opening a directory
re-reads it, so a crashed run resumes the same spec, and a directory
never silently switches to a different one.

A figure run (``repro figure NAME --root DIR``) uses the same ``cache/``
and ``journal/`` pair, without a manifest: its cache is content-addressed,
so one root may be shared by every figure.  :func:`run_paths` is the one
place that spells this layout.

A :class:`RunDir` carries what differs between services as data — the
spec class, the manifest's id key, the error class and the nouns used in
messages — so both services share one copy of the write/load/verify
and resolve logic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, NamedTuple, Optional, Union

from ..checkpoint.format import atomic_write_text
from ..sim.config import content_hash

MANIFEST_NAME = "manifest.json"

#: Manifest/report schema version; bump on incompatible layout changes.
SCHEMA_VERSION = 1


class RunPaths(NamedTuple):
    """Where a run directory keeps its result cache and its journal."""

    cache: Path
    journal: Path


def run_paths(root: Union[str, Path]) -> RunPaths:
    """``<root>/cache`` and ``<root>/journal``."""
    root = Path(root)
    return RunPaths(root / "cache", root / "journal")


def write_json(path: Path, payload: Dict[str, Any]) -> None:
    """Atomically write ``payload`` as indented, key-sorted JSON."""
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


@dataclass(frozen=True)
class RunDir:
    """One service's run-directory conventions.

    ``spec_cls`` round-trips through ``to_dict``/``from_dict``;
    ``id_key`` names the spec hash in the manifest (``campaign_id``,
    ``search_id``); ``error`` is raised for every directory problem;
    ``kind`` names the manifest in messages (``"campaign manifest"``)
    and ``run`` names one run (``"campaign directory ... holds
    campaign ..."``).
    """

    spec_cls: type
    id_key: str
    error: type
    kind: str
    run: str

    def spec_id(self, spec: Any) -> str:
        return content_hash(spec.to_dict())

    def read_json(self, path: Path, noun: str, required: str) -> Dict[str, Any]:
        """Read a JSON object holding key ``required``; a missing, corrupt
        or malformed file raises the service error naming ``noun``."""
        if not path.exists():
            raise self.error(f"no {noun} at {path}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise self.error(f"corrupt {noun} {path}: {exc}") from exc
        if not isinstance(payload, dict) or required not in payload:
            raise self.error(f"malformed {noun} {path}")
        return payload

    def identity(self, spec: Any) -> Dict[str, Any]:
        """The manifest's content, which also heads every report."""
        return {
            "schema_version": SCHEMA_VERSION,
            self.id_key: self.spec_id(spec),
            "spec": spec.to_dict(),
        }

    def write_manifest(self, root: Union[str, Path], spec: Any) -> Path:
        """Create ``<root>/manifest.json`` (atomic; no timestamps — the
        file is part of the run's deterministic on-disk state)."""
        path = Path(root) / MANIFEST_NAME
        write_json(path, self.identity(spec))
        return path

    def load_manifest(self, root: Union[str, Path]) -> Any:
        """Read and verify ``<root>/manifest.json`` back into a spec."""
        path = Path(root) / MANIFEST_NAME
        payload = self.read_json(path, f"{self.kind} manifest", "spec")
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise self.error(
                f"{self.kind} manifest {path} has schema_version={version!r}; "
                f"this build reads version {SCHEMA_VERSION}"
            )
        try:
            spec = self.spec_cls.from_dict(payload["spec"])
        except (TypeError, ValueError) as exc:
            raise self.error(f"invalid spec in {self.kind} manifest {path}: {exc}") from exc
        recorded = payload.get(self.id_key)
        if recorded != self.spec_id(spec):
            raise self.error(
                f"{self.kind} manifest {path} is inconsistent: recorded id "
                f"{recorded!r} != spec hash {self.spec_id(spec)!r}"
            )
        return spec

    def resolve(self, root: Path, spec: Optional[Any]) -> Any:
        """Reconcile a caller-supplied spec with the directory's manifest.

        Fresh directory + spec: write the manifest.  Existing manifest + no
        spec: resume it.  Both present: the hashes must agree — a run
        directory never silently switches runs.
        """
        root.mkdir(parents=True, exist_ok=True)
        manifest = root / MANIFEST_NAME
        if manifest.exists():
            recorded = self.load_manifest(root)
            if spec is not None and self.spec_id(spec) != self.spec_id(recorded):
                raise self.error(
                    f"{self.run} directory {root} already holds {self.run} "
                    f"{self.spec_id(recorded)}; refusing to run {self.run} "
                    f"{self.spec_id(spec)} in it — use a fresh directory"
                )
            return recorded
        if spec is None:
            raise self.error(
                f"no {self.kind} manifest at {manifest} and no spec given; "
                f"pass a {self.spec_cls.__name__} to start a {self.run} here"
            )
        self.write_manifest(root, spec)
        return spec
