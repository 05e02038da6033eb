"""Campaign driver: manifest lifecycle, execution and report emission.

A campaign lives in one directory::

    <root>/manifest.json     what the campaign *is* (spec + content hash)
    <root>/cache/            ResultCache, one JSON per completed job
    <root>/journal/          run journal shards (``repro status``/``tail``)
    <root>/checkpoints/      per-job snapshots (when checkpointing is on)
    <root>/report.json       reliability analytics of the last finalize

The manifest is written once, atomically, before the first job runs; it is
the campaign's identity.  Crash-safe resume falls out of the pieces
underneath: :func:`run_campaign` on a directory with a manifest re-expands
the exact same job list from the spec (sampling is a pure function of the
seed), the :class:`~repro.runner.cache.ResultCache` satisfies every
already-completed cell, and the executor runs only the remainder — so
``kill -9`` mid-campaign costs at most the jobs that were in flight, and a
finished campaign re-run is pure cache hits.  The report is a pure
function of the cached results, making serial, parallel and resumed
campaigns byte-identical on disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..analysis.reliability import (
    ReliabilityRecord,
    ReliabilityReport,
    build_report,
)
from ..checkpoint.format import atomic_write_text
from ..runner import ResultCache, RunOutcome, run_specs
from ..runner.executor import ProgressFn
from ..sim.stats import SimResult
from .spec import CampaignJob, CampaignSpec

MANIFEST_NAME = "manifest.json"
REPORT_NAME = "report.json"

#: Manifest/report schema version; bump on incompatible layout changes.
SCHEMA_VERSION = 1


class CampaignError(RuntimeError):
    """A campaign directory problem: missing/corrupt/mismatched manifest."""


# ----------------------------------------------------------------------
# manifest lifecycle
# ----------------------------------------------------------------------
def _write_json(path: Path, payload: Dict[str, Any]) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_manifest(root: Union[str, Path], spec: CampaignSpec) -> Path:
    """Create ``<root>/manifest.json`` (atomic; no timestamps — the file
    is part of the campaign's deterministic on-disk state)."""
    path = Path(root) / MANIFEST_NAME
    _write_json(
        path,
        {
            "schema_version": SCHEMA_VERSION,
            "campaign_id": spec.campaign_hash(),
            "spec": spec.to_dict(),
        },
    )
    return path


def load_manifest(root: Union[str, Path]) -> CampaignSpec:
    """Read and verify ``<root>/manifest.json`` back into a spec."""
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        raise CampaignError(f"no campaign manifest at {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CampaignError(f"corrupt campaign manifest {path}: {exc}") from exc
    if not isinstance(payload, dict) or "spec" not in payload:
        raise CampaignError(f"malformed campaign manifest {path}")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CampaignError(
            f"campaign manifest {path} has schema_version={version!r}; "
            f"this build reads version {SCHEMA_VERSION}"
        )
    spec = CampaignSpec.from_dict(payload["spec"])
    recorded = payload.get("campaign_id")
    if recorded != spec.campaign_hash():
        raise CampaignError(
            f"campaign manifest {path} is inconsistent: recorded id "
            f"{recorded!r} != spec hash {spec.campaign_hash()!r}"
        )
    return spec


def _resolve_spec(
    root: Path, spec: Optional[CampaignSpec]
) -> CampaignSpec:
    """Reconcile a caller-supplied spec with the directory's manifest.

    Fresh directory + spec: write the manifest.  Existing manifest + no
    spec: resume it.  Both present: the hashes must agree — a campaign
    directory never silently switches campaigns.
    """
    manifest = root / MANIFEST_NAME
    if manifest.exists():
        recorded = load_manifest(root)
        if spec is None:
            return recorded
        if spec.campaign_hash() != recorded.campaign_hash():
            raise CampaignError(
                f"campaign directory {root} already holds campaign "
                f"{recorded.campaign_hash()}; refusing to run campaign "
                f"{spec.campaign_hash()} in it — use a fresh directory"
            )
        return recorded
    if spec is None:
        raise CampaignError(
            f"no campaign manifest at {manifest} and no spec given; "
            f"pass a CampaignSpec to start a campaign here"
        )
    write_manifest(root, spec)
    return spec


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Everything :func:`run_campaign` produced: the resolved spec, the
    expanded jobs, per-job outcomes (spec order), the reliability report
    over successful runs, and the payload written to ``report.json``."""

    root: Path
    spec: CampaignSpec
    jobs: List[CampaignJob]
    outcomes: List[RunOutcome]
    report: ReliabilityReport
    payload: Dict[str, Any] = field(default_factory=dict)

    @property
    def failures(self) -> List[Tuple[str, str]]:
        """(job_id, error) for every terminally-failed job."""
        return [
            (o.spec.job_id(), o.error or "unknown")
            for o in self.outcomes
            if not o.ok
        ]

    @property
    def records(self) -> List[ReliabilityRecord]:
        return self.report.records


def _to_records(
    jobs: Iterable[CampaignJob], outcomes: Iterable[Optional[RunOutcome]]
) -> List[ReliabilityRecord]:
    records = []
    for job, outcome in zip(jobs, outcomes):
        if outcome is not None and outcome.ok:
            records.append(
                ReliabilityRecord(
                    sample=job.sample,
                    percent=job.percent,
                    count=job.count,
                    design=job.design,
                    load=job.load,
                    faulty_nodes=job.faulty_nodes,
                    result=outcome.result,
                )
            )
    return records


def _report_payload(
    spec: CampaignSpec,
    jobs: List[CampaignJob],
    report: ReliabilityReport,
    failures: List[Dict[str, str]],
    *,
    pending: int = 0,
) -> Dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "campaign_id": spec.campaign_hash(),
        "spec": spec.to_dict(),
        "jobs_total": len(jobs),
        "jobs_completed": len(report.records),
        "jobs_failed": len(failures),
        "jobs_pending": pending,
        "failures": failures,
        "report": report.to_dict(),
    }


# ----------------------------------------------------------------------
# driver entry points
# ----------------------------------------------------------------------
def run_campaign(
    root: Union[str, Path],
    spec: Optional[CampaignSpec] = None,
    *,
    jobs: int = 1,
    threshold: float = 0.5,
    retries: int = 2,
    retry_backoff: float = 0.5,
    job_timeout: Optional[float] = None,
    checkpoint_every: int = 0,
    audit: Any = False,
    journal: bool = True,
    progress: Optional[ProgressFn] = None,
    plugins: Iterable[str] = (),
) -> CampaignResult:
    """Run (or resume) the campaign living in ``root``.

    ``spec`` is required the first time and optional afterwards (it is
    reloaded from the manifest); passing a different spec for an existing
    directory is an error.  ``jobs``/``retries``/``job_timeout``/
    ``checkpoint_every``/``audit``/``plugins`` pass straight through to
    :func:`~repro.runner.executor.run_specs`; they affect how the campaign
    executes, never what it computes.  ``threshold`` parameterises the
    yield analytics.  Writes ``report.json`` and returns the full
    :class:`CampaignResult`.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    spec = _resolve_spec(root, spec)
    campaign_jobs = spec.jobs()
    outcomes = run_specs(
        [j.spec for j in campaign_jobs],
        jobs=jobs,
        cache=ResultCache(root / "cache"),
        progress=progress,
        plugins=plugins,
        retries=retries,
        retry_backoff=retry_backoff,
        job_timeout=job_timeout,
        checkpoint_every=checkpoint_every,
        checkpoint_root=(root / "checkpoints") if checkpoint_every > 0 else None,
        audit=audit,
        journal=(root / "journal") if journal else None,
    )
    records = _to_records(campaign_jobs, outcomes)
    report = build_report(records, k=spec.k, threshold=threshold)
    failures = [
        {"job": o.spec.job_id(), "tag": o.spec.tag, "error": o.error or "unknown"}
        for o in outcomes
        if not o.ok
    ]
    payload = _report_payload(spec, campaign_jobs, report, failures)
    _write_json(root / REPORT_NAME, payload)
    return CampaignResult(
        root=root,
        spec=spec,
        jobs=campaign_jobs,
        outcomes=outcomes,
        report=report,
        payload=payload,
    )


def campaign_report(
    root: Union[str, Path], *, threshold: float = 0.5
) -> CampaignResult:
    """Rebuild analytics for ``root`` from its result cache, running
    nothing.  Completed cells contribute records; missing cells count as
    pending.  Does not touch ``report.json`` (the cache is the source of
    truth; :func:`run_campaign` owns the file)."""
    root = Path(root)
    spec = load_manifest(root)
    campaign_jobs = spec.jobs()
    cache = ResultCache(root / "cache")
    outcomes: List[Optional[RunOutcome]] = []
    pending = 0
    for job in campaign_jobs:
        hit = cache.get(job.spec)
        if hit is None:
            pending += 1
            outcomes.append(None)
        else:
            outcomes.append(
                RunOutcome(spec=job.spec, result=SimResult.from_dict(hit), cached=True)
            )
    records = _to_records(campaign_jobs, outcomes)
    report = build_report(records, k=spec.k, threshold=threshold)
    payload = _report_payload(spec, campaign_jobs, report, [], pending=pending)
    return CampaignResult(
        root=root,
        spec=spec,
        jobs=campaign_jobs,
        outcomes=[o for o in outcomes if o is not None],
        report=report,
        payload=payload,
    )


def campaign_progress(root: Union[str, Path]) -> Dict[str, Any]:
    """Cheap completion summary of the campaign in ``root``: how many of
    its cells the result cache already holds."""
    root = Path(root)
    spec = load_manifest(root)
    campaign_jobs = spec.jobs()
    cache = ResultCache(root / "cache")
    completed = sum(1 for job in campaign_jobs if cache.contains(job.spec))
    total = len(campaign_jobs)
    return {
        "campaign_id": spec.campaign_hash(),
        "root": str(root),
        "total": total,
        "completed": completed,
        "pending": total - completed,
        "fraction": (completed / total) if total else 1.0,
    }
