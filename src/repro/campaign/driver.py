"""Campaign driver: execution and report emission.

A campaign lives in one run directory (:mod:`repro.runner.rundir` owns
its manifest)::

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

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..analysis.reliability import (
    ReliabilityRecord,
    ReliabilityReport,
    build_report,
)
from ..runner import ResultCache, RunOutcome, run_specs
from ..runner.executor import ProgressFn
from ..runner.rundir import RunDir, run_paths, write_json
from ..sim.stats import SimResult
from .spec import CampaignJob, CampaignSpec

REPORT_NAME = "report.json"


class CampaignError(RuntimeError):
    """A campaign directory problem: missing/corrupt/mismatched manifest."""


_RUN_DIR = RunDir(
    CampaignSpec, "campaign_id", CampaignError, kind="campaign", run="campaign"
)
write_manifest = _RUN_DIR.write_manifest
load_manifest = _RUN_DIR.load_manifest


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
        **_RUN_DIR.identity(spec),
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
    spec = _RUN_DIR.resolve(root, spec)
    campaign_jobs = spec.jobs()
    outcomes = run_specs(
        [j.spec for j in campaign_jobs],
        jobs=jobs,
        cache=run_paths(root).cache,
        progress=progress,
        plugins=plugins,
        retries=retries,
        retry_backoff=retry_backoff,
        job_timeout=job_timeout,
        checkpoint_every=checkpoint_every,
        checkpoint_root=(root / "checkpoints") if checkpoint_every > 0 else None,
        audit=audit,
        journal=run_paths(root).journal if journal else None,
    )
    records = _to_records(campaign_jobs, outcomes)
    report = build_report(records, k=spec.k, threshold=threshold)
    failures = [
        {"job": o.spec.job_id(), "tag": o.spec.tag, "error": o.error or "unknown"}
        for o in outcomes
        if not o.ok
    ]
    payload = _report_payload(spec, campaign_jobs, report, failures)
    write_json(root / REPORT_NAME, payload)
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
    cache = ResultCache(run_paths(root).cache)
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
    cache = ResultCache(run_paths(root).cache)
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
