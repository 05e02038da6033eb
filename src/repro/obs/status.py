"""Campaign status reconstruction and the ``repro status`` / ``tail`` views.

:class:`CampaignStatus` is the one reader of the run journal (see
:mod:`repro.obs.journal`).  A single pass over the merged event stream
builds one :class:`JobStatus` state machine per job — ``queued ->
running -> completed/failed`` with ``retrying`` and ``cached`` branches —
plus campaign-level totals, the per-event tallies and the heartbeat
cycles/sec samples behind :meth:`CampaignStatus.metrics`.  The renderers
turn that into the one-shot summary (``repro status``) and the compact
live view (``repro tail``); both are plain text so they compose with
watch(1) and CI logs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

from .journal import (
    EV_AUDIT_VIOLATION,
    EV_CACHE_HIT,
    EV_CACHE_QUARANTINE,
    EV_CAMPAIGN,
    EV_CHECKPOINTED,
    EV_CHECKPOINT_SKIPPED,
    EV_COMPLETED,
    EV_FAILED,
    EV_HEARTBEAT,
    EV_JOB_STARTED,
    EV_JOB_SUBMITTED,
    EV_RETRY,
)

#: Job lifecycle states, in display order.
JOB_STATES = ("running", "retrying", "queued", "completed", "cached", "failed")

#: States with no further events coming.
TERMINAL_STATES = ("completed", "cached", "failed")

#: journal event -> metrics counter name (one tally per record).
_EVENT_COUNTERS = {
    EV_JOB_SUBMITTED: "jobs_submitted",
    EV_JOB_STARTED: "job_attempts",
    EV_RETRY: "retries",
    EV_CACHE_HIT: "cache_hits",
    EV_COMPLETED: "jobs_completed",
    EV_FAILED: "jobs_failed",
    EV_HEARTBEAT: "heartbeats",
    EV_CHECKPOINTED: "checkpoints",
    EV_CHECKPOINT_SKIPPED: "checkpoints_skipped",
    EV_AUDIT_VIOLATION: "audit_violations",
    EV_CACHE_QUARANTINE: "cache_quarantines",
}

#: Counters present in :meth:`CampaignStatus.metrics` even at zero.
_BASE_COUNTERS = ("job_attempts", "jobs_submitted", "retries", "cache_hits")

#: Records that move a job through its lifecycle.  A job seen only in
#: side records (``checkpointed``, ``checkpoint_skipped``,
#: ``audit_violation``) is listed but is neither running nor queued in the
#: metrics gauges.
_LIFECYCLE_EVENTS = frozenset(
    (EV_JOB_SUBMITTED, EV_JOB_STARTED, EV_HEARTBEAT, EV_RETRY,
     EV_CACHE_HIT, EV_COMPLETED, EV_FAILED)
)


@dataclass
class JobStatus:
    """The reconstructed lifecycle of one job."""

    job_id: str
    design: str = ""
    pattern: str = ""
    load: Optional[float] = None
    tag: str = ""
    state: str = "queued"
    attempts: int = 0
    retries: int = 0
    heartbeats: int = 0
    checkpoints: int = 0
    cycle: int = 0
    horizon: int = 0
    phase: str = ""
    cps: Optional[float] = None
    eta_s: Optional[float] = None
    error: Optional[str] = None
    first_ts: Optional[float] = None
    last_ts: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def progress(self) -> Optional[float]:
        """Fraction of the horizon simulated, or None before any beat."""
        if self.done:
            return 1.0
        if self.horizon > 0:
            return min(1.0, self.cycle / self.horizon)
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job": self.job_id,
            "design": self.design,
            "pattern": self.pattern,
            "load": self.load,
            "tag": self.tag,
            "state": self.state,
            "attempts": self.attempts,
            "retries": self.retries,
            "heartbeats": self.heartbeats,
            "checkpoints": self.checkpoints,
            "cycle": self.cycle,
            "horizon": self.horizon,
            "phase": self.phase,
            "cps": self.cps,
            "eta_s": self.eta_s,
            "error": self.error,
        }


def _percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, ``p`` in [0, 100], of sorted non-empty
    ``ordered``."""
    return ordered[round(p / 100.0 * (len(ordered) - 1))]


def _summary(samples: Sequence[float]) -> Dict[str, float]:
    if not samples:
        return {"count": 0}
    ordered = sorted(samples)
    return {
        "count": len(samples),
        "mean": sum(samples) / len(samples),
        "min": ordered[0],
        "p50": _percentile(ordered, 50),
        "p90": _percentile(ordered, 90),
        "max": ordered[-1],
    }


@dataclass
class CampaignStatus:
    """Per-job state machines, campaign rollup and fleet metrics for one
    journal."""

    jobs: Dict[str, JobStatus] = field(default_factory=dict)
    total_specs: Optional[int] = None
    workers: Optional[int] = None
    first_ts: Optional[float] = None
    last_ts: Optional[float] = None
    events_seen: int = 0
    #: counter name -> records seen (see ``_EVENT_COUNTERS``).
    tallies: Dict[str, int] = field(default_factory=dict)
    #: every heartbeat's measured cycles/sec, in journal order.
    cps_samples: List[float] = field(default_factory=list)
    #: jobs with at least one lifecycle (non-side) record.
    _tracked: Set[str] = field(default_factory=set, init=False, repr=False)

    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events: Iterable[Dict[str, Any]]) -> "CampaignStatus":
        status = cls()
        for record in events:
            status.apply(record)
        return status

    def _job(self, job_id: str) -> JobStatus:
        job = self.jobs.get(job_id)
        if job is None:
            job = self.jobs[job_id] = JobStatus(job_id=job_id)
        return job

    def apply(self, record: Dict[str, Any]) -> None:
        """Fold one journal record into the reconstruction."""
        self.events_seen += 1
        ts = record.get("ts")
        if ts is not None:
            if self.first_ts is None:
                self.first_ts = ts
            self.last_ts = max(self.last_ts or ts, ts)
        event = record.get("event")
        name = _EVENT_COUNTERS.get(event)
        if name is not None:
            self.tallies[name] = self.tallies.get(name, 0) + 1
        if event == EV_HEARTBEAT and record.get("cps") is not None:
            self.cps_samples.append(float(record["cps"]))
        if event == EV_CAMPAIGN:
            self.total_specs = record.get("total_specs", self.total_specs)
            self.workers = record.get("jobs", self.workers)
            return
        job_id = record.get("job")
        if job_id is None:
            return
        job = self._job(job_id)
        if event in _LIFECYCLE_EVENTS:
            self._tracked.add(job_id)
        if ts is not None:
            if job.first_ts is None:
                job.first_ts = ts
            job.last_ts = ts
        if event == EV_JOB_SUBMITTED:
            job.design = record.get("design", job.design)
            job.pattern = record.get("pattern", job.pattern)
            job.load = record.get("load", job.load)
            job.tag = record.get("tag", job.tag)
        elif event == EV_JOB_STARTED:
            job.attempts = max(job.attempts, record.get("attempt", job.attempts + 1))
            job.state = "running"
            job.cycle = record.get("cycle", job.cycle)
        elif event == EV_HEARTBEAT:
            job.heartbeats += 1
            job.state = "running"
            job.cycle = record.get("cycle", job.cycle)
            job.horizon = record.get("horizon", job.horizon)
            job.phase = record.get("phase", job.phase)
            job.cps = record.get("cps", job.cps)
            job.eta_s = record.get("eta_s", job.eta_s)
        elif event == EV_CHECKPOINTED:
            job.checkpoints += 1
        elif event == EV_RETRY:
            job.retries += 1
            job.state = "retrying"
            job.error = record.get("error", job.error)
        elif event == EV_CACHE_HIT:
            job.state = "cached"
        elif event == EV_COMPLETED:
            job.state = "completed"
            job.attempts = max(job.attempts, record.get("attempts", job.attempts))
            job.cycle = record.get("cycles", job.cycle)
            job.error = None
        elif event == EV_FAILED:
            job.state = "failed"
            job.attempts = max(job.attempts, record.get("attempts", job.attempts))
            job.error = record.get("error", job.error)
        elif event == EV_AUDIT_VIOLATION:
            job.error = record.get("message", job.error)

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Job counts per lifecycle state (every state present, maybe 0)."""
        out = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            out[job.state] = out.get(job.state, 0) + 1
        return out

    @property
    def finished(self) -> bool:
        """True when at least one job was seen and all are terminal."""
        return bool(self.jobs) and all(j.done for j in self.jobs.values())

    @property
    def elapsed_s(self) -> float:
        if self.first_ts is None or self.last_ts is None:
            return 0.0
        return self.last_ts - self.first_ts

    def to_dict(self) -> Dict[str, Any]:
        counts = self.counts()
        return {
            "total_specs": self.total_specs,
            "workers": self.workers,
            "jobs": [j.to_dict() for j in self.jobs.values()],
            "counts": counts,
            "finished": self.finished,
            "elapsed_s": self.elapsed_s,
            "events_seen": self.events_seen,
        }

    def metrics(self) -> Dict[str, Any]:
        """The fleet metrics block of ``repro status --json``.

        ``counters`` are the per-event tallies; ``gauges`` are
        ``jobs_running`` (running or retrying), ``queue_depth`` (submitted,
        not yet started or terminated), ``retry_rate`` (retries /
        attempts) and ``cache_hit_rate`` (hits / submitted); the
        ``cycles_per_sec`` histogram summarises every heartbeat's rate.
        """
        counters = dict.fromkeys(_BASE_COUNTERS, 0)
        counters.update(self.tallies)
        states = [self.jobs[job_id].state for job_id in self._tracked]
        attempts = counters["job_attempts"]
        submitted = counters["jobs_submitted"]
        gauges = {
            "jobs_running": sum(s in ("running", "retrying") for s in states),
            "queue_depth": states.count("queued"),
            "retry_rate": counters["retries"] / attempts if attempts else 0.0,
            "cache_hit_rate": counters["cache_hits"] / submitted if submitted else 0.0,
        }
        histograms = (
            {"cycles_per_sec": _summary(self.cps_samples)} if self.cps_samples else {}
        )
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": histograms,
        }


# ----------------------------------------------------------------------
# text renderers
# ----------------------------------------------------------------------
def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt_progress(job: JobStatus) -> str:
    if job.state == "cached":
        return "cache"
    if job.done:
        return f"{job.cycle} cyc" if job.cycle else "100%"
    if job.progress is None:
        return "-"
    if job.horizon:
        return f"{job.cycle}/{job.horizon} ({job.progress:.0%})"
    return f"{job.progress:.0%}"


def _rollup_line(status: CampaignStatus) -> str:
    counts = status.counts()
    parts = [f"{counts[s]} {s}" for s in JOB_STATES if counts[s]]
    head = f"{len(status.jobs)} jobs"
    if status.total_specs is not None and status.total_specs != len(status.jobs):
        head += f" ({status.total_specs} specs)"
    return f"{head}: " + (", ".join(parts) if parts else "none seen") + (
        f" | elapsed {status.elapsed_s:.1f}s" if status.elapsed_s else ""
    )


def render_status(status: CampaignStatus, max_rows: int = 40) -> str:
    """The one-shot ``repro status`` summary: rollup, fleet metrics, and a
    per-job table (truncated to ``max_rows``, running jobs first)."""
    snap = status.metrics()
    counters = snap["counters"]
    gauges = snap["gauges"]
    lines = [
        _rollup_line(status),
        "attempts {a} | retries {r} (rate {rr:.0%}) | cache hits {c} "
        "(rate {cr:.0%}) | checkpoints {k} | audit violations {v}".format(
            a=counters["job_attempts"],
            r=counters["retries"],
            rr=gauges["retry_rate"],
            c=counters["cache_hits"],
            cr=gauges["cache_hit_rate"],
            k=counters.get("checkpoints", 0),
            v=counters.get("audit_violations", 0),
        ),
    ]
    cps = snap["histograms"].get("cycles_per_sec")
    if cps:
        lines.append(
            "cycles/sec: p50 {p50:,.0f}  p90 {p90:,.0f}  mean {mean:,.0f} "
            "({count} heartbeats)".format(**cps)
        )
    order = {state: i for i, state in enumerate(JOB_STATES)}
    jobs = sorted(status.jobs.values(), key=lambda j: order.get(j.state, 99))
    rows = []
    for job in jobs[:max_rows]:
        label = job.tag or job.design or "-"
        detail = job.phase or ""
        if job.error:
            detail = (job.error[:40] + "…") if len(job.error) > 40 else job.error
        rows.append(
            [
                job.job_id[:12],
                label[:16],
                job.state,
                str(job.attempts),
                _fmt_progress(job),
                f"{job.cps:,.0f}" if job.cps else "-",
                f"{job.eta_s:.0f}s" if job.eta_s and not job.done else "-",
                detail,
            ]
        )
    lines.append("")
    lines.append(
        _table(["job", "label", "state", "att", "progress", "c/s", "eta", "detail"], rows)
    )
    if len(jobs) > max_rows:
        lines.append(f"... and {len(jobs) - max_rows} more jobs")
    return "\n".join(lines)


def render_tail(
    status: CampaignStatus,
    events: Sequence[Dict[str, Any]],
    lines: int = 10,
    now: Optional[float] = None,
) -> str:
    """The compact ``repro tail`` block: fleet rollup, every in-flight
    job's progress, and the last ``lines`` non-heartbeat events."""
    now = now if now is not None else time.time()
    out = [_rollup_line(status)]
    active = [j for j in status.jobs.values() if not j.done]
    for job in active:
        age = f" ({now - job.last_ts:.0f}s ago)" if job.last_ts else ""
        label = job.tag or job.design or job.job_id[:12]
        cps = f" @ {job.cps:,.0f} c/s" if job.cps else ""
        eta = f" eta {job.eta_s:.0f}s" if job.eta_s else ""
        out.append(
            f"  {job.job_id[:12]}  {label:<16} {job.state:<8} "
            f"{_fmt_progress(job)}{cps}{eta}{age}"
        )
    recent = [e for e in events if e.get("event") != EV_HEARTBEAT][-lines:]
    if recent:
        out.append("recent events:")
        for e in recent:
            job = e.get("job", "")
            detail = e.get("error") or e.get("message") or ""
            out.append(
                f"  {e.get('event', '?'):<15} {str(job)[:12]:<12} {detail}".rstrip()
            )
    return "\n".join(out)


def campaign_status(path_or_events) -> CampaignStatus:
    """Convenience: build a :class:`CampaignStatus` from a journal path or
    an already-merged event list."""
    from .journal import merge_journal

    if isinstance(path_or_events, (list, tuple)):
        events = list(path_or_events)
    else:
        events = merge_journal(path_or_events)
    return CampaignStatus.from_events(events)


__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobStatus",
    "CampaignStatus",
    "campaign_status",
    "render_status",
    "render_tail",
]
