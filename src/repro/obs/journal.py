"""Crash-safe cross-process run journal.

A *journal* is a directory of append-only JSONL shards, one per writing
process (the campaign driver plus every pool worker), merged on read.
This sharding is what makes the record crash-safe: no two processes ever
share a file handle, every record is flushed as one ``write()`` of a
single line, and a SIGKILLed worker can at worst leave one torn final
line in its own shard — which the reader tolerates — never corrupt
another process's events.

Record schema (``JOURNAL_SCHEMA_VERSION`` 1)::

    {"v": 1, "ts": <unix seconds>, "src": "<shard source>", "seq": <int>,
     "event": "<event name>", "job": "<job id>", ...event fields}

``ts`` is forced monotone *per shard* (a clock stepping backwards cannot
reorder a shard against itself) and ``seq`` increments per record, so the
merged order — sort by ``(ts, src, seq)`` — is deterministic and
preserves every shard's own emission order.  Campaign-level records
(``campaign``, ``cache_quarantine``) carry no ``job`` field.

Event vocabulary (see docs/observability.md for the field tables):

* ``campaign`` — one per :func:`repro.runner.run_specs` call (totals);
* ``job_submitted`` — a unique job entered the work queue;
* ``job_started`` — an attempt began executing (per retry attempt);
* ``backend_resolved`` — the backend that attempt runs on, and why;
* ``heartbeat`` — periodic in-run progress (cycle, cycles/sec, ETA);
* ``checkpointed`` — a mid-run snapshot was written;
* ``retry`` — an attempt failed and the job will be retried;
* ``cache_hit`` — the job was satisfied from the result cache;
* ``completed`` / ``failed`` — terminal job outcomes;
* ``audit_violation`` — the per-cycle auditor aborted the job;
* ``cache_quarantine`` — a corrupt result-cache entry was set aside.

The one consumer lives next door: :class:`repro.obs.status.CampaignStatus`
folds a merged stream into per-job states and fleet metrics in one pass,
and :mod:`repro.obs.status` renders the ``repro status`` / ``repro tail``
views from it.  A new event needs one branch in ``CampaignStatus.apply``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

JOURNAL_SCHEMA_VERSION = 1

# Event names, roughly in lifecycle order.
EV_CAMPAIGN = "campaign"
EV_JOB_SUBMITTED = "job_submitted"
EV_JOB_STARTED = "job_started"
EV_BACKEND_RESOLVED = "backend_resolved"
EV_HEARTBEAT = "heartbeat"
EV_CHECKPOINTED = "checkpointed"
EV_CHECKPOINT_SKIPPED = "checkpoint_skipped"
EV_RETRY = "retry"
EV_CACHE_HIT = "cache_hit"
EV_COMPLETED = "completed"
EV_FAILED = "failed"
EV_AUDIT_VIOLATION = "audit_violation"
EV_CACHE_QUARANTINE = "cache_quarantine"
EV_CACHE_REJECTED = "cache_rejected"

JOURNAL_EVENTS = (
    EV_CAMPAIGN,
    EV_JOB_SUBMITTED,
    EV_JOB_STARTED,
    EV_BACKEND_RESOLVED,
    EV_HEARTBEAT,
    EV_CHECKPOINTED,
    EV_CHECKPOINT_SKIPPED,
    EV_RETRY,
    EV_CACHE_HIT,
    EV_COMPLETED,
    EV_FAILED,
    EV_AUDIT_VIOLATION,
    EV_CACHE_QUARANTINE,
    EV_CACHE_REJECTED,
)


class JournalWriter:
    """Append-only JSONL writer for one shard.

    Opens in append mode (a worker process that executes many jobs — or a
    resumed campaign reusing a source name — keeps extending the same
    shard) and flushes after every record so ``repro tail`` and a
    post-mortem reader always see everything up to the last completed
    line.
    """

    __slots__ = ("path", "source", "_fh", "_seq", "_last_ts")

    def __init__(self, path: Union[str, Path], source: Optional[str] = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.source = source if source is not None else self.path.stem
        self._fh = open(self.path, "a", encoding="utf-8")
        self._seq = 0
        self._last_ts = 0.0

    def write(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event record and flush it; returns the record."""
        ts = round(time.time(), 6)
        if ts < self._last_ts:  # clock stepped back: keep the shard monotone
            ts = self._last_ts
        self._last_ts = ts
        record: Dict[str, Any] = {
            "v": JOURNAL_SCHEMA_VERSION,
            "ts": ts,
            "src": self.source,
            "seq": self._seq,
            "event": event,
        }
        record.update(fields)
        self._seq += 1
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()
        return record

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Journal:
    """Handle on a journal directory: shard writers plus the merged view."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def writer(self, source: str) -> JournalWriter:
        """A shard writer named after ``source`` (``<root>/<source>.jsonl``)."""
        return JournalWriter(self.root / f"{source}.jsonl", source=source)

    def shards(self) -> List[Path]:
        return journal_shards(self.root)

    def events(self) -> List[Dict[str, Any]]:
        """The merged, globally-ordered event stream."""
        return merge_journal(self.root)

    def __fspath__(self) -> str:
        return str(self.root)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Journal({str(self.root)!r})"


# ----------------------------------------------------------------------
# readers
# ----------------------------------------------------------------------
def journal_shards(root: Union[str, Path]) -> List[Path]:
    """The shard files of a journal directory, in stable name order."""
    return sorted(Path(root).glob("*.jsonl"))


def read_journal_shard(
    path: Union[str, Path], strict: bool = False
) -> Tuple[List[Dict[str, Any]], int]:
    """Read one shard; returns ``(events, bad_lines)``.

    A process killed mid-``write`` leaves at most one torn trailing line;
    any line that does not decode to a JSON object is skipped and counted
    instead of poisoning the whole shard (``strict=True`` re-raises, for
    tests that want to prove a shard is fully well-formed).
    """
    events: List[Dict[str, Any]] = []
    bad = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if strict:
                    raise
                bad += 1
                continue
            if not isinstance(record, dict):
                if strict:
                    raise ValueError(f"non-object journal record in {path}")
                bad += 1
                continue
            events.append(record)
    return events, bad


def merge_journal(
    path: Union[str, Path, Journal], strict: bool = False
) -> List[Dict[str, Any]]:
    """Merge a journal directory (or a single shard file) into one
    globally-ordered event list.

    Order is ``(ts, src, seq)``: global wall-clock order with a
    deterministic tie-break that — because each writer keeps ``ts``
    monotone and ``seq`` increasing — preserves every shard's own
    emission order exactly.
    """
    p = Path(path)
    shards = journal_shards(p) if p.is_dir() else [p]
    events: List[Dict[str, Any]] = []
    for shard in shards:
        shard_events, _bad = read_journal_shard(shard, strict=strict)
        events.extend(shard_events)
    events.sort(key=lambda r: (r.get("ts", 0.0), str(r.get("src", "")), r.get("seq", 0)))
    return events


# ----------------------------------------------------------------------
# job-side emitters
# ----------------------------------------------------------------------
class JobJournal:
    """One job's view of a journal: a shard writer bound to a job id.

    This is the object threaded into :class:`~repro.sim.engine.Simulator`
    and :func:`~repro.runner.executor.execute_spec`; every event it emits
    carries the job id so the merged stream reconstructs per-job
    lifecycles across process boundaries.
    """

    __slots__ = ("writer", "job_id", "heartbeat_interval")

    def __init__(
        self, writer: JournalWriter, job_id: str, heartbeat_interval: float = 1.0
    ) -> None:
        self.writer = writer
        self.job_id = job_id
        self.heartbeat_interval = heartbeat_interval

    def event(self, event: str, **fields: Any) -> Dict[str, Any]:
        return self.writer.write(event, job=self.job_id, **fields)


class HeartbeatEmitter:
    """Wall-clock-throttled in-run progress reporter.

    Built by the engine's ``_run_loop`` when a :class:`JobJournal` is
    attached; ``maybe_beat`` is called once per simulated cycle and emits
    a ``heartbeat`` event whenever ``heartbeat_interval`` wall seconds
    have elapsed.  The *first* call always emits, so even a job that
    finishes inside one interval leaves at least one heartbeat — the
    lifecycle guarantee ``repro status`` leans on.

    Cost model: one ``monotonic()`` call per cycle when journaling is
    enabled, nothing at all when it is not (the engine holds ``None``).
    """

    __slots__ = ("journal", "interval", "_clock", "_next_due", "_last_cycle", "_last_time")

    def __init__(
        self, journal: JobJournal, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.journal = journal
        self.interval = max(0.0, float(journal.heartbeat_interval))
        self._clock = clock
        self._next_due = float("-inf")  # first call always beats
        self._last_cycle: Optional[int] = None
        self._last_time: Optional[float] = None

    def maybe_beat(self, cycle: int, horizon: int, stats, phase: str) -> bool:
        """Emit a heartbeat if one is due; returns True when emitted."""
        now = self._clock()
        if now < self._next_due:
            return False
        fields: Dict[str, Any] = {
            "cycle": cycle,
            "horizon": horizon,
            "phase": phase,
            "injected": stats.total_injected_flits,
            "ejected": stats.total_ejected_flits,
        }
        if self._last_time is not None and now > self._last_time:
            cps = (cycle - (self._last_cycle or 0)) / (now - self._last_time)
            fields["cps"] = round(cps, 1)
            if cps > 0:
                fields["eta_s"] = round(max(0, horizon - cycle) / cps, 1)
        self.journal.event(EV_HEARTBEAT, **fields)
        self._last_cycle = cycle
        self._last_time = now
        self._next_due = now + self.interval
        return True
