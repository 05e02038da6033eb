"""repro.obs — the observability subsystem.

Three layers behind one :class:`Telemetry` facade, all disabled by default
so the simulation hot loop pays a single ``if`` per potential event:

* **flit-lifecycle tracing** (:mod:`repro.obs.trace`): routers emit
  ``inject``/``route``/``arb_win``/``arb_lose``/``buffer``/
  ``traverse_primary``/``traverse_secondary``/``deflect``/``drop``/
  ``fairness_flip``/``fault_reconfig``/``eject`` records into a pluggable
  sink (JSONL file or in-memory ring buffer);
* **interval metrics** (:mod:`repro.obs.metrics`): per-router time series
  (buffer occupancy, primary/secondary traversals, deflections, fairness
  flips, link utilisation, ...) sampled every N cycles into a columnar
  frame that serialises to JSON and round-trips through
  :func:`load_metrics`;
* **profiling** (:mod:`repro.obs.profile`): wall-clock timing of the
  ``workload.tick`` / ``network.step`` / stats phases of a run.

Above the single-run layers sits the **fleet telemetry** stack:

* **run journal** (:mod:`repro.obs.journal`): a crash-safe, sharded
  append-only JSONL event stream (job lifecycle, heartbeats, retries,
  checkpoints, audit violations) written by the campaign driver and every
  pool worker, merged deterministically on read;
* **status views** (:mod:`repro.obs.status`): the one journal reader.
  :class:`CampaignStatus` folds the merged stream into per-job state
  machines and the fleet metrics (per-event counters, jobs running, queue
  depth, retry/cache-hit rates, cycles/sec distribution) in one pass; the
  text renderers behind ``repro status`` and ``repro tail`` read it.

See ``docs/observability.md`` for the event schema and column reference.
"""

from .counters import COUNTER_FIELDS, RouterCounters, merge_counters
from .facade import Telemetry
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
    JOURNAL_EVENTS,
    JOURNAL_SCHEMA_VERSION,
    HeartbeatEmitter,
    JobJournal,
    Journal,
    JournalWriter,
    as_journal,
    merge_journal,
    read_journal_shard,
)
from .metrics import IntervalMetrics, MetricsFrame, load_metrics
from .profile import PhaseProfiler
from .status import CampaignStatus, JobStatus, campaign_status, render_status, render_tail
from .trace import (
    EVENTS,
    EV_ARB_LOSE,
    EV_ARB_WIN,
    EV_BUFFER,
    EV_DEFLECT,
    EV_DROP,
    EV_EJECT,
    EV_FAIRNESS_FLIP,
    EV_FAULT_RECONFIG,
    EV_INJECT,
    EV_MODE_SWITCH,
    EV_RETRANSMIT,
    EV_ROUTE,
    EV_TRAVERSE_PRIMARY,
    EV_TRAVERSE_SECONDARY,
    JsonlSink,
    NullSink,
    RingBufferSink,
    Tracer,
    lifecycle,
    read_trace,
)

__all__ = [
    "Telemetry",
    "RouterCounters",
    "COUNTER_FIELDS",
    "merge_counters",
    "IntervalMetrics",
    "MetricsFrame",
    "load_metrics",
    "PhaseProfiler",
    # fleet telemetry
    "Journal",
    "JournalWriter",
    "JobJournal",
    "HeartbeatEmitter",
    "as_journal",
    "merge_journal",
    "read_journal_shard",
    "JOURNAL_EVENTS",
    "JOURNAL_SCHEMA_VERSION",
    "EV_CAMPAIGN",
    "EV_JOB_SUBMITTED",
    "EV_JOB_STARTED",
    "EV_HEARTBEAT",
    "EV_CHECKPOINTED",
    "EV_CHECKPOINT_SKIPPED",
    "EV_RETRY",
    "EV_CACHE_HIT",
    "EV_COMPLETED",
    "EV_FAILED",
    "EV_AUDIT_VIOLATION",
    "EV_CACHE_QUARANTINE",
    "CampaignStatus",
    "JobStatus",
    "campaign_status",
    "render_status",
    "render_tail",
    "Tracer",
    "NullSink",
    "RingBufferSink",
    "JsonlSink",
    "read_trace",
    "lifecycle",
    "EVENTS",
    "EV_INJECT",
    "EV_ROUTE",
    "EV_ARB_WIN",
    "EV_ARB_LOSE",
    "EV_BUFFER",
    "EV_TRAVERSE_PRIMARY",
    "EV_TRAVERSE_SECONDARY",
    "EV_DEFLECT",
    "EV_DROP",
    "EV_RETRANSMIT",
    "EV_FAIRNESS_FLIP",
    "EV_FAULT_RECONFIG",
    "EV_MODE_SWITCH",
    "EV_EJECT",
]
