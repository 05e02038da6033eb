"""Serial and process-parallel execution of :class:`RunSpec` grids.

:func:`run_specs` is the single entry point used by the sweep helpers, the
per-figure experiment drivers and the CLI.  Guarantees:

* **Determinism** — each job's RNG seed lives in its config, so the same
  spec produces the same :class:`~repro.sim.stats.SimResult` regardless of
  executor, worker count or completion order.  Parallel output equals
  serial output dict-for-dict.
* **Ordering** — results come back in spec order, whatever order the
  workers finish in.
* **Resume** — with a :class:`~repro.runner.cache.ResultCache`, completed
  jobs are skipped (a cache hit never re-simulates) and fresh results are
  written back, so an interrupted campaign continues where it stopped.
* **Fault tolerance** — a job that raises, times out or loses its worker
  process is retried up to ``retries`` times (exponential backoff between
  rounds) instead of aborting the campaign; with a ``checkpoint_root``
  each attempt snapshots every ``checkpoint_every`` cycles into the job's
  own directory and a retry resumes from the last snapshot rather than
  from cycle zero.  A job that exhausts its retries surfaces as a
  :class:`RunOutcome` with ``error`` set (and ``result`` None); other jobs
  complete normally.

* **Telemetry** — with a ``journal`` (a directory path or
  :class:`~repro.obs.journal.Journal`), the driver and every worker
  append structured lifecycle events (``job_submitted`` / ``job_started``
  / ``backend_resolved`` / ``heartbeat`` / ``checkpointed`` /
  ``checkpoint_skipped`` / ``retry`` / ``cache_hit`` / ``completed`` /
  ``failed`` / ``audit_violation``) to their own JSONL shard, so a
  campaign is observable while running (``repro tail``) and explainable
  after a crash (``repro status``).  The journal is a pure observer:
  journal-enabled runs are bit-exact with journal-disabled ones.

Workers receive jobs as plain dicts (``RunSpec.describe()`` wrapped with
the execution options), which keeps the process boundary free of pickling
surprises; plugin modules named in ``plugins`` are imported in each worker
before any job runs so that out-of-tree registry entries resolve under the
``spawn`` start method too.
"""

from __future__ import annotations

import importlib
import os
import time
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..audit import AuditViolation, _as_audit_config
from ..checkpoint.format import CheckpointError, list_checkpoints
from ..checkpoint.policy import CheckpointPolicy
from ..obs.journal import (
    EV_AUDIT_VIOLATION,
    EV_BACKEND_RESOLVED,
    EV_CACHE_HIT,
    EV_CAMPAIGN,
    EV_CHECKPOINT_SKIPPED,
    EV_COMPLETED,
    EV_FAILED,
    EV_JOB_STARTED,
    EV_JOB_SUBMITTED,
    EV_RETRY,
    Journal,
    JobJournal,
    JournalWriter,
    as_journal,
)
from ..sim.config import SimConfig
from ..sim.engine import Simulator
from ..sim.stats import SimResult
from .cache import ResultCache
from .spec import RunSpec, materialize_workload

#: Progress callback signature: ``progress(done, total, outcome)``.
ProgressFn = Callable[[int, int, "RunOutcome"], None]

#: Ceiling on one backoff sleep, seconds.
_MAX_BACKOFF = 30.0


@dataclass(frozen=True)
class RunOutcome:
    """One finished job: its spec, result (or terminal error) and
    provenance.

    Exactly one of ``result``/``error`` is meaningful: a successful job
    has ``result`` set and ``error`` None; a job that exhausted its
    retries has ``error`` set (a ``"ExcType: message"`` string) and
    ``result`` None.  ``attempts`` counts executions charged to the job
    (cache hits keep the default 0).
    """

    spec: RunSpec
    result: Optional[SimResult]
    cached: bool = False
    error: Optional[str] = None
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None

    @property
    def config(self) -> SimConfig:
        return self.spec.config


def execute_spec(
    spec: RunSpec,
    check_invariants: bool = False,
    *,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    audit=False,
    journal: Optional[JobJournal] = None,
    attempt: int = 1,
) -> SimResult:
    """Run one job in this process and return its result.

    With ``checkpoint_dir`` the run snapshots every ``checkpoint_every``
    cycles (0 = never) into that directory — and first tries to *resume*
    from the newest readable checkpoint already there, which is what turns
    a retry of a crashed attempt into a continuation instead of a restart.

    ``audit`` (False, True or an :class:`~repro.audit.AuditConfig`) runs
    the job under the per-cycle invariant auditor; a violation raises
    :class:`~repro.audit.AuditViolation` out of this call.

    ``journal`` (a :class:`~repro.obs.journal.JobJournal`) records the
    attempt's lifecycle: a ``job_started`` event here (carrying
    ``attempt``, the executing pid and the start cycle — nonzero when the
    attempt resumed from a checkpoint) and a ``backend_resolved`` event
    (requested and resolved backend, and why), a ``checkpoint_skipped``
    event for every unreadable snapshot the resume passed over, heartbeats
    and ``checkpointed`` events from inside the run, and an
    ``audit_violation`` event when the auditor aborts the job.
    """
    workload = materialize_workload(spec.workload, spec.config)
    policy = None
    sim = None
    if checkpoint_dir is not None:
        policy = CheckpointPolicy(checkpoint_dir, every=checkpoint_every)
        for path in reversed(list_checkpoints(policy.root)):
            try:
                sim = Simulator.resume_from(
                    path,
                    config=spec.config,
                    workload=workload,
                    checkpoint=policy,
                    audit=audit,
                    journal=journal,
                )
            except CheckpointError as exc:
                # Torn/foreign snapshot: journal it, so a resume that falls
                # back to cycle 0 is visible, and try the next-oldest.
                if journal is not None:
                    journal.event(
                        EV_CHECKPOINT_SKIPPED, path=str(path), error=str(exc)
                    )
                continue
            break
    if sim is None:
        sim = Simulator(
            spec.config, workload=workload, checkpoint=policy, audit=audit,
            journal=journal,
        )
    sim.workload_spec = dict(spec.workload) if spec.workload else None
    if journal is not None:
        journal.event(
            EV_JOB_STARTED, attempt=attempt, pid=os.getpid(), cycle=sim.network.cycle
        )
        resolved, reason = spec.config.backend_choice()
        journal.event(
            EV_BACKEND_RESOLVED,
            requested=spec.config.backend,
            resolved=resolved,
            reason=reason,
        )
    try:
        return sim.run(check_invariants=check_invariants)
    except AuditViolation as exc:
        if journal is not None:
            journal.event(
                EV_AUDIT_VIOLATION,
                check=exc.check,
                cycle=exc.cycle,
                node=exc.node,
                message=exc.message,
            )
        raise


# ----------------------------------------------------------------------
# worker-side entry points (must be module-level for pickling)
# ----------------------------------------------------------------------
def _init_worker(plugins: Tuple[str, ...]) -> None:
    for module in plugins:
        importlib.import_module(module)


#: Per-process journal shard writers, keyed by journal directory.  A pool
#: worker runs many jobs over its lifetime; they all append to the same
#: ``worker-<pid>.jsonl`` shard, so no two processes ever share a file.
_WORKER_WRITERS: Dict[str, JournalWriter] = {}


def _worker_writer(journal_dir: str) -> JournalWriter:
    writer = _WORKER_WRITERS.get(journal_dir)
    if writer is None:
        name = f"worker-{os.getpid()}"
        writer = _WORKER_WRITERS[journal_dir] = JournalWriter(
            Path(journal_dir) / f"{name}.jsonl", source=name
        )
    return writer


def _execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    spec = RunSpec.from_dict(payload["spec"])
    journal = None
    journal_dir = payload.get("journal_dir")
    if journal_dir is not None:
        journal = JobJournal(
            _worker_writer(journal_dir),
            spec.job_id(),
            heartbeat_interval=payload.get("heartbeat_interval", 1.0),
        )
    return execute_spec(
        spec,
        check_invariants=payload.get("check_invariants", False),
        checkpoint_every=payload.get("checkpoint_every", 0),
        checkpoint_dir=payload.get("checkpoint_dir"),
        # Crosses the process boundary as False/True/dict; execute_spec's
        # coercion (via Simulator) accepts all three.
        audit=payload.get("audit", False),
        journal=journal,
        attempt=payload.get("attempt", 1),
    ).to_dict()


# ----------------------------------------------------------------------
# failure-handling helpers
# ----------------------------------------------------------------------
def _describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _retry_diag(
    writer: Optional[JournalWriter], job_id: str, attempt: int, error: str
) -> None:
    """Record one about-to-be-retried failure.

    With a journal the diagnostic becomes a ``retry`` event (visible to
    ``repro status``/``tail``); without one it degrades to a
    ``RuntimeWarning`` so silently-retried flaky attempts still leave a
    trace somewhere.
    """
    if writer is not None:
        writer.write(EV_RETRY, job=job_id, attempt=attempt, error=error)
    else:
        warnings.warn(
            f"job {job_id}: attempt {attempt} failed ({error}); retrying",
            RuntimeWarning,
            stacklevel=3,
        )


def _sleep_backoff(base: float, attempt: int) -> None:
    """Exponential backoff: ``base * 2**(attempt-1)`` seconds, capped."""
    if base > 0 and attempt > 0:
        time.sleep(min(_MAX_BACKOFF, base * 2 ** (attempt - 1)))


def _kill_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Best-effort preemption of a pool whose job overran its timeout.

    ``concurrent.futures`` has no per-task cancel once a task is running,
    so the only lever is killing the worker processes; the pool then
    reports BrokenProcessPool for every in-flight future and the caller
    sorts out who gets charged an attempt.  ``_processes`` is internal
    API, hence the defensive getattr — if it moves, timeouts degrade to
    "wait for the job" rather than crashing the campaign.  A worker that
    is already gone (``ProcessLookupError``, or ``ValueError`` from a
    closed ``Process``) is skipped; any other error propagates.
    """
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.kill()
        except (ProcessLookupError, ValueError):
            pass


# ----------------------------------------------------------------------
def run_specs(
    specs: Sequence[RunSpec],
    *,
    jobs: int = 1,
    cache: Optional[Union[ResultCache, str, Path]] = None,
    progress: Optional[ProgressFn] = None,
    plugins: Iterable[str] = (),
    check_invariants: bool = False,
    retries: int = 2,
    retry_backoff: float = 0.5,
    job_timeout: Optional[float] = None,
    checkpoint_every: int = 0,
    checkpoint_root: Optional[Union[str, Path]] = None,
    audit=False,
    journal: Optional[Union[str, Path, Journal]] = None,
    heartbeat_interval: float = 1.0,
) -> List[RunOutcome]:
    """Execute ``specs`` and return their outcomes in spec order.

    ``jobs`` <= 1 runs serially in this process; ``jobs`` > 1 fans the
    non-cached specs out over a :class:`ProcessPoolExecutor` with ``jobs``
    workers.  ``cache`` (a :class:`ResultCache` or a directory path)
    enables skip-completed/resume semantics.
    ``progress`` is called after every job (cached ones included) with the
    running completion count.

    Fault tolerance: each failing job is retried up to ``retries`` extra
    times with ``retry_backoff``-seeded exponential backoff between
    rounds.  ``job_timeout`` (seconds) preempts a stuck attempt by
    killing the worker pool; the victim is charged an attempt, innocent
    in-flight jobs are not.  An in-process attempt cannot be preempted, so
    with a timeout set every job runs in a pool, even at ``jobs`` <= 1.  With ``checkpoint_root``, each job
    checkpoints every ``checkpoint_every`` cycles under
    ``<root>/<job_id>/`` and retries resume from the last snapshot.
    Terminal failures come back as outcomes with ``error`` set; they are
    never written to the cache.

    ``audit`` runs every executed job under the per-cycle invariant
    auditor (cache hits are not re-audited); an ``AuditViolation`` is a
    job failure like any other, except it is never retried — the
    simulation is deterministic, so a violation would simply repeat.

    ``journal`` (a directory path or :class:`~repro.obs.journal.Journal`)
    enables the fleet run journal: the driver appends campaign/submit/
    cache-hit/retry/terminal events to its own shard, executing processes
    append start/heartbeat/checkpoint events to theirs, and
    ``heartbeat_interval`` sets the wall-clock seconds between in-run
    heartbeats.  Purely observational — results are bit-identical with
    and without it.
    """
    specs = list(specs)
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0/1 both mean serial)")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    plugins = tuple(plugins)
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    total = len(specs)
    outcomes: List[Optional[RunOutcome]] = [None] * total
    done = 0

    jr = as_journal(journal)
    writer = jr.writer(f"driver-{os.getpid()}") if jr is not None else None

    def _report(outcome: RunOutcome) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total, outcome)

    def _ckpt_dir(key: str) -> Optional[str]:
        if checkpoint_root is None:
            return None
        return str(specs[pending[key][0]].checkpoint_dir(checkpoint_root))

    def _finish(indexes: List[int], result: SimResult, attempts: int) -> None:
        if cache is not None:
            cache.put(specs[indexes[0]], result.to_dict())
        if writer is not None:
            writer.write(
                EV_COMPLETED,
                job=specs[indexes[0]].job_id(),
                attempts=attempts,
                cycles=result.final_cycle,
            )
        for j, i in enumerate(indexes):
            outcomes[i] = RunOutcome(
                spec=specs[i], result=result, cached=j > 0, attempts=attempts
            )
            _report(outcomes[i])

    def _fail(indexes: List[int], error: str, attempts: int) -> None:
        if writer is not None:
            writer.write(
                EV_FAILED,
                job=specs[indexes[0]].job_id(),
                error=error,
                attempts=attempts,
            )
        for i in indexes:
            outcomes[i] = RunOutcome(
                spec=specs[i], result=None, error=error, attempts=attempts
            )
            _report(outcomes[i])

    def _submitted(spec: RunSpec, key: str) -> None:
        if writer is not None:
            wl = spec.workload.get("kind") if spec.workload else None
            writer.write(
                EV_JOB_SUBMITTED,
                job=key,
                design=spec.config.design,
                pattern=spec.config.pattern,
                load=spec.config.offered_load,
                tag=spec.tag,
                workload=wl,
            )

    # While this campaign runs, cache self-check quarantines are routed
    # into the journal as well (restored afterwards).
    prev_cache_journal = getattr(cache, "journal", None)
    if cache is not None and writer is not None:
        cache.journal = writer

    try:
        if writer is not None:
            writer.write(EV_CAMPAIGN, total_specs=total, jobs=jobs)

        # Resolve cache hits first so a resumed campaign only pays for the
        # missing cells of its grid, and deduplicate identical specs within
        # the batch (they share one execution).
        pending: Dict[str, List[int]] = {}
        for i, spec in enumerate(specs):
            hit = cache.get(spec) if cache is not None else None
            if hit is not None:
                key = spec.job_id()
                _submitted(spec, key)
                if writer is not None:
                    writer.write(EV_CACHE_HIT, job=key)
                outcomes[i] = RunOutcome(
                    spec=spec, result=SimResult.from_dict(hit), cached=True
                )
                _report(outcomes[i])
            else:
                key = spec.job_id()
                if key not in pending:
                    _submitted(spec, key)
                pending.setdefault(key, []).append(i)

        audit_payload: Any = audit
        audit_config = _as_audit_config(audit)
        if audit_config is not None:
            audit_payload = audit_config.to_dict()

        if job_timeout is None and (jobs <= 1 or len(pending) <= 1):
            for key, indexes in pending.items():
                attempt = 0
                jobj = (
                    JobJournal(writer, key, heartbeat_interval=heartbeat_interval)
                    if writer is not None
                    else None
                )
                while True:
                    attempt += 1
                    try:
                        result = execute_spec(
                            specs[indexes[0]],
                            check_invariants=check_invariants,
                            checkpoint_every=checkpoint_every,
                            checkpoint_dir=_ckpt_dir(key),
                            audit=audit,
                            journal=jobj,
                            attempt=attempt,
                        )
                    except Exception as exc:
                        if attempt > retries or isinstance(exc, AuditViolation):
                            _fail(indexes, _describe_error(exc), attempt)
                            break
                        _retry_diag(writer, key, attempt, _describe_error(exc))
                        _sleep_backoff(retry_backoff, attempt)
                        # execute_spec resumes from this job's checkpoints.
                    else:
                        _finish(indexes, result, attempt)
                        break
        else:
            _run_parallel(
                specs,
                pending,
                jobs=max(jobs, 1),
                plugins=plugins,
                check_invariants=check_invariants,
                retries=retries,
                retry_backoff=retry_backoff,
                job_timeout=job_timeout,
                checkpoint_every=checkpoint_every,
                audit=audit_payload,
                ckpt_dir=_ckpt_dir,
                finish=_finish,
                fail=_fail,
                writer=writer,
                journal_root=jr,
                heartbeat_interval=heartbeat_interval,
            )
    finally:
        if cache is not None and writer is not None:
            cache.journal = prev_cache_journal
        if writer is not None:
            writer.close()

    return [o for o in outcomes if o is not None]


def _run_parallel(
    specs: List[RunSpec],
    pending: Dict[str, List[int]],
    *,
    jobs: int,
    plugins: Tuple[str, ...],
    check_invariants: bool,
    retries: int,
    retry_backoff: float,
    job_timeout: Optional[float],
    checkpoint_every: int,
    audit: Any,
    ckpt_dir: Callable[[str], Optional[str]],
    finish: Callable[[List[int], SimResult, int], None],
    fail: Callable[[List[int], str, int], None],
    writer: Optional[JournalWriter] = None,
    journal_root: Optional[Journal] = None,
    heartbeat_interval: float = 1.0,
) -> None:
    """Round-based fault-tolerant fan-out.

    Each round submits every still-unfinished job to a fresh pool (a pool
    that lost a worker is broken for good, so reuse is not an option),
    harvests completions, and carries failures into the next round until
    they succeed or exhaust their attempts.  Bounded: every round charges
    at least one attempt to at least one unfinished job.
    """
    jobs_left: Dict[str, List[int]] = dict(pending)
    attempts: Dict[str, int] = {key: 0 for key in jobs_left}
    round_no = 0

    while jobs_left:
        round_no += 1
        if round_no > 1:
            _sleep_backoff(retry_backoff, round_no - 1)
        workers = min(jobs, len(jobs_left))
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(plugins,)
        )
        futures: Dict[Any, str] = {}
        deadlines: Dict[Any, float] = {}
        timed_out: Set[str] = set()
        try:
            for key, indexes in jobs_left.items():
                attempts[key] += 1
                payload = {
                    "spec": specs[indexes[0]].describe(),
                    "check_invariants": check_invariants,
                    "checkpoint_every": checkpoint_every,
                    "checkpoint_dir": ckpt_dir(key),
                    "audit": audit,
                    "journal_dir": (
                        str(journal_root.root) if journal_root is not None else None
                    ),
                    "heartbeat_interval": heartbeat_interval,
                    "attempt": attempts[key],
                }
                fut = pool.submit(_execute_payload, payload)
                futures[fut] = key
                if job_timeout is not None:
                    deadlines[fut] = time.monotonic() + job_timeout
            remaining = set(futures)
            while remaining:
                if job_timeout is not None:
                    tick = max(
                        0.05,
                        min(deadlines[f] for f in remaining) - time.monotonic(),
                    )
                    finished, remaining = wait(
                        remaining, timeout=tick, return_when=FIRST_COMPLETED
                    )
                    if not finished:
                        now = time.monotonic()
                        overdue = {f for f in remaining if deadlines[f] <= now}
                        if overdue:
                            timed_out.update(futures[f] for f in overdue)
                            # No per-task cancel exists: kill the workers.
                            # The pool breaks; the except-clause below
                            # settles the books.
                            _kill_pool_processes(pool)
                        continue
                else:
                    finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for fut in finished:
                    key = futures[fut]
                    try:
                        result = SimResult.from_dict(fut.result())
                    except BrokenExecutor:
                        raise  # the whole pool is gone, not just this job
                    except Exception as exc:
                        if attempts[key] > retries or isinstance(exc, AuditViolation):
                            fail(jobs_left.pop(key), _describe_error(exc), attempts[key])
                        else:
                            # Stays in jobs_left for the next round.
                            _retry_diag(
                                writer, key, attempts[key], _describe_error(exc)
                            )
                    else:
                        finish(jobs_left.pop(key), result, attempts[key])
        except BrokenExecutor:
            # The pool died mid-round — either we killed it to preempt a
            # timed-out job, or a worker crashed / was externally killed.
            unfinished = [key for key in futures.values() if key in jobs_left]
            if timed_out:
                # We initiated the kill: the timed-out jobs own the
                # failure; innocent in-flight jobs get their attempt back.
                for key in unfinished:
                    if key in timed_out:
                        if attempts[key] > retries:
                            fail(
                                jobs_left.pop(key),
                                f"TimeoutError: job exceeded job_timeout={job_timeout}s",
                                attempts[key],
                            )
                        else:
                            _retry_diag(
                                writer,
                                key,
                                attempts[key],
                                f"TimeoutError: exceeded job_timeout={job_timeout}s",
                            )
                    else:
                        attempts[key] -= 1
            else:
                # External death: no way to tell whose worker died, so the
                # attempt is charged to every unfinished job (retries stay
                # bounded either way).
                for key in unfinished:
                    if attempts[key] > retries:
                        fail(
                            jobs_left.pop(key),
                            "BrokenProcessPool: worker died (crash or external kill)",
                            attempts[key],
                        )
                    else:
                        _retry_diag(
                            writer,
                            key,
                            attempts[key],
                            "BrokenProcessPool: worker died (crash or external kill)",
                        )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)


def results_of(
    outcomes: Sequence[RunOutcome], what: str, error: type = RuntimeError
) -> List[SimResult]:
    """Unwrap outcomes into results, raising ``error`` that names every
    terminally-failed job — a grid with holes would silently misalign
    its columns.  ``what`` prefixes the message (``"sweep jobs"``)."""
    bad = [o for o in outcomes if not o.ok]
    if bad:
        raise error(
            f"{what} failed terminally: "
            + "; ".join(f"{o.spec.job_id()}: {o.error}" for o in bad)
        )
    return [o.result for o in outcomes]

