"""Span tracing around the public functions of each ``repro`` layer.

The benchmark's traced run calls :func:`install` after ``import repro``.
It replaces selected functions and methods of the program with wrappers
that time every call; the program itself carries no tracing code.

A span has a name, start and end (``time.perf_counter``, which is
``CLOCK_MONOTONIC`` on Linux and so comparable across processes), a
parent span and the run id.  Coarse spans (one per job, per cache lookup,
per journal event, ...) are kept as records.  Hot spans (one per router
step, per link step, per cycle) are only folded into per-name
aggregates -- count, total time and self time -- so that tracing a run of
millions of router steps needs no memory per call.  Self time is a span's
duration minus the time covered by its child spans.

Process-pool workers are forked from the driver and leave through
``os._exit``, so nothing registered with ``atexit`` runs there.  A fork
hook clears the inherited state in the child, and the wrapper around the
executor's worker entry point rewrites ``worker-<pid>.json`` after every
job; :func:`collect` merges those files into the driver's own data.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Spans, aggregates and counters of one process."""

    def __init__(self, run_id: str, out_dir: Path, jobs: int) -> None:
        self.run_id = run_id
        self.out_dir = Path(out_dir)
        self.jobs = jobs  # pool size, the base of executor.pool_idle_frac
        self.remote_parent: Optional[Tuple[int, int]] = None
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        # Open frames: [name, span id or -1 for hot spans, start, child time].
        self.stack: List[list] = []
        self.spans: List[Dict[str, Any]] = []
        # name -> [count, total seconds, self seconds]
        self.agg: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self._next_id = 0

    def after_fork_in_child(self) -> None:
        """Forget the parent's data; remember which driver span forked us."""
        parent = next((f[1] for f in reversed(self.stack) if f[1] >= 0), None)
        ppid = self.pid
        self._reset()
        self.remote_parent = (ppid, parent) if parent is not None else None

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        record: bool = True,
        on_return: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``.  A call that re-enters the same
        span name directly (a subclass method calling ``super()``) is
        folded into the outer span instead of being counted twice."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer.stack
            if st and st[-1][0] == name:
                return fn(*args, **kwargs)
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = -1
            frame = [name, span_id, 0.0, 0.0]
            st.append(frame)
            t0 = frame[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.pop()
                dur = t1 - t0
                if st:
                    st[-1][3] += dur
                entry = tracer.agg.get(name)
                if entry is None:
                    entry = tracer.agg[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[3]
                if record:
                    parent = next((f[1] for f in reversed(st) if f[1] >= 0), None)
                    tracer.spans.append({
                        "name": name,
                        "id": span_id,
                        "pid": tracer.pid,
                        "parent": parent,
                        "remote_parent": tracer.remote_parent if parent is None else None,
                        "start": t0,
                        "end": t1,
                        "run": tracer.run_id,
                    })
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        return traced

    def dump(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "run": self.run_id,
            "remote_parent": self.remote_parent,
            "spans": self.spans,
            "agg": self.agg,
            "counters": self.counters,
        }

    def flush_worker(self) -> None:
        """Atomically rewrite this worker's span file (called after every job)."""
        path = self.out_dir / f"worker-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.dump()))
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# instrumentation
# ----------------------------------------------------------------------
def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` (the
    defining module and every ``from ... import`` site) at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(tracer: Tracer, module, attr: str, name: str, **kw) -> None:
    original = getattr(module, attr)
    _rebind(original, tracer.wrap(name, original, **kw))


def _patch_method(tracer: Tracer, cls, attr: str, name: str, **kw) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, tracer.wrap(name, original, **kw))


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def install(run_id: str, out_dir: Path, jobs: int) -> Tracer:
    """Wrap the layer boundaries of an imported ``repro`` and return the
    driver's tracer."""
    import repro.designs  # noqa: F401  registers every router class
    from repro.analysis import reliability
    from repro.campaign.spec import CampaignSpec
    from repro.obs.journal import JournalWriter
    from repro.routers.base import BaseRouter
    from repro.runner import cache as cache_mod
    from repro.runner import executor, saturation
    from repro.sim import link, stats
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.sim.vector.base import VectorNetwork
    from repro.sim.vector.batch import VectorBatchRunner
    from repro.traffic import splash2
    from repro.traffic.generator import Workload

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(run_id, out_dir, jobs)
    os.register_at_fork(after_in_child=tracer.after_fork_in_child)

    # campaign + sim.vector.batch
    def _jobs_done(t, args, result):
        t.counters["campaign.jobs"] = max(t.counters.get("campaign.jobs", 0), len(result))

    _patch_method(tracer, CampaignSpec, "jobs", "campaign.expand", on_return=_jobs_done)
    _patch_method(
        tracer, VectorBatchRunner, "run", "batch.run",
        on_return=lambda t, args, result: t.count("batch.sims", len(result)),
    )

    # runner.executor
    _patch_function(tracer, executor, "run_specs", "executor.run_specs")
    _patch_function(tracer, executor, "execute_spec", "executor.job")
    _patch_function(
        tracer, executor, "_retry_diag", "executor.retry",
        on_return=lambda t, args, result: t.count("executor.retries"),
    )
    # The worker entry point: a forked worker flushes its spans after every job.
    _patch_function(
        tracer, executor, "_execute_payload", "executor.payload",
        on_return=lambda t, args, result: t.flush_worker(),
    )
    pool = executor.ProcessPoolExecutor

    class TracedPool(pool):
        # Pool construction, submit (which forks the workers) and shutdown.
        __init__ = tracer.wrap(
            "executor.dispatch", pool.__init__,
            on_return=lambda t, args, result: t.count("executor.pool_starts"),
        )
        submit = tracer.wrap("executor.dispatch", pool.submit)
        shutdown = tracer.wrap("executor.dispatch", pool.shutdown)

    executor.ProcessPoolExecutor = TracedPool

    # runner.cache
    def _got(t, args, result):
        if result is not None:
            t.count("cache.hits")

    _patch_method(tracer, cache_mod.ResultCache, "get", "cache.get", on_return=_got)
    _patch_method(tracer, cache_mod.ResultCache, "put", "cache.put")

    # runner.saturation
    def _searched(t, args, result):
        t.count("saturation.rounds", result.rounds)
        t.count("saturation.probes_executed", result.probes_executed)

    _patch_function(
        tracer, saturation, "run_saturation", "saturation.run", on_return=_searched
    )

    # analysis.reliability, obs.journal
    _patch_function(tracer, reliability, "build_report", "reliability.report")
    _patch_method(tracer, JournalWriter, "write", "journal.write")

    # sim.engine, sim.stats
    _patch_method(tracer, Simulator, "__init__", "engine.init")
    _patch_method(tracer, Simulator, "run", "engine.run")
    _patch_method(tracer, stats.StatsCollector, "result", "stats.result")

    # traffic: every workload's tick, plus trace generation
    for cls in _subclasses(Workload):
        if "tick" in cls.__dict__:
            _patch_method(tracer, cls, "tick", "traffic.tick", record=False)
    _patch_function(tracer, splash2, "generate_app_trace", "traffic.trace_gen")

    # sim.network + sim.link, object routers, sim.vector
    _patch_method(tracer, Network, "step", "network.step", record=False)
    _patch_method(tracer, link.Link, "step", "link.step", record=False)
    _patch_method(tracer, link.CreditChannel, "step", "link.step", record=False)
    for cls in _subclasses(BaseRouter):
        if "step" in cls.__dict__:
            _patch_method(tracer, cls, "step", "router.step", record=False)
        if "latch" in cls.__dict__:
            _patch_method(tracer, cls, "latch", "router.latch", record=False)
    for cls in _subclasses(VectorNetwork):
        if "step" in cls.__dict__:
            _patch_method(tracer, cls, "step", "vector.step", record=False)
    return tracer


# ----------------------------------------------------------------------
# collection
# ----------------------------------------------------------------------
#: Per-layer metrics, in BENCHMARK.json order: name -> unit.
LAYER_METRICS: Dict[str, str] = {
    "campaign.expand_s": "s",
    "campaign.jobs": "count",
    "batch.run_s": "s",
    "batch.sims": "count",
    "executor.calls": "count",
    "executor.driver_s": "s",
    "executor.job_busy_s": "s",
    "executor.pool_starts": "count",
    "executor.dispatch_s": "s",
    "executor.pool_idle_frac": "fraction",
    "executor.jobs_executed": "count",
    "executor.retries": "count",
    "cache.gets": "count",
    "cache.get_s": "s",
    "cache.puts": "count",
    "cache.put_s": "s",
    "cache.hit_ratio": "fraction",
    "saturation.rounds": "count",
    "saturation.probes_executed": "count",
    "reliability.report_s": "s",
    "journal.writes": "count",
    "journal.write_s": "s",
    "engine.sims": "count",
    "engine.init_s": "s",
    "engine.run_s": "s",
    "traffic.ticks": "count",
    "traffic.tick_s": "s",
    "traffic.trace_gen_s": "s",
    "network.steps": "count",
    "network.step_s": "s",
    "network.self_s": "s",
    "link.steps": "count",
    "link.step_s": "s",
    "router.steps": "count",
    "router.step_s": "s",
    "router.latch_s": "s",
    "vector.steps": "count",
    "vector.step_s": "s",
    "stats.result_s": "s",
}


def collect(tracer: Tracer) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """Merge the driver's data with every worker file; return the
    per-layer metrics and all span records."""
    dumps = [tracer.dump()]
    for path in sorted(tracer.out_dir.glob("worker-*.json")):
        dumps.append(json.loads(path.read_text()))
    agg: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    spans: List[Dict[str, Any]] = []
    driver_pid = tracer.pid
    worker_busy = 0.0
    for d in dumps:
        for name, (n, total, self_s) in d["agg"].items():
            e = agg.setdefault(name, [0, 0.0, 0.0])
            e[0] += n
            e[1] += total
            e[2] += self_s
        for name, value in d["counters"].items():
            if name == "campaign.jobs":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        if d["pid"] != driver_pid:
            worker_busy += d["agg"].get("executor.job", [0, 0.0, 0.0])[1]
        spans.extend(d["spans"])

    def n(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return agg.get(name, [0, 0.0, 0.0])[1]

    def self_time(name):
        return agg.get(name, [0, 0.0, 0.0])[2]

    driver_s = total("executor.run_specs")
    gets = n("cache.get")
    m = {
        "campaign.expand_s": total("campaign.expand"),
        "campaign.jobs": counters.get("campaign.jobs", 0),
        "batch.run_s": total("batch.run"),
        "batch.sims": counters.get("batch.sims", 0),
        "executor.calls": n("executor.run_specs"),
        "executor.driver_s": driver_s,
        "executor.job_busy_s": total("executor.job"),
        "executor.pool_starts": counters.get("executor.pool_starts", 0),
        "executor.dispatch_s": total("executor.dispatch"),
        "executor.pool_idle_frac": (
            max(0.0, 1.0 - worker_busy / (tracer.jobs * driver_s)) if driver_s > 0 else 0.0
        ),
        "executor.jobs_executed": n("executor.job"),
        "executor.retries": counters.get("executor.retries", 0),
        "cache.gets": gets,
        "cache.get_s": total("cache.get"),
        "cache.puts": n("cache.put"),
        "cache.put_s": total("cache.put"),
        "cache.hit_ratio": counters.get("cache.hits", 0) / gets if gets else 0.0,
        "saturation.rounds": counters.get("saturation.rounds", 0),
        "saturation.probes_executed": counters.get("saturation.probes_executed", 0),
        "reliability.report_s": total("reliability.report"),
        "journal.writes": n("journal.write"),
        "journal.write_s": total("journal.write"),
        "engine.sims": n("engine.init"),
        "engine.init_s": total("engine.init"),
        "engine.run_s": total("engine.run"),
        "traffic.ticks": n("traffic.tick"),
        "traffic.tick_s": total("traffic.tick"),
        "traffic.trace_gen_s": total("traffic.trace_gen"),
        "network.steps": n("network.step"),
        "network.step_s": total("network.step"),
        "network.self_s": self_time("network.step"),
        "link.steps": n("link.step"),
        "link.step_s": total("link.step"),
        "router.steps": n("router.step"),
        "router.step_s": total("router.step"),
        "router.latch_s": total("router.latch"),
        "vector.steps": n("vector.step"),
        "vector.step_s": total("vector.step"),
        "stats.result_s": total("stats.result"),
    }
    return m, spans
