"""Fleet telemetry consumer surfaces — CampaignStatus reconstruction and
its fleet metrics, the status/tail renderers and the
``repro status`` / ``repro tail`` CLI — plus the observability
satellites: the profile section of SimResult.to_dict() and the
context-manager / idempotence guarantees of the single-run layer.
"""

import json

import pytest

import tests.exec_plugins  # noqa: F401  (registers the misbehaving kinds)
from repro.cli import main
from repro.obs import (
    CampaignStatus,
    JsonlSink,
    Telemetry,
    Tracer,
    campaign_status,
    render_status,
    render_tail,
)
from repro.obs.status import _percentile, _summary
from repro.runner import ResultCache, RunSpec, run_specs
from repro.sim.config import SimConfig, TelemetryConfig
from repro.sim.engine import Simulator

TINY = dict(
    k=4,
    warmup_cycles=20,
    measure_cycles=60,
    drain_cycles=200,
    offered_load=0.15,
    seed=3,
)


def tiny(**kw):
    return SimConfig(**{**TINY, **kw})


def synthetic_events():
    """A hand-built campaign: one clean job, one retried job, one cache
    hit, one failure — in merged order."""
    mk = lambda i, event, **f: {"v": 1, "ts": float(i), "src": "t", "seq": i,
                                "event": event, **f}
    return [
        mk(0, "campaign", total_specs=4, jobs=2),
        mk(1, "job_submitted", job="a", design="dxbar_dor", pattern="UR",
           load=0.2, tag="a"),
        mk(2, "job_submitted", job="b", design="buffered4", pattern="TR",
           load=0.4, tag="b"),
        mk(3, "job_submitted", job="c"),
        mk(4, "cache_hit", job="c"),
        mk(5, "job_submitted", job="d"),
        mk(6, "job_started", job="a", attempt=1, pid=1, cycle=0),
        mk(7, "heartbeat", job="a", cycle=50, horizon=100, phase="measure",
           injected=10, ejected=5, cps=1000.0, eta_s=0.05),
        mk(8, "job_started", job="b", attempt=1, pid=2, cycle=0),
        mk(9, "heartbeat", job="b", cycle=10, horizon=100, phase="warmup",
           cps=500.0),
        mk(10, "retry", job="b", attempt=1, error="RuntimeError: boom"),
        mk(11, "job_started", job="b", attempt=2, pid=3, cycle=0),
        mk(12, "checkpointed", job="b", cycle=50, path="x"),
        mk(13, "completed", job="a", attempts=1, cycles=120),
        mk(14, "job_started", job="d", attempt=1, pid=4, cycle=0),
        mk(15, "failed", job="d", attempts=3, error="ValueError: nope"),
    ]


# ----------------------------------------------------------------------
# fleet metrics
# ----------------------------------------------------------------------
class TestFleetMetrics:
    def test_histogram_percentiles(self):
        ordered = [float(v) for v in range(1, 101)]
        assert _percentile(ordered, 0) == 1.0
        assert _percentile(ordered, 50) == pytest.approx(50.0, abs=1)
        assert _percentile(ordered, 100) == 100.0
        assert _summary([]) == {"count": 0}
        beats = [{"event": "heartbeat", "job": "a", "cps": float(v)}
                 for v in reversed(ordered)]
        cps = CampaignStatus.from_events(beats).metrics()["histograms"]
        assert cps["cycles_per_sec"] == {"count": 100, "mean": 50.5,
                                         "min": 1.0, "p50": 51.0,
                                         "p90": 90.0, "max": 100.0}

    def test_no_events_metrics(self):
        snap = CampaignStatus().metrics()
        assert snap == {
            "counters": {"cache_hits": 0, "job_attempts": 0,
                         "jobs_submitted": 0, "retries": 0},
            "gauges": {"cache_hit_rate": 0.0, "jobs_running": 0,
                       "queue_depth": 0, "retry_rate": 0.0},
            "histograms": {},
        }

    def test_fleet_metrics_from_events(self):
        snap = CampaignStatus.from_events(synthetic_events()).metrics()
        c = snap["counters"]
        assert c["jobs_submitted"] == 4
        assert c["job_attempts"] == 4  # a:1, b:2, d:1
        assert c["retries"] == 1
        assert c["cache_hits"] == 1
        assert c["jobs_completed"] == 1
        assert c["jobs_failed"] == 1
        assert c["heartbeats"] == 2
        assert c["checkpoints"] == 1
        g = snap["gauges"]
        assert g["jobs_running"] == 1  # b is still mid-retry
        assert g["queue_depth"] == 0
        assert g["retry_rate"] == pytest.approx(0.25)
        assert g["cache_hit_rate"] == pytest.approx(0.25)
        cps = snap["histograms"]["cycles_per_sec"]
        assert cps["count"] == 2 and cps["max"] == 1000.0


# ----------------------------------------------------------------------
# campaign status
# ----------------------------------------------------------------------
class TestCampaignStatus:
    def test_reconstruction(self):
        st = CampaignStatus.from_events(synthetic_events())
        assert st.total_specs == 4 and st.workers == 2
        assert st.events_seen == 16
        a, b, c, d = (st.jobs[k] for k in "abcd")
        assert a.state == "completed" and a.attempts == 1 and a.cycle == 120
        assert a.design == "dxbar_dor" and a.load == 0.2
        assert b.state == "running" and b.attempts == 2 and b.retries == 1
        assert b.checkpoints == 1 and b.heartbeats == 1
        assert c.state == "cached"
        assert d.state == "failed" and d.error == "ValueError: nope"
        counts = st.counts()
        assert counts == {"running": 1, "retrying": 0, "queued": 0,
                          "completed": 1, "cached": 1, "failed": 1}
        assert not st.finished  # b still running
        assert st.elapsed_s == 15.0

    def test_finished_and_progress(self):
        st = CampaignStatus.from_events(synthetic_events())
        st.apply({"event": "completed", "job": "b", "attempts": 2, "ts": 16.0})
        assert st.finished
        assert st.jobs["b"].progress == 1.0
        # round-trips to JSON
        payload = json.loads(json.dumps(st.to_dict()))
        assert payload["counts"]["completed"] == 2

    def test_mid_run_progress_fraction(self):
        # Replay up to b's first heartbeat: 10/100 cycles done.
        st = CampaignStatus.from_events(synthetic_events()[:10])
        assert st.jobs["b"].progress == pytest.approx(0.1)
        # After the retry restarts b at cycle 0, progress resets too.
        st = CampaignStatus.from_events(synthetic_events())
        assert st.jobs["b"].progress == 0.0

    def test_renderers(self):
        events = synthetic_events()
        st = CampaignStatus.from_events(events)
        text = render_status(st)
        assert "4 jobs" in text
        assert "1 running, 1 completed, 1 cached, 1 failed" in text
        assert "retries 1" in text and "cache hits 1" in text
        assert "cycles/sec" in text
        assert "ValueError: nope" in text
        tail = render_tail(st, events, now=20.0)
        assert "recent events:" in tail
        assert "heartbeat" not in tail  # heartbeats are filtered from recent
        assert "retry" in tail

    def test_campaign_status_accepts_events_or_path(self, tmp_path):
        events = synthetic_events()
        assert campaign_status(events).events_seen == len(events)
        shard = tmp_path / "j" / "t.jsonl"
        shard.parent.mkdir()
        shard.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert campaign_status(tmp_path / "j").events_seen == len(events)


# ----------------------------------------------------------------------
# golden status surface: the exact ``repro status`` / ``tail`` output
# ----------------------------------------------------------------------
GOLDEN_JOB = {"job": "", "design": "", "pattern": "", "load": None, "tag": "",
              "state": "", "attempts": 0, "retries": 0, "heartbeats": 0,
              "checkpoints": 0, "cycle": 0, "horizon": 0, "phase": "",
              "cps": None, "eta_s": None, "error": None}

GOLDEN_STATUS = {
    "campaign": {
        "total_specs": 4,
        "workers": 2,
        "jobs": [
            {**GOLDEN_JOB, "job": "a", "design": "dxbar_dor", "pattern": "UR",
             "load": 0.2, "tag": "a", "state": "completed", "attempts": 1,
             "heartbeats": 1, "cycle": 120, "horizon": 100,
             "phase": "measure", "cps": 1000.0, "eta_s": 0.05},
            {**GOLDEN_JOB, "job": "b", "design": "buffered4", "pattern": "TR",
             "load": 0.4, "tag": "b", "state": "running", "attempts": 2,
             "retries": 1, "heartbeats": 1, "checkpoints": 1, "horizon": 100,
             "phase": "warmup", "cps": 500.0, "error": "RuntimeError: boom"},
            {**GOLDEN_JOB, "job": "c", "state": "cached"},
            {**GOLDEN_JOB, "job": "d", "state": "failed", "attempts": 3,
             "error": "ValueError: nope"},
        ],
        "counts": {"running": 1, "retrying": 0, "queued": 0, "completed": 1,
                   "cached": 1, "failed": 1},
        "finished": False,
        "elapsed_s": 15.0,
        "events_seen": 16,
    },
    "metrics": {
        "counters": {"cache_hits": 1, "checkpoints": 1, "heartbeats": 2,
                     "job_attempts": 4, "jobs_completed": 1, "jobs_failed": 1,
                     "jobs_submitted": 4, "retries": 1},
        "gauges": {"cache_hit_rate": 0.25, "jobs_running": 1,
                   "queue_depth": 0, "retry_rate": 0.25},
        "histograms": {"cycles_per_sec": {"count": 2, "mean": 750.0,
                                          "min": 500.0, "p50": 500.0,
                                          "p90": 1000.0, "max": 1000.0}},
    },
}

GOLDEN_TEXT = """\
4 jobs: 1 running, 1 completed, 1 cached, 1 failed | elapsed 15.0s
attempts 4 | retries 1 (rate 25%) | cache hits 1 (rate 25%) | checkpoints 1 | audit violations 0
cycles/sec: p50 500  p90 1,000  mean 750 (2 heartbeats)

job  label  state      att  progress    c/s    eta  detail            
---  -----  ---------  ---  ----------  -----  ---  ------------------
b    b      running    2    0/100 (0%)  500    -    RuntimeError: boom
a    a      completed  1    120 cyc     1,000  -    measure           
c    -      cached     0    cache       -      -                      
d    -      failed     3    100%        -      -    ValueError: nope  
"""

GOLDEN_TAIL = """\
4 jobs: 1 running, 1 completed, 1 cached, 1 failed | elapsed 15.0s
  b  b                running  0/100 (0%) @ 500 c/s (8s ago)
recent events:
  cache_hit       c
  job_submitted   d
  job_started     a
  job_started     b
  retry           b            RuntimeError: boom
  job_started     b
  checkpointed    b
  completed       a
  job_started     d
  failed          d            ValueError: nope"""


def write_journal(root, events):
    root.mkdir()
    (root / "t.jsonl").write_text("".join(json.dumps(e) + "\n" for e in events))
    return root


class TestStatusGolden:
    """``repro status`` (text and ``--json``) and ``render_tail`` for
    :func:`synthetic_events`, pinned byte for byte."""

    def test_status_json(self, tmp_path, capsys):
        journal = write_journal(tmp_path / "j", synthetic_events())
        assert main(["status", str(journal), "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(GOLDEN_STATUS) + "\n"

    def test_status_text(self, tmp_path, capsys):
        journal = write_journal(tmp_path / "j", synthetic_events())
        assert main(["status", str(journal)]) == 0
        assert capsys.readouterr().out == GOLDEN_TEXT

    def test_tail_text(self):
        events = synthetic_events()
        st = CampaignStatus.from_events(events)
        assert render_tail(st, events, now=20.0) == GOLDEN_TAIL

    def test_side_records_do_not_enter_the_gauges(self, tmp_path, capsys):
        """A job seen only in ``checkpointed``/``audit_violation`` records
        is listed, but is neither running nor queued; campaign-level
        records and job-less heartbeats still count."""
        mk = lambda i, event, **f: {"v": 1, "ts": 100.0 + i, "src": "t",
                                    "seq": 100 + i, "event": event, **f}
        events = synthetic_events() + [
            mk(0, "checkpointed", job="e", cycle=10, path="y"),
            mk(1, "audit_violation", job="f", check="credit", message="lost"),
            mk(2, "cache_quarantine", file="x.json", quarantined="x.corrupt"),
            mk(3, "heartbeat", cps=250.0),
            mk(4, "job_submitted", job="g"),
        ]
        journal = write_journal(tmp_path / "j", events)
        assert main(["status", str(journal), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        states = {j["job"]: j["state"] for j in payload["campaign"]["jobs"]}
        assert states["e"] == states["f"] == states["g"] == "queued"
        assert payload["campaign"]["counts"]["queued"] == 3
        metrics = payload["metrics"]
        assert metrics["gauges"] == {"cache_hit_rate": 0.2, "jobs_running": 1,
                                     "queue_depth": 1, "retry_rate": 0.25}
        assert metrics["counters"] == {
            "audit_violations": 1, "cache_hits": 1, "cache_quarantines": 1,
            "checkpoints": 2, "heartbeats": 3, "job_attempts": 4,
            "jobs_completed": 1, "jobs_failed": 1, "jobs_submitted": 5,
            "retries": 1,
        }
        assert metrics["histograms"]["cycles_per_sec"] == {
            "count": 3, "mean": 1750.0 / 3, "min": 250.0, "p50": 500.0,
            "p90": 1000.0, "max": 1000.0}


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
class TestCli:
    RUN = ["--design", "dxbar_dor", "--k", "4", "--warmup", "20",
           "--measure", "60", "--drain", "200", "--load", "0.15"]

    def test_run_journal_then_status(self, tmp_path, capsys):
        assert main(["run", *self.RUN, "--journal", str(tmp_path / "j")]) == 0
        capsys.readouterr()
        assert main(["status", str(tmp_path / "j")]) == 0
        out = capsys.readouterr().out
        assert "1 completed" in out
        assert "dxbar_dor" in out

    def test_status_json(self, tmp_path, capsys):
        main(["run", *self.RUN, "--journal", str(tmp_path / "j")])
        capsys.readouterr()
        assert main(["status", str(tmp_path / "j"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaign"]["counts"]["completed"] == 1
        assert payload["metrics"]["counters"]["heartbeats"] >= 1
        assert payload["campaign"]["finished"] is True

    def test_tail_one_shot(self, tmp_path, capsys):
        main(["run", *self.RUN, "--journal", str(tmp_path / "j")])
        capsys.readouterr()
        assert main(["tail", str(tmp_path / "j")]) == 0
        out = capsys.readouterr().out
        assert "recent events:" in out and "completed" in out

    def test_status_missing_journal(self, tmp_path, capsys):
        assert main(["status", str(tmp_path / "nope")]) == 1
        assert "no journal" in capsys.readouterr().err

    def test_tail_missing_journal(self, tmp_path, capsys):
        assert main(["tail", str(tmp_path / "nope")]) == 1

    def test_sweep_journal(self, tmp_path, capsys):
        assert main([
            "sweep", "--k", "4", "--warmup", "20", "--measure", "60",
            "--drain", "200", "--designs", "dxbar_dor", "--loads", "0.1",
            "0.2", "--journal", str(tmp_path / "j"), "--json",
        ]) == 0
        capsys.readouterr()
        assert main(["status", str(tmp_path / "j")]) == 0
        assert "2 completed" in capsys.readouterr().out


# ----------------------------------------------------------------------
# satellites: profile surfacing + single-run layer hygiene
# ----------------------------------------------------------------------
class TestProfileSection:
    def test_result_to_dict_gains_profile(self):
        cfg = tiny(telemetry=TelemetryConfig(profile=True))
        result = Simulator(cfg).run()
        d = result.to_dict()
        assert set(d["profile"]) == {"workload.tick", "network.step",
                                     "stats.finalize"}
        for row in d["profile"].values():
            assert row["seconds"] >= 0 and row["calls"] >= 1
        assert d["profile"] == result.extra["profile"]
        shares = [row["share"] for row in d["profile"].values()]
        assert sum(shares) == pytest.approx(1.0)

    def test_unprofiled_result_has_no_profile_key(self):
        d = Simulator(tiny()).run().to_dict()
        assert "profile" not in d

    def test_cli_json_includes_profile(self, capsys):
        assert main(["run", *TestCli.RUN, "--profile", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "network.step" in payload["profile"]

    def test_profiler_to_dict_matches_report(self):
        from repro.obs import PhaseProfiler

        prof = PhaseProfiler()
        prof.add("a", 0.75)
        prof.add("b", 0.25)
        assert prof.to_dict() == prof.report()
        assert prof.to_dict()["a"]["share"] == pytest.approx(0.75)


class TestTelemetryHygiene:
    def test_jsonl_sink_context_manager_flushes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError):
            with JsonlSink(str(path)) as sink:
                sink.write({"event": "inject", "cycle": 1, "node": 0})
                raise RuntimeError("mid-run death")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1  # the record survived the exception

    def test_tracer_context_manager(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(JsonlSink(str(path))) as tracer:
            tracer.emit(1, "inject", 0)
        assert tracer.sink._fh.closed

    def test_finish_idempotent(self, tmp_path):
        cfg = tiny(telemetry=TelemetryConfig(
            metrics_interval=20, metrics_path=str(tmp_path / "m.json")))
        sim = Simulator(cfg)
        result = sim.run()
        # run() already finished; defensive second/third calls are no-ops
        sim.telemetry.finish(sim.network, result.final_cycle)
        sim.telemetry.finish(sim.network, result.final_cycle)
        frame = json.loads((tmp_path / "m.json").read_text())
        assert frame  # a single coherent metrics frame was written

    def test_load_state_dict_rearms_finish(self):
        t = Telemetry.disabled()
        t.finish(None, 0)
        assert t._finished
        t.load_state_dict({"metrics": None})
        assert not t._finished  # a resumed run must be able to finish again

    def test_telemetry_close_context_manager(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Telemetry(trace=Tracer(JsonlSink(str(path)))) as t:
            t.trace.emit(1, "inject", 0)
        assert t._finished and t.trace.sink._fh.closed

    def test_mid_run_exception_still_flushes_trace(self, tmp_path):
        """The engine's finish-on-exception hook: a workload that dies
        mid-run must not strand the trace records emitted before it."""
        import tests.exec_plugins as plugins

        trace_path = tmp_path / "trace.jsonl"
        cfg = tiny(telemetry=TelemetryConfig(trace_path=str(trace_path)))
        workload = plugins._crash_always(
            {"flag": str(tmp_path / "f"), "crash_cycle": 40}, cfg
        )
        sim = Simulator(cfg, workload=workload)
        with pytest.raises(RuntimeError, match="injected crash"):
            sim.run()
        assert sim.telemetry._finished
        records = [json.loads(x) for x in
                   trace_path.read_text().strip().splitlines()]
        assert records and all("event" in r for r in records)


class TestCacheQuarantineEvent:
    def test_quarantine_emits_journal_event(self, tmp_path):
        from repro.obs.journal import EV_CACHE_QUARANTINE, merge_journal

        spec = RunSpec(tiny())
        cache = ResultCache(tmp_path / "cache")
        run_specs([spec], cache=cache)
        # Corrupt the entry on disk, then re-run with a journal attached.
        entry = tmp_path / "cache" / f"{spec.job_id()}.json"
        entry.write_text('{"truncated')
        fresh = ResultCache(tmp_path / "cache")
        out = run_specs([spec], cache=fresh, journal=tmp_path / "j")[0]
        assert out.ok and not out.cached
        quarantines = [e for e in merge_journal(tmp_path / "j")
                       if e["event"] == EV_CACHE_QUARANTINE]
        assert len(quarantines) == 1
        assert quarantines[0]["file"] == entry.name
        assert entry.with_name(entry.name + ".corrupt").exists()
