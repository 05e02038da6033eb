"""Fleet run journal: shard writers/readers, merge ordering, crash
tolerance, the lifecycle events emitted through run_specs (serial and
process-parallel), and the journal's pure-observer guarantee.

The consumer surfaces (CampaignStatus and its metrics / repro status)
are covered in test_fleet_status.py.
"""

import json

import pytest

import tests.exec_plugins  # noqa: F401  (registers the misbehaving kinds)
from repro.obs.journal import (
    EV_CACHE_HIT,
    EV_CAMPAIGN,
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
    journal_shards,
    merge_journal,
    read_journal_shard,
)
from repro.runner import ResultCache, RunSpec, run_specs
from repro.sim.config import SimConfig

PLUGINS = ("tests.exec_plugins",)

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


def events_of(path, event=None):
    evs = merge_journal(path)
    if event is None:
        return evs
    return [e for e in evs if e["event"] == event]


def job_events(events, job_id):
    return [e["event"] for e in events if e.get("job") == job_id]


def assert_lifecycle(events, job_id, terminal=EV_COMPLETED):
    """Every journaled job must tell a consistent story: submitted, then
    at least one started attempt, at least one heartbeat, one terminal."""
    seq = job_events(events, job_id)
    assert seq[0] == EV_JOB_SUBMITTED
    assert seq.count(EV_JOB_SUBMITTED) >= 1
    assert seq.index(EV_JOB_STARTED) > seq.index(EV_JOB_SUBMITTED)
    assert seq.count(EV_HEARTBEAT) >= 1
    assert seq[-1] == terminal
    assert seq.count(terminal) == 1


# ----------------------------------------------------------------------
# writer / reader mechanics
# ----------------------------------------------------------------------
class TestShards:
    def test_writer_record_schema(self, tmp_path):
        with JournalWriter(tmp_path / "w.jsonl", source="w") as w:
            rec = w.write("job_submitted", job="j1", design="dxbar_dor")
        assert rec["v"] == JOURNAL_SCHEMA_VERSION
        assert rec["src"] == "w" and rec["seq"] == 0
        assert rec["event"] in JOURNAL_EVENTS
        events, bad = read_journal_shard(tmp_path / "w.jsonl", strict=True)
        assert bad == 0 and events == [rec]

    def test_seq_and_ts_monotone_per_shard(self, tmp_path):
        clock = iter([100.0, 99.0, 101.0])  # clock steps backwards mid-shard
        w = JournalWriter(tmp_path / "w.jsonl")
        import repro.obs.journal as jr

        orig = jr.time.time
        jr.time.time = lambda: next(clock)
        try:
            recs = [w.write("heartbeat") for _ in range(3)]
        finally:
            jr.time.time = orig
            w.close()
        assert [r["seq"] for r in recs] == [0, 1, 2]
        ts = [r["ts"] for r in recs]
        assert ts == sorted(ts)  # forced monotone despite the step-back

    def test_torn_final_line_is_tolerated(self, tmp_path):
        """A SIGKILLed writer leaves at most one torn trailing line; the
        reader skips it rather than poisoning the shard."""
        shard = tmp_path / "worker-1.jsonl"
        with JournalWriter(shard, source="worker-1") as w:
            w.write("job_started", job="a")
            w.write("heartbeat", job="a", cycle=10)
        with open(shard, "a", encoding="utf-8") as fh:
            fh.write('{"v":1,"ts":123.0,"src":"worker-1","seq":2,"ev')  # torn
        events, bad = read_journal_shard(shard)
        assert bad == 1
        assert [e["event"] for e in events] == ["job_started", "heartbeat"]
        with pytest.raises(json.JSONDecodeError):
            read_journal_shard(shard, strict=True)
        # merge_journal over the directory also survives it
        assert len(merge_journal(tmp_path)) == 2

    def test_non_object_line_is_counted_bad(self, tmp_path):
        shard = tmp_path / "s.jsonl"
        shard.write_text('["not","an","object"]\n{"event":"ok"}\n')
        events, bad = read_journal_shard(shard)
        assert bad == 1 and events == [{"event": "ok"}]

    def test_merge_orders_across_shards(self, tmp_path):
        """Merged order is (ts, src, seq): global wall-clock order with a
        deterministic tie-break that preserves each shard's own order."""
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        rows_a = [
            {"v": 1, "ts": 1.0, "src": "a", "seq": 0, "event": "x"},
            {"v": 1, "ts": 3.0, "src": "a", "seq": 1, "event": "y"},
        ]
        rows_b = [
            {"v": 1, "ts": 2.0, "src": "b", "seq": 0, "event": "p"},
            {"v": 1, "ts": 3.0, "src": "b", "seq": 1, "event": "q"},
        ]
        a.write_text("".join(json.dumps(r) + "\n" for r in rows_a))
        b.write_text("".join(json.dumps(r) + "\n" for r in rows_b))
        merged = merge_journal(tmp_path)
        assert [e["event"] for e in merged] == ["x", "p", "y", "q"]
        assert journal_shards(tmp_path) == [a, b]

    def test_append_mode_extends_existing_shard(self, tmp_path):
        with JournalWriter(tmp_path / "w.jsonl") as w:
            w.write("campaign")
        with JournalWriter(tmp_path / "w.jsonl") as w:
            w.write("campaign")
        events, _ = read_journal_shard(tmp_path / "w.jsonl")
        assert len(events) == 2

    def test_as_journal_coercions(self, tmp_path):
        assert as_journal(None) is None
        j = Journal(tmp_path / "j")
        assert as_journal(j) is j
        j2 = as_journal(tmp_path / "j2")
        assert isinstance(j2, Journal) and j2.root.is_dir()
        # Journal is fspath-able, so it nests into path APIs directly.
        assert str(j2.root) == str(j2.__fspath__())


# ----------------------------------------------------------------------
# heartbeat emitter
# ----------------------------------------------------------------------
class FakeStats:
    total_injected_flits = 10
    total_ejected_flits = 4


class TestHeartbeat:
    def make(self, tmp_path, interval, times):
        w = JournalWriter(tmp_path / "w.jsonl", source="w")
        jj = JobJournal(w, "job-a", heartbeat_interval=interval)
        clock = iter(times)
        return w, HeartbeatEmitter(jj, clock=lambda: next(clock))

    def test_first_call_always_beats(self, tmp_path):
        w, hb = self.make(tmp_path, 60.0, [1000.0])
        assert hb.maybe_beat(1, 100, FakeStats(), "warmup") is True
        w.close()
        (rec,), _ = read_journal_shard(w.path)
        assert rec["event"] == EV_HEARTBEAT and rec["job"] == "job-a"
        assert rec["cycle"] == 1 and rec["horizon"] == 100
        assert rec["phase"] == "warmup"
        assert rec["injected"] == 10 and rec["ejected"] == 4
        assert "cps" not in rec  # no rate until a second sample exists

    def test_wall_clock_cadence(self, tmp_path):
        # interval 1.0s; calls at t=0, .2, .4, 1.1, 1.5, 2.2 -> beats at
        # 0, 1.1 and 2.2 only.
        w, hb = self.make(tmp_path, 1.0, [0.0, 0.2, 0.4, 1.1, 1.5, 2.2])
        beats = [hb.maybe_beat(c, 100, FakeStats(), "measure") for c in range(1, 7)]
        w.close()
        assert beats == [True, False, False, True, False, True]
        events, _ = read_journal_shard(w.path)
        assert len(events) == 3

    def test_rate_and_eta_fields(self, tmp_path):
        w, hb = self.make(tmp_path, 1.0, [0.0, 2.0])
        hb.maybe_beat(100, 1000, FakeStats(), "measure")
        hb.maybe_beat(500, 1000, FakeStats(), "measure")
        w.close()
        events, _ = read_journal_shard(w.path)
        second = events[1]
        assert second["cps"] == pytest.approx(200.0)  # 400 cycles / 2 s
        assert second["eta_s"] == pytest.approx(2.5)  # 500 left / 200 cps


# ----------------------------------------------------------------------
# lifecycle through run_specs
# ----------------------------------------------------------------------
class TestRunSpecsLifecycle:
    def test_serial_clean_lifecycle(self, tmp_path):
        spec = RunSpec(tiny())
        out = run_specs([spec], journal=tmp_path / "j")[0]
        assert out.ok
        events = events_of(tmp_path / "j")
        camp = events_of(tmp_path / "j", EV_CAMPAIGN)
        assert camp and camp[0]["total_specs"] == 1
        assert_lifecycle(events, spec.job_id())
        done = events_of(tmp_path / "j", EV_COMPLETED)[0]
        assert done["cycles"] == out.result.final_cycle
        assert done["attempts"] == 1

    def test_cache_hit_event_on_rerun(self, tmp_path):
        spec = RunSpec(tiny())
        cache = ResultCache(tmp_path / "cache")
        run_specs([spec], cache=cache, journal=tmp_path / "j1")
        out = run_specs([spec], cache=cache, journal=tmp_path / "j2")[0]
        assert out.cached
        seq = job_events(events_of(tmp_path / "j2"), spec.job_id())
        assert seq == [EV_JOB_SUBMITTED, EV_CACHE_HIT]
        assert not events_of(tmp_path / "j2", EV_JOB_STARTED)

    def test_serial_retry_events(self, tmp_path):
        spec = RunSpec(
            tiny(), workload={"kind": "crash_once", "flag": str(tmp_path / "f")}
        )
        out = run_specs(
            [spec], retries=2, retry_backoff=0, journal=tmp_path / "j"
        )[0]
        assert out.ok and out.attempts == 2
        events = events_of(tmp_path / "j")
        retry = events_of(tmp_path / "j", EV_RETRY)
        assert len(retry) == 1
        assert retry[0]["job"] == spec.job_id() and retry[0]["attempt"] == 1
        assert "RuntimeError: injected crash" in retry[0]["error"]
        starts = [e for e in events if e["event"] == EV_JOB_STARTED]
        assert [s["attempt"] for s in starts] == [1, 2]
        assert job_events(events, spec.job_id())[-1] == EV_COMPLETED

    def test_terminal_failure_event(self, tmp_path):
        spec = RunSpec(
            tiny(), workload={"kind": "crash_always", "flag": str(tmp_path / "f")}
        )
        out = run_specs(
            [spec], retries=1, retry_backoff=0, journal=tmp_path / "j"
        )[0]
        assert not out.ok
        failed = events_of(tmp_path / "j", EV_FAILED)
        assert len(failed) == 1
        assert failed[0]["job"] == spec.job_id()
        assert failed[0]["attempts"] == 2
        assert "RuntimeError: injected crash" in failed[0]["error"]
        assert not events_of(tmp_path / "j", EV_COMPLETED)

    def test_retry_warns_without_journal(self, tmp_path):
        spec = RunSpec(
            tiny(), workload={"kind": "crash_once", "flag": str(tmp_path / "f")}
        )
        with pytest.warns(RuntimeWarning, match="attempt 1 failed"):
            out = run_specs([spec], retries=2, retry_backoff=0)[0]
        assert out.ok

    def test_parallel_lifecycle_and_worker_shards(self, tmp_path):
        specs = [RunSpec(tiny(seed=s)) for s in (1, 2, 3)]
        out = run_specs(specs, jobs=2, journal=tmp_path / "j", plugins=PLUGINS)
        assert all(o.ok for o in out)
        shard_names = [p.name for p in journal_shards(tmp_path / "j")]
        assert any(n.startswith("driver-") for n in shard_names)
        assert any(n.startswith("worker-") for n in shard_names)
        events = events_of(tmp_path / "j")
        for spec in specs:
            assert_lifecycle(events, spec.job_id())
        # submit/terminal events come from the driver shard, start/beat
        # from worker shards: the merge stitched processes together.
        srcs = {e["event"]: e["src"] for e in events}
        assert srcs[EV_JOB_SUBMITTED].startswith("driver-")
        assert srcs[EV_JOB_STARTED].startswith("worker-")
        assert srcs[EV_HEARTBEAT].startswith("worker-")

    def test_parallel_retry_after_worker_kill(self, tmp_path):
        """A SIGKILLed worker is the crash-safety worst case: its shard may
        end mid-line, yet the journal still reconstructs the retry."""
        spec = RunSpec(
            tiny(),
            workload={"kind": "kill9_once", "flag": str(tmp_path / "f"),
                      "crash_cycle": 30},
        )
        clean = RunSpec(tiny(seed=9))
        out = run_specs(
            [spec, clean], jobs=2, plugins=PLUGINS, retries=2,
            retry_backoff=0, journal=tmp_path / "j",
        )
        assert all(o.ok for o in out)
        events = events_of(tmp_path / "j")
        assert_lifecycle(events, spec.job_id())
        assert_lifecycle(events, clean.job_id())
        assert events_of(tmp_path / "j", EV_RETRY)


# ----------------------------------------------------------------------
# pure-observer guarantee
# ----------------------------------------------------------------------
class TestBitExactness:
    def test_journal_does_not_perturb_results(self, tmp_path):
        """Differential: the same grid with and without a journal must be
        bit-identical — the journal only observes."""
        specs = [RunSpec(tiny(seed=s)) for s in (1, 2)]
        plain = [o.result.to_dict() for o in run_specs(specs)]
        journaled = [
            o.result.to_dict()
            for o in run_specs(specs, journal=tmp_path / "j",
                               heartbeat_interval=0.0)
        ]
        assert plain == journaled

    def test_journal_not_part_of_job_identity(self, tmp_path):
        """The journal must stay out of the cache key: a journal-enabled
        campaign hits the cache entries of a journal-less one."""
        spec = RunSpec(tiny())
        cache = ResultCache(tmp_path / "cache")
        run_specs([spec], cache=cache)
        out = run_specs([spec], cache=cache, journal=tmp_path / "j")[0]
        assert out.cached
