"""Executor fault tolerance: retry-with-backoff on crashes, timeouts and
killed workers; checkpoint-resumed retries; terminal-error surfacing; and
result-cache corruption quarantine.

The failure modes are injected through the workload kinds registered in
:mod:`tests.exec_plugins` (imported both here, for serial runs, and in
worker processes via ``plugins=``)."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import tests.exec_plugins  # noqa: F401  (registers the misbehaving kinds)
from repro.checkpoint import latest_checkpoint, list_checkpoints
from repro.runner import ResultCache, RunSpec, execute_spec, run_specs
from repro.runner.executor import _kill_pool_processes
from repro.runner.rundir import run_paths
from repro.sim.config import SimConfig

PLUGINS = ("tests.exec_plugins",)

TINY = dict(
    k=4,
    warmup_cycles=40,
    measure_cycles=160,
    drain_cycles=400,
    offered_load=0.2,
    seed=3,
)


def tiny(**kw):
    return SimConfig(**{**TINY, **kw})


def crashy(kind, flag, config=None, **extra):
    return RunSpec(
        config if config is not None else tiny(),
        workload={"kind": kind, "flag": str(flag), **extra},
    )


# ----------------------------------------------------------------------
# retry semantics
# ----------------------------------------------------------------------
class TestRetries:
    def test_terminal_failure_surfaces_error(self, tmp_path):
        specs = [
            RunSpec(tiny(seed=1)),
            crashy("crash_always", tmp_path / "f"),
            RunSpec(tiny(seed=2)),
        ]
        out = run_specs(specs, retries=1, retry_backoff=0)
        assert [o.spec for o in out] == specs  # order survives failures
        assert out[0].ok and out[2].ok
        assert not out[1].ok
        assert out[1].result is None
        assert "RuntimeError: injected crash" in out[1].error
        assert out[1].attempts == 2  # first try + one retry

    def test_serial_retry_recovers(self, tmp_path):
        clean = execute_spec(RunSpec(tiny())).to_dict()
        out = run_specs(
            [crashy("crash_once", tmp_path / "f")], retries=2, retry_backoff=0
        )[0]
        assert out.ok and out.attempts == 2
        assert out.result.to_dict() == clean

    def test_parallel_retry_recovers(self, tmp_path):
        specs = [
            crashy("crash_once", tmp_path / "f"),
            RunSpec(tiny(seed=4)),
        ]
        out = run_specs(
            specs, jobs=2, plugins=PLUGINS, retries=2, retry_backoff=0
        )
        assert all(o.ok for o in out)
        assert out[0].attempts == 2
        assert out[1].attempts == 1
        assert out[0].result.to_dict() == execute_spec(RunSpec(tiny())).to_dict()

    def test_zero_retries_fails_fast(self, tmp_path):
        out = run_specs(
            [crashy("crash_once", tmp_path / "f")], retries=0, retry_backoff=0
        )[0]
        assert not out.ok and out.attempts == 1

    def test_failures_never_cached(self, tmp_path):
        spec = crashy("crash_always", tmp_path / "f")
        out = run_specs([spec], root=tmp_path, retries=0, retry_backoff=0)[0]
        assert not out.ok
        cache = ResultCache(run_paths(tmp_path).cache)
        assert not cache.contains(spec)
        assert len(cache) == 0

    def test_crashy_campaign_equals_clean(self, tmp_path):
        """A campaign where every job crashes once converges to the same
        results as a campaign that never crashed."""
        configs = [tiny(seed=s) for s in (5, 6, 7)]
        clean = [execute_spec(RunSpec(c)).to_dict() for c in configs]
        specs = [
            crashy("crash_once", tmp_path / f"f{i}", config=c)
            for i, c in enumerate(configs)
        ]
        out = run_specs(specs, jobs=2, plugins=PLUGINS, retries=2, retry_backoff=0)
        assert all(o.ok for o in out)
        assert [o.result.to_dict() for o in out] == clean


# ----------------------------------------------------------------------
# checkpoint-resumed retries
# ----------------------------------------------------------------------
class TestCheckpointedRetries:
    def test_retry_resumes_and_matches_clean(self, tmp_path):
        clean = execute_spec(RunSpec(tiny())).to_dict()
        spec = crashy("crash_mid_run", tmp_path / "f", crash_cycle=150)
        out = run_specs(
            [spec],
            root=tmp_path,
            retries=1,
            retry_backoff=0,
            checkpoint_every=20,
        )[0]
        assert out.ok and out.attempts == 2
        assert out.result.to_dict() == clean
        # The crashed attempt left snapshots in the job's own directory.
        assert list_checkpoints(run_paths(tmp_path).checkpoints / spec.job_id())

    def test_retry_actually_resumes(self, tmp_path):
        """Marker-dye proof that the retry continued from the snapshot
        rather than restarting: tamper a counter in the last checkpoint
        and watch the offset propagate into the final result."""
        clean = execute_spec(RunSpec(tiny())).to_dict()
        spec = crashy("crash_mid_run", tmp_path / "f", crash_cycle=150)
        ckpt_dir = str(tmp_path / "solo")
        with pytest.raises(RuntimeError, match="injected crash"):
            execute_spec(spec, checkpoint_every=20, checkpoint_dir=ckpt_dir)
        newest = latest_checkpoint(tmp_path / "solo")
        payload = json.loads(newest.read_text())
        payload["state"]["stats"]["injected_flits"] += 7
        newest.write_text(json.dumps(payload))
        result = execute_spec(spec, checkpoint_every=20, checkpoint_dir=ckpt_dir)
        assert result.injected_flits == clean["injected_flits"] + 7


    def test_skipped_torn_checkpoint_is_journaled(self, tmp_path, capsys):
        """A resume that passes over an unreadable snapshot says so: the
        journal carries a ``checkpoint_skipped`` event and ``repro status``
        tallies it, so the restart from cycle 0 cannot pass for a resume."""
        from repro.checkpoint import checkpoint_path
        from repro.cli import main
        from repro.obs.journal import JobJournal, Journal

        ckpt_dir = tmp_path / "ckpts"
        ckpt_dir.mkdir()
        torn = checkpoint_path(ckpt_dir, 100)
        torn.write_text("{torn")
        journal = Journal(tmp_path / "j")
        writer = journal.writer("solo")
        result = execute_spec(
            RunSpec(tiny()),
            checkpoint_dir=ckpt_dir,
            journal=JobJournal(writer, "job-a"),
        )
        writer.close()
        assert result.to_dict() == execute_spec(RunSpec(tiny())).to_dict()
        events = journal.events()
        skipped = [e for e in events if e["event"] == "checkpoint_skipped"]
        assert len(skipped) == 1
        assert skipped[0]["path"] == str(torn) and skipped[0]["error"]
        (started,) = [e for e in events if e["event"] == "job_started"]
        assert started["cycle"] == 0
        assert main(["status", str(journal.root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["counters"]["checkpoints_skipped"] == 1


# ----------------------------------------------------------------------
# timeouts and dead workers (parallel mode)
# ----------------------------------------------------------------------
class TestWorkerDeath:
    def test_timeout_kills_and_retries(self, tmp_path):
        specs = [
            crashy("hang_once", tmp_path / "f", sleep=60.0),
            RunSpec(tiny(seed=4)),
        ]
        out = run_specs(
            specs,
            jobs=2,
            plugins=PLUGINS,
            retries=1,
            retry_backoff=0,
            job_timeout=2.0,
        )
        assert all(o.ok for o in out)
        assert out[0].attempts == 2  # timed out once, then completed
        assert out[0].result.to_dict() == execute_spec(RunSpec(tiny())).to_dict()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_timeout_preempts_a_lone_job(self, tmp_path, jobs):
        """A single pending job, or ``jobs=1``, would run in-process where
        nothing can preempt it; a timeout must still bite."""
        import time

        start = time.monotonic()
        (out,) = run_specs(
            [crashy("hang_once", tmp_path / "f", sleep=8.0)],
            jobs=jobs,
            plugins=PLUGINS,
            retries=1,
            retry_backoff=0,
            job_timeout=1.0,
        )
        assert out.ok and out.attempts == 2
        assert time.monotonic() - start < 6.0
        assert out.result.to_dict() == execute_spec(RunSpec(tiny())).to_dict()

    def test_timeout_exhaustion_is_terminal(self, tmp_path):
        # Zero retries makes the first timeout terminal.
        specs = [
            crashy("hang_once", tmp_path / "g", sleep=60.0),
            RunSpec(tiny(seed=4)),
        ]
        out = run_specs(
            specs,
            jobs=2,
            plugins=PLUGINS,
            retries=0,
            retry_backoff=0,
            job_timeout=2.0,
        )
        assert not out[0].ok
        assert "TimeoutError" in out[0].error
        assert out[1].ok  # the innocent job still completes

    def test_sigkilled_worker_is_retried(self, tmp_path):
        specs = [
            crashy("kill9_once", tmp_path / "f"),
            RunSpec(tiny(seed=4)),
        ]
        out = run_specs(
            specs, jobs=2, plugins=PLUGINS, retries=2, retry_backoff=0
        )
        assert all(o.ok for o in out)
        assert out[0].attempts >= 2
        assert out[0].result.to_dict() == execute_spec(RunSpec(tiny())).to_dict()

    def test_kill_skips_only_gone_workers(self):
        """Preempting a pool skips workers that already exited and lets
        any other kill error escape."""

        class Proc:
            def __init__(self, error=None):
                self.error = error
                self.killed = False

            def kill(self):
                self.killed = True
                if self.error is not None:
                    raise self.error

        class Pool:
            def __init__(self, *procs):
                self._processes = dict(enumerate(procs))

        gone = [Proc(ProcessLookupError()), Proc(ValueError("closed")), Proc()]
        _kill_pool_processes(Pool(*gone))
        assert all(p.killed for p in gone)
        with pytest.raises(RuntimeError, match="boom"):
            _kill_pool_processes(Pool(Proc(RuntimeError("boom"))))


# ----------------------------------------------------------------------
# cache corruption quarantine
# ----------------------------------------------------------------------
class TestCacheQuarantine:
    def test_corrupt_entry_quarantined_with_warning(self, tmp_path):
        spec = RunSpec(tiny())
        path = tmp_path / f"{spec.job_id()}.json"
        path.write_text("{torn write")
        cache = ResultCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(spec) is None
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

    def test_warns_once_per_instance(self, tmp_path):
        specs = [RunSpec(tiny(seed=s)) for s in (1, 2)]
        for s in specs:
            (tmp_path / f"{s.job_id()}.json").write_text("{torn")
        cache = ResultCache(tmp_path)
        with pytest.warns(RuntimeWarning):
            cache.get(specs[0])
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            cache.get(specs[1])  # quarantines silently

    def test_quarantined_entry_stops_shadowing(self, tmp_path):
        """After quarantine the job re-runs and the fresh result is
        cached normally."""
        spec = RunSpec(tiny())
        cache_dir = run_paths(tmp_path).cache
        cache_dir.mkdir()
        (cache_dir / f"{spec.job_id()}.json").write_text("not even json")
        out = run_specs([spec], root=tmp_path)[0]
        assert out.ok and not out.cached
        fresh = ResultCache(cache_dir)
        assert fresh.get(spec) == out.result.to_dict()

    def test_non_dict_payload_quarantined(self, tmp_path):
        spec = RunSpec(tiny())
        (tmp_path / f"{spec.job_id()}.json").write_text(json.dumps([1, 2]))
        cache = ResultCache(tmp_path)
        with pytest.warns(RuntimeWarning):
            assert cache.get(spec) is None


# ----------------------------------------------------------------------
# orphaned workers
# ----------------------------------------------------------------------
def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie (an orphan re-parented
    to a non-reaping init stays a zombie after it exits)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_pool_workers_exit_when_the_driver_is_killed(tmp_path):
    """``kill -9`` of a ``jobs=2`` driver must not leave its pool workers
    running: each exits within a few seconds of losing its parent."""
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    root = Path(__file__).resolve().parents[1]
    code = textwrap.dedent(
        f"""
        from repro.runner import RunSpec, run_specs
        from repro.sim.config import SimConfig

        cfg = SimConfig(**{TINY!r})
        specs = [
            RunSpec(cfg.with_(seed=seed), workload={{
                "kind": "pid_then_sleep", "pid_dir": {str(pid_dir)!r}}})
            for seed in (1, 2)
        ]
        run_specs(specs, jobs=2, plugins={list(PLUGINS)!r})
        """
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
    driver = subprocess.Popen([sys.executable, "-c", code], cwd=root, env=env)
    pids = []
    try:
        deadline = time.monotonic() + 60
        while len(pids) < 2:
            assert time.monotonic() < deadline, "workers never started"
            assert driver.poll() is None, "driver exited early"
            time.sleep(0.1)
            pids = [int(p.name) for p in pid_dir.iterdir()]
        driver.kill()
        driver.wait()
        deadline = time.monotonic() + 5
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in pids if _running(pid)], "orphaned workers"
    finally:
        if driver.poll() is None:
            driver.kill()
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
