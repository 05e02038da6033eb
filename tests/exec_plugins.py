"""Workload kinds that misbehave on purpose.

The executor fault-tolerance tests register these through the normal
plugin mechanism (``plugins=["tests.exec_plugins"]``), so worker
processes import them before running jobs.  Each kind wraps the standard
Bernoulli workload and injects one failure mode, gated on a *flag file*
named in the spec: the first attempt creates the flag and fails, a retry
finds it and runs clean.  ``crash_always`` has no flag and never
recovers.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path
from typing import Any, Mapping

from repro.registry import register_workload
from repro.sim.config import SimConfig
from repro.sim.topology import Mesh
from repro.traffic.generator import BernoulliSynthetic, Workload
from repro.traffic.patterns import make_pattern


def _bernoulli(config: SimConfig) -> BernoulliSynthetic:
    """The same open-loop workload the engine builds for a bare config."""
    pattern = make_pattern(config.pattern, Mesh(config.k))
    return BernoulliSynthetic(
        pattern,
        load=config.offered_load,
        packet_size=config.packet_size,
        seed=config.seed,
        inject_until=config.warmup_cycles + config.measure_cycles,
    )


def _first_attempt(spec: Mapping[str, Any]) -> bool:
    """True exactly once per flag file: creates it on the first call."""
    flag = Path(spec["flag"])
    if flag.exists():
        return False
    flag.touch()
    return True


class _CrashingWorkload(Workload):
    """Delegates to an inner Bernoulli workload but raises (or worse) at
    ``crash_cycle``.  Delegation covers the checkpoint methods too, so a
    retried attempt that resumes from a snapshot replays the identical
    injection stream."""

    def __init__(self, inner: Workload, crash_cycle: int, action) -> None:
        self.inner = inner
        self.crash_cycle = crash_cycle
        self.action = action  # called once when the crash cycle arrives

    def tick(self, cycle: int, network) -> None:
        if self.action is not None and cycle >= self.crash_cycle:
            action, self.action = self.action, None
            action()
        self.inner.tick(cycle, network)

    def on_eject(self, flit, cycle, network) -> None:
        self.inner.on_eject(flit, cycle, network)

    def done(self) -> bool:
        return self.inner.done()

    def state_dict(self) -> dict:
        return self.inner.state_dict()

    def load_state_dict(self, state: dict) -> None:
        self.inner.load_state_dict(state)


def _raise() -> None:
    raise RuntimeError("injected crash")


@register_workload("crash_always")
def _crash_always(spec: Mapping[str, Any], config: SimConfig) -> Workload:
    """Raises at ``crash_cycle`` (default 0) on every attempt."""
    return _CrashingWorkload(_bernoulli(config), spec.get("crash_cycle", 0), _raise)


@register_workload("crash_once")
def _crash_once(spec: Mapping[str, Any], config: SimConfig) -> Workload:
    """Raises immediately on the first attempt; clean afterwards."""
    inner = _bernoulli(config)
    if _first_attempt(spec):
        return _CrashingWorkload(inner, spec.get("crash_cycle", 0), _raise)
    return inner


@register_workload("crash_mid_run")
def _crash_mid_run(spec: Mapping[str, Any], config: SimConfig) -> Workload:
    """First attempt dies mid-run (after checkpoints exist); the retry
    runs clean — from the last snapshot when checkpointing is on."""
    inner = _bernoulli(config)
    if _first_attempt(spec):
        return _CrashingWorkload(inner, spec["crash_cycle"], _raise)
    return inner


@register_workload("hang_once")
def _hang_once(spec: Mapping[str, Any], config: SimConfig) -> Workload:
    """First attempt sleeps past any sane job_timeout; clean afterwards."""
    inner = _bernoulli(config)
    if _first_attempt(spec):
        return _CrashingWorkload(
            inner,
            spec.get("crash_cycle", 0),
            lambda: time.sleep(spec.get("sleep", 120.0)),
        )
    return inner


@register_workload("kill9_once")
def _kill9_once(spec: Mapping[str, Any], config: SimConfig) -> Workload:
    """First attempt SIGKILLs its own worker process (no Python teardown
    at all — the hardest crash an executor can see); clean afterwards."""
    inner = _bernoulli(config)
    if _first_attempt(spec):
        return _CrashingWorkload(
            inner,
            spec.get("crash_cycle", 0),
            lambda: os.kill(os.getpid(), signal.SIGKILL),
        )
    return inner


@register_workload("pid_then_sleep")
def _pid_then_sleep(spec: Mapping[str, Any], config: SimConfig) -> Workload:
    """Records the executing pid as an empty file in ``pid_dir``, then
    sleeps ``sleep`` seconds at cycle 0 (a job that outlives its driver)."""
    Path(spec["pid_dir"], str(os.getpid())).touch()
    return _CrashingWorkload(
        _bernoulli(config), 0, lambda: time.sleep(spec.get("sleep", 60.0))
    )
