"""The simulation driver.

Two run modes:

* **open loop** (synthetic traffic): fixed horizon of warmup + measure +
  drain cycles; statistics come from the measurement window;
* **closed loop** (trace / SPLASH-2 workloads, ``config.max_cycles`` set):
  run until the workload reports completion and the network is empty; the
  figure of merit is the final cycle ("execution time").

Observability: the engine owns the run's :class:`~repro.obs.Telemetry`
facade (built from ``config.telemetry`` unless one is passed in), samples
interval metrics every N cycles, wall-clock-profiles the
``workload.tick`` / ``network.step`` / stats phases when asked, and merges
the routers' uniform ``telemetry_counters()`` dicts into the result.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Optional, Union

from ..checkpoint.format import (
    CheckpointError,
    checkpoint_path,
    latest_checkpoint,
    prune_checkpoints,
    read_checkpoint,
    verify_identity,
    write_checkpoint,
)
from ..audit import Auditor, _as_audit_config
from ..checkpoint.policy import CheckpointPolicy
from ..obs.counters import merge_counters
from ..obs.facade import Telemetry
from ..obs.journal import EV_CHECKPOINTED, HeartbeatEmitter, JobJournal
from ..traffic.generator import BernoulliSynthetic, Workload
from ..traffic.patterns import make_pattern
from .config import SimConfig
from .network import Network
from .stats import SimResult, StatsCollector
from .topology import Mesh


class Simulator:
    """Owns one network + workload pair and runs it to completion."""

    def __init__(
        self,
        config: SimConfig,
        workload: Optional[Workload] = None,
        telemetry: Optional[Telemetry] = None,
        checkpoint: Optional[CheckpointPolicy] = None,
        audit=False,
        journal: Optional[JobJournal] = None,
    ) -> None:
        self.config = config
        self.checkpoint = checkpoint
        # Fleet-telemetry journal: when set, the run loop emits wall-clock
        # heartbeats and save_checkpoint records snapshot events.  A pure
        # observer — it never touches simulation state, so journal-enabled
        # runs stay bit-exact with journal-disabled ones.
        self.journal = journal
        # Workload *spec* dict stored in checkpoints for provenance (set by
        # the runner for spec-built workloads; None for plain Bernoulli).
        self.workload_spec: Optional[Dict[str, Any]] = None
        self.stats = StatsCollector(config.num_nodes)
        self.stats.set_window(
            config.warmup_cycles, config.warmup_cycles + config.measure_cycles
        )
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry.from_config(config.telemetry, k=config.k)
        )
        if workload is None:
            pattern = make_pattern(config.pattern, Mesh(config.k))
            workload = BernoulliSynthetic(
                pattern,
                load=config.offered_load,
                packet_size=config.packet_size,
                seed=config.seed,
                inject_until=config.warmup_cycles + config.measure_cycles,
            )
        # The backend is resolved here, where the workload is at hand: the
        # ``auto`` rule reads the rate this run will actually inject.
        # ``(backend, reason)`` is what execute_spec journals.
        self.backend_choice = config.backend_choice(workload)
        config.warn_on_fallback(self.backend_choice)
        if self.backend_choice[0] == "vector":
            from .vector import build_vector_network

            self.network = build_vector_network(
                config, self.stats, telemetry=self.telemetry
            )
        else:
            self.network = Network(config, self.stats, telemetry=self.telemetry)
        self.workload = workload
        self.network.workload = workload
        # Per-cycle invariant auditor: opt-in (``audit=True`` or an
        # AuditConfig); a disabled auditor costs one ``is None`` test per
        # cycle and nothing in the routers.
        audit_config = _as_audit_config(audit)
        self.auditor = (
            Auditor(self.network, audit_config) if audit_config is not None else None
        )

    # ------------------------------------------------------------------
    def _run_loop(self, horizon: int, stop, check_invariants: bool) -> int:
        """Advance the network until ``horizon`` cycles elapse or
        ``stop(cycle)`` returns True; returns the final cycle.

        Shared by the open- and closed-loop modes, which differ only in
        their horizon and early-exit condition.

        Periodic checkpoints are taken *after* the stop check: a checkpoint
        at cycle ``k`` therefore implies the uninterrupted run continued
        past ``k``, so a resume never executes a cycle the original run
        skipped — the ordering the bit-exactness guarantee rests on.
        """
        network = self.network
        workload = self.workload
        prof = self.telemetry.profiler
        metrics = self.telemetry.metrics
        interval = metrics.interval if metrics is not None else 0
        policy = self.checkpoint
        auditor = self.auditor
        heartbeat = (
            HeartbeatEmitter(self.journal) if self.journal is not None else None
        )
        # Resumed simulators enter mid-run; fresh ones at cycle 0.
        cycle = network.cycle
        while cycle < horizon:
            if prof is None:
                workload.tick(cycle, network)
                network.step()
            else:
                t0 = perf_counter()
                workload.tick(cycle, network)
                t1 = perf_counter()
                network.step()
                t2 = perf_counter()
                prof.add("workload.tick", t1 - t0)
                prof.add("network.step", t2 - t1)
            if auditor is not None:
                auditor.after_step()
            cycle += 1
            if heartbeat is not None:
                heartbeat.maybe_beat(cycle, horizon, self.stats, self._phase(cycle))
            if interval and cycle % interval == 0:
                metrics.sample(network, cycle)
            if check_invariants and cycle % 100 == 0:
                network.check_conservation()
            if stop(cycle):
                break
            if policy is not None and policy.due(cycle):
                self.save_checkpoint()
        return cycle

    def _phase(self, cycle: int) -> str:
        """The measurement-protocol phase ``cycle`` belongs to (heartbeat
        context: closed-loop runs have a single ``run`` phase)."""
        cfg = self.config
        if cfg.max_cycles is not None:
            return "run"
        if cycle < cfg.warmup_cycles:
            return "warmup"
        if cycle < cfg.warmup_cycles + cfg.measure_cycles:
            return "measure"
        return "drain"

    def run(self, check_invariants: bool = False) -> SimResult:
        """Run to the configured horizon and return the result summary.

        ``check_invariants`` verifies flit conservation every 100 cycles
        (used by the test suite; costs a full network scan).
        """
        network = self.network
        workload = self.workload
        telemetry = self.telemetry
        prof = telemetry.profiler
        try:
            if self.config.max_cycles is None:
                # Open loop: the drain phase ends early once every measured
                # packet has been delivered — per-packet latency/energy
                # statistics then carry no survivor bias (stragglers are fully
                # counted).
                inject_until = self.config.warmup_cycles + self.config.measure_cycles
                horizon = self.config.total_cycles
                final_cycle = self._run_loop(
                    horizon,
                    lambda c: c >= inject_until and self.stats.measured_pending == 0,
                    check_invariants,
                )
            else:
                horizon = self.config.max_cycles
                final_cycle = self._run_loop(
                    horizon,
                    lambda c: workload.done() and network.quiescent(),
                    check_invariants,
                )
                # For closed-loop runs the window is the whole run, so accepted
                # load reflects the realised throughput.  Every ejection happened
                # in [0, final_cycle), so the recount is exact.
                self.stats.set_window(0, final_cycle)
                self.stats.ejected_in_window = self.stats.total_ejected_flits
        except BaseException:
            # A run that dies mid-loop (AuditViolation, workload crash,
            # KeyboardInterrupt) must not strand buffered trace records or
            # an unflushed metrics frame: finish() flushes and closes the
            # sinks, and is idempotent if the caller finishes again.
            telemetry.finish(network, network.cycle)
            raise

        return self._finalize(final_cycle)

    def _finalize(self, final_cycle: int) -> SimResult:
        """Close telemetry and assemble the :class:`SimResult` for a run
        that stopped at ``final_cycle``.  Split out of :meth:`run` so the
        batched driver (:mod:`repro.sim.vector.batch`) can finish each
        simulation of a lockstep batch exactly as a solo run would."""
        network = self.network
        telemetry = self.telemetry
        prof = telemetry.profiler
        t_stats = perf_counter()

        # Merge the routers' uniform counter dicts (the per-design
        # ``getattr`` probing this replaces lived here before repro.obs).
        per_router = network.router_counters()
        counter_totals = merge_counters(per_router)

        telemetry.finish(network, final_cycle)

        fault_plan = getattr(network, "fault_plan", None)
        extra: Dict[str, object] = {
            "pattern": self.config.pattern,
            "fault_percent": self.config.faults.percent,
            # The realised fault map: explicit-entry plans (Monte-Carlo
            # campaigns) have percent == 0, so the count/node list is the
            # only truthful record of how faulty this run actually was.
            "fault_count": len(fault_plan) if fault_plan is not None else 0,
            "fault_nodes": (
                list(fault_plan.faulty_nodes) if fault_plan is not None else []
            ),
            "active_flits_at_end": network.active_flits,
            "measured_pending_at_end": self.stats.measured_pending,
            "router_counter_totals": counter_totals,
        }
        result = self.stats.result(
            design=self.config.design,
            offered_load=self.config.offered_load,
            capacity=1.0,
            # Cycles actually simulated — the drain may end before the
            # configured horizon, and reporting the horizon here made every
            # early-exiting run overstate its length.
            cycles=final_cycle,
            final_cycle=final_cycle,
            extra=extra,
            per_router=per_router,
            counter_totals=counter_totals,
        )
        if prof is not None:
            prof.add("stats.finalize", perf_counter() - t_stats)
            # Rebuild the result's extra with the completed profile (the
            # SimResult itself is frozen, its extra dict is not).
            result.extra["profile"] = prof.to_dict()
        return result

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """The full simulator state tree at the end-of-cycle boundary."""
        return {
            "network": self.network.state_dict(),
            "stats": self.stats.state_dict(),
            "workload": self.workload.state_dict(),
            "telemetry": self.telemetry.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.network.load_state_dict(state["network"])
        self.stats.load_state_dict(state["stats"])
        self.workload.load_state_dict(state["workload"])
        self.telemetry.load_state_dict(state["telemetry"])
        if self.auditor is not None:
            # Auditor state is derived (like the network's active sets):
            # drop the movement history and re-baseline from the restored
            # boundary.
            self.auditor.reset()

    def save_checkpoint(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Write one checkpoint file and return its path.

        Without ``path`` the simulator's :class:`CheckpointPolicy` names
        the file (``<root>/ckpt_<cycle>.json``) and prunes old snapshots;
        an explicit path writes exactly there and prunes nothing.
        """
        cycle = self.network.cycle
        policy = self.checkpoint
        policy_named = path is None
        if policy_named:
            if policy is None:
                raise CheckpointError(
                    "save_checkpoint() needs an explicit path when the "
                    "simulator has no CheckpointPolicy"
                )
            path = checkpoint_path(policy.root, cycle)
        out = write_checkpoint(
            path,
            config=self.config,
            state=self.state_dict(),
            cycle=cycle,
            workload_spec=self.workload_spec,
        )
        if policy_named and policy.keep > 0:
            prune_checkpoints(policy.root, policy.keep)
        if self.journal is not None:
            self.journal.event(EV_CHECKPOINTED, cycle=cycle, path=str(out))
        return out

    @classmethod
    def resume_from(
        cls,
        path: Union[str, Path],
        *,
        config: Optional[SimConfig] = None,
        workload: Optional[Workload] = None,
        telemetry: Optional[Telemetry] = None,
        checkpoint: Optional[CheckpointPolicy] = None,
        audit=False,
        journal: Optional[JobJournal] = None,
    ) -> "Simulator":
        """Rebuild a mid-run simulator from a checkpoint file (or the
        newest checkpoint under a directory).

        ``config``/``workload``/``telemetry`` follow the constructor: when
        omitted, the config stored in the checkpoint is used and the
        default Bernoulli workload is rebuilt from it.  A passed config is
        verified against the checkpoint's ``config_hash`` — bit-exact
        resume is only defined for the identical configuration.
        """
        p = Path(path)
        if p.is_dir():
            found = latest_checkpoint(p)
            if found is None:
                raise CheckpointError(f"no checkpoints under {p}")
            p = found
        payload = read_checkpoint(p)
        cfg = config if config is not None else SimConfig.from_dict(payload["config"])
        verify_identity(payload, cfg, source=str(p))
        sim = cls(
            cfg,
            workload=workload,
            telemetry=telemetry,
            checkpoint=checkpoint,
            audit=audit,
            journal=journal,
        )
        sim.workload_spec = payload.get("workload")
        sim.load_state_dict(payload["state"])
        return sim


def run_simulation(
    config: SimConfig,
    workload: Optional[Workload] = None,
    check_invariants: bool = False,
    audit=False,
) -> SimResult:
    """One-call convenience wrapper: build a simulator and run it."""
    return Simulator(config, workload, audit=audit).run(
        check_invariants=check_invariants
    )
