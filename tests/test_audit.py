"""Tests for the per-cycle invariant auditor.

Three layers:

* **differential** — for every design (open loop, with faults, closed
  loop) an audited run is bit-exact with the dense walk and reports zero
  violations (the oracle in ``tests/test_equivalence.py``);
* **test doubles** — designs with deliberately injected bugs (flit
  duplication, silent loss, starvation) registered through the plugin
  registry, which the auditor must catch at the recorded cycle and node;
* **unit** — each check fires on directly fabricated broken state, and
  the violation payload (report file, pickling, trail) is usable.
"""

import json
import pickle

import pytest

from repro.audit import AuditConfig, Auditor, AuditViolation, _as_audit_config
from repro.core.allocator import BUFFERED, BUFFERLESS
from repro.core.dxbar import DXbarRouter
from repro.core.unified import UnifiedRouter
from repro.registry import DESIGNS, register_design
from repro.routers.scarab import ScarabRouter
from repro.runner.executor import run_specs
from repro.runner.spec import RunSpec
from repro.sim.config import FaultConfig, SimConfig
from repro.sim.engine import Simulator
from repro.sim.flit import Flit
from repro.sim.ports import Port
from tests.test_equivalence import (Case, assert_paths_agree, checkpointed, faults, resume,
                                    run_checked, splash2)

# ----------------------------------------------------------------------
# the auditor is a pure observer
# ----------------------------------------------------------------------
class TestBitExactObserver:
    """Audited runs are cases of the oracle in ``tests/test_equivalence.py``."""

    def test_disabled_auditor_is_absent(self):
        sim = Simulator(Case("dxbar_dor").config())
        assert sim.auditor is None

    def test_audited_run_bit_exact(self, any_design):
        """Tornado traffic loads a few links per row, filling their buffers."""
        assert_paths_agree(Case(any_design, pattern="TOR"))

    @pytest.mark.parametrize(
        "design", ["dxbar_dor", "dxbar_wf", "unified_dor", "unified_wf"]
    )
    @pytest.mark.parametrize(
        "plan",
        [faults(100.0), faults(50.0, "crosspoint")],
        ids=["crossbar100", "crosspoint50"],
    )
    def test_audited_run_with_faults(self, design, plan):
        """The degraded modes and the undetected-fault overfill audit clean."""
        assert_paths_agree(Case(design, faults=plan))

    @pytest.mark.parametrize("design", ["scarab", "dxbar_wf", "unified_dor"])
    def test_audited_closed_loop(self, design):
        assert_paths_agree(Case(design, seed=7, workload=splash2("FFT", 5, 7, closed_loop=True)))

    def test_audit_survives_checkpoint_resume(self, tmp_path):
        """The auditor's state is derived: a resume re-baselines the
        movement history and the remainder of the run audits clean."""
        case = Case("unified_wf", snapshots=(50,))
        expected, (snapshot,) = checkpointed(case, "object", tmp_path)
        assert run_checked(resume(case, snapshot, "object", audit=True)) == expected


# ----------------------------------------------------------------------
# the audit_snapshot contract
# ----------------------------------------------------------------------
class TestSnapshotContract:
    def test_snapshot_covers_pending_flits(self, any_design, bench_factory):
        """Per router, the union of the named containers enumerates each
        held flit exactly once and covers everything pending_flits()
        counts — mid-run, at several boundaries."""
        bench = bench_factory(any_design)
        rng_pairs = [(0, 15), (3, 12), (5, 10), (15, 0), (12, 3), (6, 9)]
        for src, dst in rng_pairs:
            bench.inject(src, dst, num_flits=2)
        for _ in range(10):
            bench.step(3)
            for router in bench.network.routers:
                snap = router.audit_snapshot()
                total = sum(len(flits) for flits in snap.values())
                assert total == router.pending_flits()
                fids = [f.fid for flits in snap.values() for f in flits]
                assert len(fids) == len(set(fids))


# ----------------------------------------------------------------------
# deliberately broken designs, caught at the recorded cycle and node
# ----------------------------------------------------------------------
class DuplicatingRouter(DXbarRouter):
    """DXbar with an injected bug: once, after stepping, it clones a
    buffered flit back into its FIFO — the same fid in two slots."""

    trigger = None  # (cycle, node) at which the clone was planted

    def step(self, cycle):
        super().step(cycle)
        if DuplicatingRouter.trigger is None:
            for fifo in self.fifos.values():
                head = fifo.head()
                if head is not None:
                    fifo._q.append(Flit.from_dict(head.to_dict()))
                    DuplicatingRouter.trigger = (cycle, self.node)
                    break


class LossyScarabRouter(ScarabRouter):
    """SCARAB with an injected bug: a dropped flit is simply forgotten —
    no NACK, no retransmission queue entry."""

    drops = []  # every (cycle, node) at which a flit was lost

    def _drop(self, flit, cycle):
        LossyScarabRouter.drops.append((cycle, self.node))


class StarvingRouter(DXbarRouter):
    """DXbar with an injected bug: buffered flits are never served (the
    waiter scan skips FIFO heads and the primary crossbar never grants),
    so any flit that loses arbitration once is stuck forever."""

    def _collect_waiters(self):
        return [w for w in super()._collect_waiters() if w[0] == "inj"]

    def _serve_incoming(self, incoming, outputs_used, cycle, primary_ok):
        return super()._serve_incoming(incoming, outputs_used, cycle, False)


class LateBistRouter(UnifiedRouter):
    """Unified router with an injected bug: BIST detection fires one cycle
    late, so an undetected fault holds one more arrival in its FIFO."""

    def step(self, cycle):
        fault = self._fault
        if fault is not None and not self.reconfigured and cycle == fault.detected_cycle:
            self._current_cycle = cycle
            self._step_normal(cycle, False, False)
            return
        super().step(cycle)


@pytest.fixture
def double(request):
    """Register a test-double design for one test, then remove it."""

    def _register(name, cls, **kw):
        register_design(name, cls, base="dxbar", supports_faults=True, **kw)
        request.addfinalizer(lambda: DESIGNS.remove(name))
        return name

    return _register


class TestDoubles:
    def test_duplication_caught_at_cycle_and_node(self, double):
        double("test_dup_dxbar", DuplicatingRouter, routing="dor")
        DuplicatingRouter.trigger = None
        cfg = SimConfig(
            design="test_dup_dxbar", k=4, warmup_cycles=0, measure_cycles=400,
            drain_cycles=400, offered_load=0.45, packet_size=2, seed=2,
        )
        with pytest.raises(AuditViolation) as ei:
            Simulator(cfg, audit=True).run()
        assert DuplicatingRouter.trigger is not None, "bug never armed"
        v = ei.value
        assert v.check == "duplication"
        assert (v.cycle, v.node) == DuplicatingRouter.trigger
        assert v.flit is not None
        assert f"flit {v.flit['fid']}" in v.message

    def test_silent_loss_caught_as_conservation(self):
        register_design(
            "test_lossy_scarab", LossyScarabRouter, routing="adaptive",
            base="scarab",
        )
        try:
            LossyScarabRouter.drops = []
            cfg = SimConfig(
                design="test_lossy_scarab", k=4, warmup_cycles=0,
                measure_cycles=400, drain_cycles=400, offered_load=0.45,
                packet_size=2, seed=2,
            )
            with pytest.raises(AuditViolation) as ei:
                Simulator(cfg, audit=True).run()
            assert LossyScarabRouter.drops, "bug never armed"
            v = ei.value
            assert v.check == "conservation"
            assert v.cycle == LossyScarabRouter.drops[0][0]
            # The violation localises to a dropping router (or, when the
            # lost flit vanished at its own destination, to the global
            # ejection-count mismatch).
            assert v.node == -1 or (v.cycle, v.node) in LossyScarabRouter.drops
        finally:
            DESIGNS.remove("test_lossy_scarab")

    def test_starvation_caught_by_age_watchdog(self, double, bench_factory):
        double("test_starve_dxbar", StarvingRouter, routing="dor")
        bench = bench_factory("test_starve_dxbar")
        auditor = Auditor(bench.network, AuditConfig(max_age=20))
        bench.inject(0, 15)
        with pytest.raises(AuditViolation) as ei:
            for _ in range(100):
                bench.network.step()
                auditor.after_step()
        v = ei.value
        assert v.check == "starvation"
        # DOR takes the flit one hop east (node 1) where it is buffered
        # and never served; the watchdog fires the first cycle past the
        # bound.
        assert v.node == 1
        assert v.details == {"age": 21, "max_age": 20}
        assert v.flit is not None and v.flit["dst"] == 15
        assert v.trail, "movement trail should show how the flit got stuck"

    def test_violation_is_terminal_in_executor(self, double):
        """A deterministic audit violation is never retried: one attempt,
        error surfaced on the outcome."""
        double("test_dup_dxbar", DuplicatingRouter, routing="dor")
        DuplicatingRouter.trigger = None
        cfg = SimConfig(
            design="test_dup_dxbar", k=4, warmup_cycles=0, measure_cycles=400,
            drain_cycles=400, offered_load=0.45, packet_size=2, seed=2,
        )
        outcomes = run_specs([RunSpec(cfg)], audit=True, retries=2)
        (outcome,) = outcomes
        assert not outcome.ok
        assert outcome.attempts == 1
        assert "AuditViolation" in outcome.error
        assert "duplication" in outcome.error


class TestUndetectedFaultWindow:
    """Until BIST detection a whole-crossbar fault holds every arrival in
    its input FIFO; the audit bounds each FIFO at its depth plus the
    detection delay, one flit per cycle of the window."""

    @staticmethod
    def _config(design, detection_cycles):
        # k=8 at 0.5 keeps some input busy through a whole window.
        faults = FaultConfig(percent=100.0, detection_cycles=detection_cycles,
                             manifest_window=80)
        return SimConfig(design=design, k=8, offered_load=0.5, packet_size=2, warmup_cycles=0,
                         measure_cycles=150, drain_cycles=0, seed=1, faults=faults)

    @pytest.mark.parametrize("design", ["dxbar_dor", "unified_dor"])
    @pytest.mark.parametrize("detection_cycles", [0, 5])
    def test_overfill_reaches_the_detection_delay(self, design, detection_cycles):
        sim = Simulator(self._config(design, detection_cycles), audit=True)
        net = sim.network
        worst = 0
        for _ in range(150):
            sim.workload.tick(net.cycle, net)
            net.step()
            sim.auditor.after_step()
            for router in net.routers:
                for fifo in router.fifos.values():
                    worst = max(worst, len(fifo) - fifo.depth)
        assert worst == detection_cycles
        assert sim.auditor.violations == 0

    def test_one_more_held_flit_is_caught(self, double):
        double("test_late_bist", LateBistRouter, routing="dor")
        sim = Simulator(self._config("test_late_bist", 5), audit=True)
        with pytest.raises(AuditViolation) as ei:
            sim.run()
        v = ei.value
        assert v.check == "design"
        assert "holds 10 flits, over its depth 4 plus the 5-cycle" in v.message
        assert v.cycle == sim.network.fault_plan.fault_for(v.node).detected_cycle


# ----------------------------------------------------------------------
# each check, on directly fabricated broken state
# ----------------------------------------------------------------------
class TestChecksUnit:
    def test_conservation_count_mismatch(self, bench_factory):
        bench = bench_factory("flit_bless")
        auditor = Auditor(bench.network)
        bench.network.step()
        bench.stats.total_injected_flits += 1  # phantom injection
        with pytest.raises(AuditViolation) as ei:
            auditor.after_step()
        assert ei.value.check == "conservation"
        assert ei.value.node == -1

    def test_credit_conservation(self, bench_factory):
        bench = bench_factory("buffered4")
        auditor = Auditor(bench.network)
        assert auditor._credit_edges, "buffered designs must wire credit edges"
        bench.network.step()
        router = bench.router(5)
        port = next(iter(router.out_links))
        router.credits[port] -= 1  # a credit leaks
        with pytest.raises(AuditViolation) as ei:
            auditor.after_step()
        v = ei.value
        assert v.check == "credit"
        assert v.node == 5
        assert v.details["total"] == v.details["budget"] - 1

    def test_fairness_threshold(self, bench_factory):
        bench = bench_factory("dxbar_dor")
        auditor = Auditor(bench.network, AuditConfig(report_dir=None))
        bench.network.step()
        router = bench.router(5)
        router.fairness.count = router.fairness.threshold + 1
        with pytest.raises(AuditViolation) as ei:
            auditor.after_step()
        assert ei.value.check == "fairness"
        assert ei.value.node == 5

    def test_double_grant_across_inputs(self, bench_factory):
        bench = bench_factory("unified_dor")
        auditor = Auditor(bench.network)
        f1 = Flit(0, 0, 0, 5, injected_cycle=0)
        f2 = Flit(1, 1, 1, 5, injected_cycle=0)
        grants = [
            ((0, BUFFERLESS, f1, (Port.EAST,)), Port.EAST),
            ((2, BUFFERED, f2, (Port.EAST,)), Port.EAST),
        ]
        with pytest.raises(AuditViolation) as ei:
            auditor.observe_grants(3, 7, grants)
        v = ei.value
        assert v.check == "allocation"
        assert (v.cycle, v.node) == (7, 3)
        assert "inputs 0 and 2" in v.message

    def test_double_grant_same_input_both_lanes(self, bench_factory):
        bench = bench_factory("unified_dor")
        auditor = Auditor(bench.network)
        f1 = Flit(0, 0, 0, 5, injected_cycle=0)
        f2 = Flit(1, 1, 0, 5, injected_cycle=0)
        grants = [
            ((0, BUFFERLESS, f1, (Port.EAST,)), Port.EAST),
            ((0, BUFFERED, f2, (Port.EAST,)), Port.EAST),
        ]
        with pytest.raises(AuditViolation) as ei:
            auditor.observe_grants(4, 9, grants)
        assert ei.value.check == "allocation"
        assert "two lanes of input 0" in ei.value.message

    def test_design_postcondition_scarab_holds_state(self, bench_factory):
        bench = bench_factory("scarab")
        auditor = Auditor(bench.network)
        bench.network.step()
        violations = list(bench.router(3).audit_invariants(0))
        assert violations == []
        # A bufferless router reporting occupancy is a container leak.
        bench.router(3).occupancy = lambda: 1
        with pytest.raises(AuditViolation) as ei:
            auditor.after_step()
        assert ei.value.check == "design"
        assert ei.value.node == 3

    def test_detach_unhooks_routers(self, bench_factory):
        bench = bench_factory("unified_dor")
        auditor = Auditor(bench.network)
        assert all(r.audit is auditor for r in bench.network.routers)
        auditor.detach()
        assert all(r.audit is None for r in bench.network.routers)


# ----------------------------------------------------------------------
# the violation payload
# ----------------------------------------------------------------------
class TestViolationPayload:
    def _violation(self):
        return AuditViolation(
            "teleport", 42, 7, "flit 3 jumped",
            flit={"fid": 3}, trail=[[41, "node 2 [inj_queue]"]],
            details={"why": "test"},
        )

    def test_message_format(self):
        v = self._violation()
        assert str(v) == "[teleport] cycle 42, node 7: flit 3 jumped"
        g = AuditViolation("conservation", 9, -1, "count off")
        assert str(g) == "[conservation] cycle 9, network: count off"

    def test_pickle_round_trip(self):
        v = self._violation()
        w = pickle.loads(pickle.dumps(v))
        assert isinstance(w, AuditViolation)
        assert w.to_dict() == v.to_dict()
        assert str(w) == str(v)

    def test_to_dict_is_json_serialisable(self):
        v = self._violation()
        payload = json.loads(json.dumps(v.to_dict()))
        assert payload["check"] == "teleport"
        assert payload["cycle"] == 42
        assert payload["flit"] == {"fid": 3}
        assert payload["trail"] == [[41, "node 2 [inj_queue]"]]

    def test_trace_records_from_jsonl_sink(self, tmp_path, double):
        """With ``--trace FILE`` telemetry (a JSONL sink, no in-memory ring)
        the auditor flushes and reads the file back, so the violation still
        carries the flit's lifecycle records."""
        from repro.obs import Telemetry
        from repro.sim.config import TelemetryConfig
        from repro.sim.network import Network
        from repro.sim.stats import StatsCollector

        double("test_starve_dxbar", StarvingRouter, routing="dor")
        cfg = SimConfig(
            design="test_starve_dxbar", k=4, warmup_cycles=0,
            measure_cycles=10**6, drain_cycles=0, packet_size=1, seed=1,
            telemetry=TelemetryConfig(trace_path=str(tmp_path / "ev.jsonl")),
        )
        stats = StatsCollector(cfg.num_nodes)
        stats.set_window(0, 10**9)
        net = Network(cfg, stats, telemetry=Telemetry.from_config(cfg.telemetry, cfg.k))
        auditor = Auditor(net, AuditConfig(max_age=5))
        net.inject_packet(0, 15, net.cycle, num_flits=1, measured=True)
        with pytest.raises(AuditViolation) as ei:
            for _ in range(50):
                net.step()
                auditor.after_step()
        v = ei.value
        assert v.check == "starvation"
        assert v.trace_records, "file-sink telemetry must be read back"
        assert all(r["fid"] == v.flit["fid"] for r in v.trace_records)
        assert v.trace_records[0]["event"] == "inject"

    def test_report_file_written(self, tmp_path, bench_factory):
        bench = bench_factory("dxbar_dor")
        auditor = Auditor(bench.network, AuditConfig(report_dir=str(tmp_path)))
        bench.network.step()
        router = bench.router(5)
        router.fairness.count = router.fairness.threshold + 1
        with pytest.raises(AuditViolation):
            auditor.after_step()
        (report,) = tmp_path.glob("audit-violation-*.json")
        payload = json.loads(report.read_text())
        assert payload["check"] == "fairness"
        assert payload["node"] == 5


# ----------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------
class TestConfigPlumbing:
    def test_as_audit_config_coercions(self):
        assert _as_audit_config(False) is None
        assert _as_audit_config(None) is None
        assert _as_audit_config(True) == AuditConfig()
        cfg = AuditConfig(max_age=5, report_dir="/tmp/x")
        assert _as_audit_config(cfg) is cfg
        assert _as_audit_config(cfg.to_dict()) == cfg

    def test_config_dict_round_trip(self):
        cfg = AuditConfig(max_age=123, report_dir="reports")
        assert AuditConfig.from_dict(cfg.to_dict()) == cfg
        assert AuditConfig.from_dict({}) == AuditConfig()

    def test_run_specs_parallel_with_audit(self):
        """The audit flag crosses the process boundary (as a dict) and the
        workers' results still match the serial, unaudited ones."""
        specs = [
            RunSpec(Case("dxbar_dor").config()),
            RunSpec(Case("unified_wf").config()),
        ]
        base = [o.result.to_dict() for o in run_specs(specs)]
        audited = run_specs(
            specs, jobs=2, audit=AuditConfig(max_age=2000), retries=0
        )
        assert all(o.ok for o in audited)
        assert [o.result.to_dict() for o in audited] == base
