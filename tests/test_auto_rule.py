"""The ``auto`` backend rule reads the rate of the workload it will run.

``Workload.flits_per_cycle()`` gives the expected injected flits per
cycle for the whole network: ``k**2 * offered_load`` for the Bernoulli
workload, a trace's flits over its issue span for a trace replay.  The
``Simulator`` resolves the backend with it, journals the reason naming
it, and the figure drivers stamp SPLASH-2 cells through the same rule.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import SCALES
from repro.obs import merge_journal
from repro.registry import DESIGNS
from repro.runner import RunSpec, run_specs
from repro.runner.spec import materialize_workload
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.topology import Mesh
from repro.sim.vector import VectorNetwork
from repro.traffic.generator import BernoulliSynthetic
from repro.traffic.patterns import make_pattern
from repro.traffic.trace import TraceEvent, TraceWorkload

#: The rule as it stood before it read workloads: the designs with a
#: kernel and their ``vector_min_work`` (None: the kernel always wins),
#: weighed against ``k**2 * offered_load``.  Open-loop cells, saturation
#: probes and campaign jobs must still resolve exactly as this says, so
#: their cache keys do not move.
PINNED_KERNELS = {"flit_bless": 10.0, "buffered4": None}


def _pinned_backend(design: str, k: int, load: float) -> str:
    if design not in PINNED_KERNELS:
        return "object"
    min_work = PINNED_KERNELS[design]
    if min_work is not None and k * k * load < min_work:
        return "object"
    return "vector"


#: Every open-loop figure load (Figs. 5-8 and 11-12 run at k=8) ...
FIGURE_LOADS = sorted(
    {0.5}
    | {load for scale in SCALES.values() for load in scale.loads}
    | {load for scale in SCALES.values() for load in scale.fault_loads}
)
#: ... and a grid covering every saturation probe bracket (min_load 0.02
#: up to max_load 2.0) at the radices the search and its tests use.
PROBE_LOADS = [round(0.02 * i, 2) for i in range(1, 101)]


class TestWorkloadRates:
    def test_bernoulli_rate_is_k2_times_load(self):
        for k, load in ((4, 0.3), (8, 0.1), (16, 0.05)):
            pattern = make_pattern("UR", Mesh(k))
            wl = BernoulliSynthetic(pattern, load=load, packet_size=2, seed=1)
            assert wl.flits_per_cycle() == k * k * load

    def test_trace_rate_is_flits_over_issue_span(self):
        events = [TraceEvent(10, 0, 1, 4), TraceEvent(12, 2, 3, 1),
                  TraceEvent(19, 1, 0, 5)]
        assert TraceWorkload(events).flits_per_cycle() == 10 / 10

    def test_empty_trace_has_rate_zero(self):
        empty = TraceWorkload([])
        assert empty.flits_per_cycle() == 0.0
        for design in ("flit_bless", "buffered4"):
            cfg = SimConfig(design=design, k=8, backend="auto")
            assert cfg.fastest_backend(empty) == "object"

    def test_one_cycle_trace_rate_is_its_flits(self):
        events = [TraceEvent(7, 0, 1, 4), TraceEvent(7, 2, 3, 1),
                  TraceEvent(7, 3, 0, 4)]
        assert TraceWorkload(events).flits_per_cycle() == 9.0

    def test_rate_ignores_the_replay_cursor(self):
        wl = TraceWorkload([TraceEvent(0, 0, 1, 2), TraceEvent(3, 1, 0, 2)])
        before = wl.flits_per_cycle()
        wl.load_state_dict({"idx": 1})
        assert wl.flits_per_cycle() == before == 1.0


class TestOpenLoopDecisionsPinned:
    """Reading the workload changes no open-loop decision."""

    @pytest.mark.parametrize("design", DESIGNS.names())
    def test_figure_loads(self, design):
        for load in FIGURE_LOADS:
            cfg = SimConfig(design=design, offered_load=load)
            assert cfg.fastest_backend() == _pinned_backend(design, 8, load), load

    @pytest.mark.parametrize("design", DESIGNS.names())
    def test_saturation_probe_brackets(self, design):
        for k in (4, 8, 16):
            pattern = make_pattern("UR", Mesh(k))
            for load in PROBE_LOADS:
                cfg = SimConfig(design=design, k=k, offered_load=load)
                want = _pinned_backend(design, k, load)
                assert cfg.fastest_backend() == want, (k, load)
                # The engine's Bernoulli workload gives the same decision.
                wl = BernoulliSynthetic(pattern, load=load, packet_size=4, seed=1)
                assert cfg.fastest_backend(wl) == want, (k, load)


class TestSimulatorResolvesOnTheWorkload:
    def _low_rate_trace(self):
        # 64 one-flit packets over 64 cycles: 1 flit/cycle.
        return TraceWorkload(
            [TraceEvent(c, c % 63, 63, 1) for c in range(64)]
        )

    def test_low_rate_trace_runs_the_object_walk(self):
        # k=8 at the default offered_load would be 19.2 >= 10 -> vector.
        cfg = SimConfig(design="flit_bless", k=8, backend="auto", max_cycles=5000,
                        warmup_cycles=0, measure_cycles=1, drain_cycles=0)
        sim = Simulator(cfg, workload=self._low_rate_trace())
        assert not isinstance(sim.network, VectorNetwork)
        assert sim.backend_choice == (
            "object", "auto: below vector_min_work (1.00 flits/cycle < 10)")

    def test_bernoulli_choice_names_k2_load(self):
        sim = Simulator(SimConfig(design="flit_bless", k=8, backend="auto"))
        assert isinstance(sim.network, VectorNetwork)
        assert sim.backend_choice == (
            "vector", "auto: kernel (19.20 flits/cycle >= 10)")

    def test_journal_names_the_trace_rate(self, tmp_path):
        workload = {"kind": "splash2", "app": "FFT", "txns_per_core": 2, "seed": 103}
        cfg = SimConfig(design="flit_bless", k=8, backend="auto", max_cycles=100_000,
                        warmup_cycles=0, measure_cycles=1, drain_cycles=0)
        rate = materialize_workload(workload, cfg).flits_per_cycle()
        assert rate < 10
        [out] = run_specs([RunSpec(cfg, workload=workload)], root=tmp_path)
        assert out.ok
        [event] = [e for e in merge_journal(tmp_path / "journal")
                   if e["event"] == "backend_resolved"]
        assert event["requested"] == "auto"
        assert event["resolved"] == "object"
        assert event["reason"] == (
            f"auto: below vector_min_work ({rate:.2f} flits/cycle < 10)")
